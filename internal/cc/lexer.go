package cc

import (
	"strconv"
	"strings"
)

// lexer turns MiniC source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	toks []Token
}

var punctuation = []string{
	// longest first
	"<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
	"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
	"(", ")", "{", "}", "[", "]", ",", ";", ".", ":",
}

// punctByFirst holds, for each byte, the punctuation that starts with
// it, longest first.
var punctByFirst = func() (t [256][]string) {
	for _, p := range punctuation {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

// Lex tokenizes src.
func Lex(src string) ([]Token, error) {
	// MiniC averages a token per three bytes of source.
	l := &lexer{src: src, line: 1, toks: make([]Token, 0, len(src)/3+16)}
	for {
		if err := l.skipSpace(); err != nil {
			return nil, err
		}
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, Token{Kind: TokEOF, Line: l.line})
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isLetter(c):
			start := l.pos
			for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
				l.pos++
			}
			word := l.src[start:l.pos]
			kind := TokIdent
			if keywords[word] {
				kind = TokKeyword
			}
			l.toks = append(l.toks, Token{Kind: kind, Text: word, Line: l.line})
		case isDigit(c):
			start := l.pos
			base := 10
			if c == '0' && l.pos+1 < len(l.src) && (l.src[l.pos+1] == 'x' || l.src[l.pos+1] == 'X') {
				base = 16
				l.pos += 2
			}
			for l.pos < len(l.src) && isNumChar(l.src[l.pos], base) {
				l.pos++
			}
			text := l.src[start:l.pos]
			v, err := strconv.ParseInt(text, 0, 64)
			if err != nil {
				// Allow values up to 2^64-1 written in hex.
				u, uerr := strconv.ParseUint(text, 0, 64)
				if uerr != nil {
					return nil, errf(l.line, "bad integer literal %q", text)
				}
				v = int64(u)
			}
			l.toks = append(l.toks, Token{Kind: TokInt, Text: text, Val: v, Line: l.line})
		case c == '"':
			end := l.pos + 1
			for end < len(l.src) && l.src[end] != '"' {
				if l.src[end] == '\\' {
					end++
				}
				end++
			}
			if end >= len(l.src) {
				return nil, errf(l.line, "unterminated string")
			}
			raw := l.src[l.pos : end+1]
			s, err := strconv.Unquote(raw)
			if err != nil {
				return nil, errf(l.line, "bad string literal %s", raw)
			}
			l.toks = append(l.toks, Token{Kind: TokString, Text: s, Line: l.line})
			l.pos = end + 1
		case c == '\'':
			end := l.pos + 1
			for end < len(l.src) && l.src[end] != '\'' {
				if l.src[end] == '\\' {
					end++
				}
				end++
			}
			if end >= len(l.src) {
				return nil, errf(l.line, "unterminated character literal")
			}
			raw := l.src[l.pos : end+1]
			s, err := strconv.Unquote(raw)
			if err != nil || len(s) != 1 {
				return nil, errf(l.line, "bad character literal %s", raw)
			}
			l.toks = append(l.toks, Token{Kind: TokInt, Text: raw, Val: int64(s[0]), Line: l.line})
			l.pos = end + 1
		default:
			matched := false
			for _, p := range punctByFirst[c] {
				if strings.HasPrefix(l.src[l.pos:], p) {
					l.toks = append(l.toks, Token{Kind: TokPunct, Text: p, Line: l.line})
					l.pos += len(p)
					matched = true
					break
				}
			}
			if !matched {
				return nil, errf(l.line, "unexpected character %q", string(c))
			}
		}
	}
}

// skipSpace skips blanks and comments. A block comment must be closed.
func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			open := l.line
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return errf(open, "unterminated comment")
			}
			end += l.pos + 2
			l.line += strings.Count(l.src[l.pos:end], "\n")
			l.pos = end + 2
		default:
			return nil
		}
	}
	return nil
}

func isLetter(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNumChar(c byte, base int) bool {
	if isDigit(c) {
		return true
	}
	if base == 16 {
		return (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
	return false
}
