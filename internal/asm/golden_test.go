package asm_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"roload/internal/asm"
	"roload/internal/attack"
	"roload/internal/cc"
	"roload/internal/cc/harden"
	"roload/internal/core"
	"roload/internal/spec"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/image_goldens.txt from the current assembler")

const goldenFile = "testdata/image_goldens.txt"

// goldenHardenings are the schemes whose assembly the goldens pin: the
// evaluation's six (the attack matrix uses the same set).
var goldenHardenings = attack.MatrixSchemes

// goldenSource is one MiniC program the goldens compile and assemble.
type goldenSource struct {
	name string
	src  string
}

func goldenSources() []goldenSource {
	var out []goldenSource
	for _, w := range spec.Workloads() {
		for _, sc := range []struct {
			tag   string
			scale int
		}{{"s1", 1}, {"s2", 2}, {"test", w.TestScale}} {
			out = append(out, goldenSource{w.Name + "/" + sc.tag, w.SourceFor(sc.scale)})
		}
	}
	for _, sc := range attack.AllScenarios() {
		out = append(out, goldenSource{"attack/" + sc.Name, sc.Victim})
	}
	return out
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// computeGoldens compiles every golden source under every scheme and
// digests the assembly text and the roload-image/v1 JSON of the image
// linked with Compress off and on. typed holds the image digests of the
// same units linked from their typed statements (asm.AssembleLines),
// under the same keys.
func computeGoldens(t *testing.T) (got, typed map[string]string) {
	t.Helper()
	got = make(map[string]string)
	typed = make(map[string]string)
	digest := func(img *asm.Image) string {
		doc, err := json.Marshal(core.EncodeImage(img))
		if err != nil {
			t.Fatal(err)
		}
		return sha(doc)
	}
	for _, gs := range goldenSources() {
		for _, h := range goldenHardenings {
			unit, err := cc.Compile(gs.src)
			if err != nil {
				t.Fatalf("%s: compile: %v", gs.name, err)
			}
			if err := harden.Apply(unit, h.Passes()...); err != nil {
				t.Fatalf("%s/%v: harden: %v", gs.name, h, err)
			}
			text := unit.Assembly()
			key := gs.name + "/" + h.String()
			got[key+"/text"] = sha([]byte(text))
			for _, compress := range []bool{false, true} {
				opts := asm.DefaultOptions()
				opts.Compress = compress
				img, err := asm.Assemble(text, opts)
				if err != nil {
					t.Fatalf("%s: assemble (compress=%v): %v", key, compress, err)
				}
				linked, err := asm.AssembleLines(unit.Lines, opts)
				if err != nil {
					t.Fatalf("%s: link (compress=%v): %v", key, compress, err)
				}
				ikey := fmt.Sprintf("%s/image/compress=%v", key, compress)
				got[ikey] = digest(img)
				typed[ikey] = digest(linked)
			}
		}
	}
	return got, typed
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-goldens)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGoldens(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# SHA-256 of the MiniC compiler's assembly text and of the\n")
	b.WriteString("# roload-image/v1 JSON the assembler links from it. Regenerate only\n")
	b.WriteString("# for an intended output change: go test ./internal/asm -run TestImageGoldens -update-goldens\n")
	for _, k := range keys {
		b.WriteString(k + " " + got[k] + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestImageGoldens pins the bytes of every image the evaluation and the
// attack matrix link: the spec workloads at scales 1, 2 and test and the
// attack victims, under each hardening, with and without compression.
//
// Each image is linked twice, from the assembly text and from the
// unit's typed statements, and both must match the golden.
func TestImageGoldens(t *testing.T) {
	got, typed := computeGoldens(t)
	if *updateGoldens {
		writeGoldens(t, got)
		return
	}
	want := readGoldens(t)
	for k, v := range typed {
		if w := want[k]; w != v {
			t.Errorf("%s: typed link digest %s, golden %s", k, v, w)
		}
	}
	for k, v := range got {
		w, ok := want[k]
		switch {
		case !ok:
			t.Errorf("%s: no golden (got %s)", k, v)
		case w != v:
			t.Errorf("%s: digest %s, golden %s", k, v, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: golden names no computed image", k)
		}
	}
}

// TestAssembleConcurrent assembles programs from several goroutines at
// once, as the service does: the recycled pass-1 state must never leak
// between assemblies.
func TestAssembleConcurrent(t *testing.T) {
	var texts []string
	for _, w := range spec.Workloads()[:4] {
		for _, h := range goldenHardenings[:3] {
			unit, err := cc.Compile(w.SourceFor(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := harden.Apply(unit, h.Passes()...); err != nil {
				t.Fatal(err)
			}
			texts = append(texts, unit.Assembly())
		}
	}
	texts = append(texts, "_start:\n\tadd a0, q9, a1\n") // an error, too
	digest := func(src string) string {
		img, err := asm.Assemble(src, asm.DefaultOptions())
		if err != nil {
			return err.Error()
		}
		doc, err := json.Marshal(core.EncodeImage(img))
		if err != nil {
			return err.Error()
		}
		return sha(doc)
	}
	want := make([]string, len(texts))
	for i, src := range texts {
		want[i] = digest(src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(texts); k++ {
				i := (g + k) % len(texts)
				if got := digest(texts[i]); got != want[i] {
					t.Errorf("goroutine %d, program %d: %s, want %s", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
