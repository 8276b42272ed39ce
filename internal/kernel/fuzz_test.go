package kernel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"roload/internal/asm"
	"roload/internal/cpu"
	"roload/internal/mem"
)

// fuzzBlockWords caps how much raw code one fuzz case plants: enough
// for several translated blocks (and a mid-page straddle), small
// enough to keep each execution fast.
const fuzzBlockWords = 64

// buildFuzzProgram embeds raw bytes as executable words between the
// entry point and a clean exit stub, via the real assembler. Arbitrary
// words are fine: undecodable ones trap (SIGILL), wild branches fault
// or spin into the step limit — every outcome is a legal observable,
// it just has to be the SAME observable on every engine.
func buildFuzzProgram(raw []byte) (*asm.Image, error) {
	n := len(raw) / 4
	if n == 0 {
		return nil, fmt.Errorf("no full words")
	}
	if n > fuzzBlockWords {
		n = fuzzBlockWords
	}
	var b strings.Builder
	b.WriteString("_start:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\t.word 0x%08x\n", binary.LittleEndian.Uint32(raw[4*i:]))
	}
	b.WriteString("\tli a0, 0\n\tli a7, 93\n\tecall\n")
	return asm.Assemble(b.String(), asm.DefaultOptions())
}

// FuzzBlockTranslate feeds raw instruction sequences through the
// assembler and runs them on all three execution engines: the block
// engine's observables (run result, architectural state, statistics,
// MMU and cache counters, physical memory contents) must be
// bit-identical to the interpreter's,
// whatever garbage the decoder meets — illegal encodings, compressed
// parcels, branches into the middle of other instructions, stores over
// the block's own code, or runs that never terminate (step limit).
func FuzzBlockTranslate(f *testing.F) {
	word := func(ws ...uint32) []byte {
		out := make([]byte, 4*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint32(out[4*i:], w)
		}
		return out
	}
	f.Add(word(0x00B00513, 0x00008067))             // li a0, 11; ret
	f.Add(word(0xFFFFFFFF, 0x00000000))             // illegal then zero halves
	f.Add(word(0x00B00513, 0xFE000EE3))             // addi; branch back to start
	f.Add(word(0x02C5C533, 0x02C58533, 0x0000006F)) // div, mul, jal 0 (spin)
	f.Add(word(0x00A5A023, 0x0005A503))             // store then load
	f.Add([]byte{0x01, 0x00, 0x13, 0x05, 0xB0, 0x00, 0x82, 0x80})
	// Blocks spanning three 64-byte I-cache lines (_start is
	// page-aligned, so words 0, 16 and 32 lead the lines): one that
	// retires whole, and one whose load faults as a line follower or
	// as a line leader, settling the I-side fetch accounting of a
	// partly run block.
	lineCrosser := func(faultAt int) []byte {
		ws := make([]uint32, 36, 37)
		for i := range ws {
			ws[i] = 0x00150513 // addi a0, a0, 1
		}
		if faultAt >= 0 {
			ws[faultAt] = 0x00003503 // ld a0, 0(zero)
		}
		return word(append(ws, 0x00008067)...) // ret
	}
	f.Add(lineCrosser(-1))
	f.Add(lineCrosser(20))
	f.Add(lineCrosser(32))
	// The D-side hit path, each falling through to the exit stub: a
	// store then a load that hit the L0 translation, a second store
	// that hits it (only the memory checksum sees a store written
	// through the wrong frame), a load crossing the top of the stack
	// page (sp = stack top - 64) that must take the full path, and a
	// store to the R+X code page that must fault the same way on every
	// engine.
	f.Add(word(0xFEA13C23, 0xFF813583)) // sd a0,-8(sp); ld a1,-8(sp)
	f.Add(word(0xFE213C23, 0xFE213823)) // sd sp,-8(sp); sd sp,-16(sp)
	f.Add(word(0x03C13503))             // ld a0,60(sp)
	f.Add(word(0x00000597, 0x0005A023)) // auipc a1,0; sw zero,0(a1)
	// The D-side line memo: every width, loads and stores alternating
	// on one line, so each access after the first merges or reuses
	// that line's outcomes; and an access crossing a line boundary
	// inside the page (sp is line-aligned), which never hits the memo.
	f.Add(word(0xFF813583, 0xFEB13C23, 0xFFC12603, 0xFEC10FA3, 0xFFF14683, 0xFFE11703)) // ld a1,-8(sp); sd a1,-8(sp); lw a2,-4(sp); sb a2,-1(sp); lbu a3,-1(sp); lh a4,-2(sp)
	f.Add(word(0xFEA13E23, 0xFFC13503))                                                 // sd a0,-4(sp); ld a0,-4(sp)

	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := buildFuzzProgram(raw)
		if err != nil {
			t.Skip()
		}

		type outcome struct {
			res    RunResult
			errMsg string
			state  cpu.State
			memSum uint64 // every allocated page, in page-number order
		}
		run := func(noFastPath, noBlocks bool) outcome {
			cfg := FullSystem()
			cfg.MaxSteps = 20_000
			cfg.CPU.NoFastPath = noFastPath
			cfg.CPU.NoBlocks = noBlocks
			sys := NewSystem(cfg)
			p, err := sys.Spawn(img)
			if err != nil {
				t.Skip() // image rejected identically regardless of engine
			}
			res, err := sys.Run(p)
			o := outcome{res: res, state: sys.CPU().State()}
			if err != nil {
				o.errMsg = err.Error()
			}
			sum := fnv.New64a()
			page := make([]byte, mem.PageSize)
			phys := sys.Phys()
			for _, pn := range phys.PageNumbers() {
				if err := phys.Read(pn<<mem.PageShift, page); err != nil {
					t.Fatal(err)
				}
				binary.Write(sum, binary.LittleEndian, pn)
				sum.Write(page)
			}
			o.memSum = sum.Sum64()
			return o
		}

		interp := run(true, true)
		for _, eng := range []struct {
			name                 string
			noFastPath, noBlocks bool
		}{
			{"blocks", false, false},
			{"fast", false, true},
		} {
			got := run(eng.noFastPath, eng.noBlocks)
			if got.errMsg != interp.errMsg {
				t.Fatalf("%s error %q, interp %q", eng.name, got.errMsg, interp.errMsg)
			}
			if !reflect.DeepEqual(got.res, interp.res) {
				t.Fatalf("%s result differs:\n%s: %+v\ninterp: %+v", eng.name, eng.name, got.res, interp.res)
			}
			if !reflect.DeepEqual(got.state, interp.state) {
				t.Fatalf("%s architectural state differs:\n%s: %+v\ninterp: %+v", eng.name, eng.name, got.state, interp.state)
			}
			if got.memSum != interp.memSum {
				t.Fatalf("%s physical memory differs from interp", eng.name)
			}
		}
	})
}
