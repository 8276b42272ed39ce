package cpu

// The block engine: guest basic blocks are translated once
// (internal/block) and lowered to flat arrays of micro-ops (uops) that
// execBlock runs in one switch loop, so straight-line code runs with
// no per-instruction fetch, decode or call. Like every fast path in
// this simulator it may change host time only — cycles, statistics,
// TLB/cache state, memory, traps and checkpoints are bit-identical to
// the interpreter. The accounting partition that preserves that
// invariant:
//
//   - Folded at translate time, applied in one update when a block
//     fully retires: base cycles, multiply/divide/jump extras, retire
//     counts and the static instruction-mix statistics.
//   - Charged inline by the loop, in the interpreter's exact order:
//     the taken-branch penalty, and every D-side access. A load or
//     store the D-side line memo passes (memo.go) makes the TLB-hit
//     bookkeeping, the LoadStore charge and the D-cache hit, then
//     reads or writes the host frame, all without a call; anything
//     else calls the interpreter's own load/store helpers, which take
//     the full path (dataAccess: translation walks, the straddling
//     second translation, cache misses) and refill the memo.
//   - Settled once per I-cache line: each line's leader uop carries a
//     flag and the follower count of the run before it; it credits
//     those followers' fetches, guaranteed hits on their leader's
//     line, in one update, then makes its own real (possibly missing)
//     I-cache access. The last run is credited when the block exits. Inside a block only
//     fetches touch the I-cache and I-TLB, so the bulk credit leaves
//     exactly the tick, LRU and hit state of per-instruction accesses.
//     Every fetch past the first is a guaranteed I-TLB hit (same
//     page), credited in one bump when the block exits.
//   - Replayed on a side exit (a fault, a self-modifying store, or a
//     slice bound that ends inside the block): the fetch credits up
//     to the exiting instruction, the folded accounting of the
//     instructions that did retire, plus the faulting instruction's
//     pre-fault charges.
//
// Block entry performs a real I-side translation (so exec-permission
// revocation and rekeys are enforced per entry) and revalidates the
// backing physical page's write generation — the predecode cache's
// invalidation key — plus a physical-address match, so a stale
// translation can never run after the page is rewritten or remapped.
//
// The engine is bypassed entirely (per slice) when a probe, tracer or
// fault injector is attached: those observe or perturb individual
// instructions, which is what the interpreter is for.

import (
	"roload/internal/block"
	"roload/internal/isa"
	"roload/internal/mmu"
)

// uopKind selects the loop's case for one uop.
type uopKind uint8

const (
	uNop uopKind = iota // FENCE, and ALU ops whose rd is x0
	uSet                // rd = imm: LUI and AUIPC, value folded
	uAddi
	uAndi
	uOri
	uXori
	uSlli
	uSrli
	uSrai
	uAdd
	uSub
	uAnd
	uOr
	uXor
	uAddiw
	uAddw
	uSltu
	uALU // every other ALU op, multiply and divide: aluCompute
	uLoad
	uROLoad
	uStore
	uBeq
	uBne
	uBlt
	uBge
	uBltu
	uBgeu
	uJal
	uJalr
)

// uop is one lowered instruction in 32 bytes, operands resolved at
// translate time (x0 destinations of pure ALU ops dropped, immediates
// pre-extended, PC-relative values precomputed). Register fields index
// c.Regs masked with &31, which lets the compiler drop the bounds
// checks (isa.NumRegs is 32).
type uop struct {
	kind         uopKind
	rd, rs1, rs2 isa.Reg
	width        uint8 // load/store bytes
	shift        uint8 // load sign extension: 64-8*width when signed, else 0
	lead         bool  // first instruction fetched from its I-cache line
	follow       uint8 // for a leader: followers in the run before it
	pc           uint64
	imm          uint64 // immediate, offset, folded value or jump target
	aux          uint64 // link address, ROLoad key or generic ALU opcode
}

// compiledBlock is one lowered superblock plus its cache metadata.
type compiledBlock struct {
	src *block.Block
	ops []uop
	n   uint64
	// statCycles is the folded static cycle total of a full
	// retirement: n×Base plus multiply/divide/jump extras.
	statCycles uint64
	// tailHits is the follower count of the last line run, credited
	// to the I-cache on full retirement.
	tailHits uint64
	fallVA   uint64 // fall-through successor (not-taken for branches)
	takenVA  uint64 // taken-branch or jal target
	hasTaken bool
	// fall/taken are direct-chain links: successor blocks cached by
	// the dispatcher so a taken loop edge skips the map lookup. They
	// are hints only — every use revalidates VA, write generation and
	// the entry translation like any other entry.
	fall, taken *compiledBlock
}

// dropBlocks discards every translated block (address-space switch or
// checkpoint restore); translations rebuild lazily.
func (c *CPU) dropBlocks() {
	if c.useBlocks {
		c.blocks = make(map[uint64]*compiledBlock)
	}
}

// runSlice executes until Instret reaches bound or a trap surfaces,
// through the block engine when it is enabled and unobserved, and
// otherwise one Step at a time. bound is exact in either mode (a block
// it ends inside side-exits there): the caller's poll strides and sync
// points land on identical machine states whatever the engine.
func (c *CPU) runSlice(bound uint64) *Trap {
	if c.useBlocks && c.Tracer == nil && c.probe == nil && c.inject == nil {
		return c.runBlocks(bound)
	}
	for c.Instret < bound {
		if trap := c.Step(); trap != nil {
			return trap
		}
	}
	return nil
}

// runBlocks is the block-engine dispatcher loop.
func (c *CPU) runBlocks(bound uint64) *Trap {
	var hint *compiledBlock  // chained successor from the last block
	var fill **compiledBlock // link slot to fill with the next block
	for c.Instret < bound {
		pc := c.PC
		var b *compiledBlock
		if hint != nil && hint.src.VA == pc {
			b = hint
		} else {
			b = c.blocks[pc]
		}
		hint = nil
		if b != nil && !b.src.Ref.Valid() {
			delete(c.blocks, pc)
			b = nil
		}
		if fill != nil {
			if b != nil {
				*fill = b
			}
			fill = nil
		}
		if b != nil && b.src.Kind != block.KindBlock {
			// Known interpreter-only start: single-step (full
			// interpreter accounting, nothing charged yet).
			if trap := c.Step(); trap != nil {
				return trap
			}
			continue
		}
		// Fetch of the first instruction: the real, accounting I-side
		// translation, identical to the interpreter's fetch prefix.
		// This is the per-entry security check — exec-permission
		// revocation and remaps are caught here.
		if pc&1 != 0 {
			return c.raise(&Trap{Kind: TrapMisaligned, PC: pc})
		}
		pa, tlbMiss, fault := c.imem.Translate(pc, mmu.Exec, 0)
		if fault != nil {
			return c.raise(&Trap{Kind: TrapPageFault, PC: pc, Fault: fault})
		}
		if tlbMiss {
			c.Cycles += c.cfg.Cost.TLBWalkPerMem * 3
		}
		if b == nil || b.src.PA != pa {
			b = c.compileBlock(pc, pa)
		}
		switch b.src.Kind {
		case block.KindSlowFetch:
			// Finish this one fetch the interpreter's way; the
			// page-straddling refetch replays its own translation
			// accounting inside fetchDecodeSlow.
			if !c.icache.Access(pa) {
				c.Cycles += c.cfg.Cost.CacheMiss
			}
			in, _, trap := c.fetchDecodeSlow(pc, pa)
			if trap != nil {
				return c.raise(trap)
			}
			if trap := c.execFetched(pc, in, 0); trap != nil {
				return trap
			}
			continue
		case block.KindUnblockable:
			if !c.icache.Access(pa) {
				c.Cycles += c.cfg.Cost.CacheMiss
			}
			if trap := c.execFetched(pc, b.src.First, 0); trap != nil {
				return trap
			}
			continue
		}
		if !c.icache.Access(pa) {
			c.Cycles += c.cfg.Cost.CacheMiss
		}
		if trap := c.execBlock(b, bound-c.Instret); trap != nil {
			return trap
		}
		// Direct chaining: cache (or reuse) the successor block for
		// the edge just taken.
		switch np := c.PC; {
		case np == b.fallVA:
			if b.fall != nil && b.fall.src.VA == np {
				hint = b.fall
			} else {
				fill = &b.fall
			}
		case b.hasTaken && np == b.takenVA:
			if b.taken != nil && b.taken.src.VA == np {
				hint = b.taken
			} else {
				fill = &b.taken
			}
		}
	}
	return nil
}

// compileBlock translates and lowers the block starting at va/pa and
// caches it (possibly as an interpreter-only marker).
func (c *CPU) compileBlock(va, pa uint64) *compiledBlock {
	src := block.Translate(c.phys, va, pa, c.cfg.ICache.LineBytes, c.cfg.ROLoadEnabled)
	b := c.lowerBlock(src)
	c.blocks[va] = b
	return b
}

// execBlock runs an entered block, at most budget (≥ 1) of its
// instructions. The first instruction's fetch accounting has been
// performed by the dispatcher; every later line leader settles the
// line run before it. On full retirement the last run's fetch credits
// and the folded static accounting are applied in one update. The
// block engine runs only with the fast paths on and no probe or
// injector attached, so the D-side line memo is always in use here.
func (c *CPU) execBlock(b *compiledBlock, budget uint64) *Trap {
	r := &c.Regs
	cost := &c.cfg.Cost
	next := b.fallVA
	taken := false
	ops := b.ops
	if uint64(len(ops)) > budget {
		ops = ops[:budget]
	}
	for i := range ops {
		op := &ops[i]
		if op.lead {
			c.icache.RepeatLast(uint64(op.follow))
			if !c.icache.Access(b.src.PA + (op.pc - b.src.VA)) {
				c.Cycles += cost.CacheMiss
			}
		}
		switch op.kind {
		case uNop:
		case uSet:
			r[op.rd&31] = op.imm
		case uAddi:
			r[op.rd&31] = r[op.rs1&31] + op.imm
		case uAndi:
			r[op.rd&31] = r[op.rs1&31] & op.imm
		case uOri:
			r[op.rd&31] = r[op.rs1&31] | op.imm
		case uXori:
			r[op.rd&31] = r[op.rs1&31] ^ op.imm
		case uSlli:
			r[op.rd&31] = r[op.rs1&31] << (op.imm & 63)
		case uSrli:
			r[op.rd&31] = r[op.rs1&31] >> (op.imm & 63)
		case uSrai:
			r[op.rd&31] = uint64(int64(r[op.rs1&31]) >> (op.imm & 63))
		case uAdd:
			r[op.rd&31] = r[op.rs1&31] + r[op.rs2&31]
		case uSub:
			r[op.rd&31] = r[op.rs1&31] - r[op.rs2&31]
		case uAnd:
			r[op.rd&31] = r[op.rs1&31] & r[op.rs2&31]
		case uOr:
			r[op.rd&31] = r[op.rs1&31] | r[op.rs2&31]
		case uXor:
			r[op.rd&31] = r[op.rs1&31] ^ r[op.rs2&31]
		case uAddiw:
			r[op.rd&31] = sext32(r[op.rs1&31] + op.imm)
		case uAddw:
			r[op.rd&31] = sext32(r[op.rs1&31] + r[op.rs2&31])
		case uSltu:
			var v uint64
			if r[op.rs1&31] < r[op.rs2&31] {
				v = 1
			}
			r[op.rd&31] = v
		case uALU:
			r[op.rd&31] = aluCompute(isa.Op(op.aux), r[op.rs1&31], r[op.rs2&31], op.imm)
		case uLoad, uROLoad:
			// A ROLoad's immediate is its key, so op.imm is 0 and the
			// key sits in op.aux.
			va := r[op.rs1&31] + op.imm
			n := int(op.width)
			var v uint64
			e := c.memoEntryFor(va, uint64(n))
			if e != nil && (op.kind == uLoad && e.read || op.kind == uROLoad && e.roload && e.key == uint16(op.aux)) && c.memoHit(e) {
				v = e.frame.ReadUint(va, n)
			} else {
				at, key := mmu.Read, uint16(0)
				if op.kind == uROLoad {
					at, key = mmu.ROLoadRead, uint16(op.aux)
				}
				var trap *Trap
				if v, trap = c.load(va, n, at, key, op.pc, b.src.Insts[i].In); trap != nil {
					return c.blockExit(b, i, trap)
				}
			}
			if op.rd != isa.Zero {
				r[op.rd&31] = uint64(int64(v<<op.shift) >> op.shift)
			}
		case uStore:
			va, v := r[op.rs1&31]+op.imm, r[op.rs2&31]
			n := int(op.width)
			if e := c.memoEntryFor(va, uint64(n)); e != nil && e.write && c.memoHit(e) {
				e.frame.WriteUint(va, v, n)
			} else if trap := c.store(va, v, n, op.pc, b.src.Insts[i].In); trap != nil {
				return c.blockExit(b, i, trap)
			}
			// A store into the running code side-exits before any
			// stale instruction executes.
			if !b.src.Ref.Valid() {
				return c.blockExit(b, i, nil)
			}
		case uBeq:
			taken = r[op.rs1&31] == r[op.rs2&31]
		case uBne:
			taken = r[op.rs1&31] != r[op.rs2&31]
		case uBlt:
			taken = int64(r[op.rs1&31]) < int64(r[op.rs2&31])
		case uBge:
			taken = int64(r[op.rs1&31]) >= int64(r[op.rs2&31])
		case uBltu:
			taken = r[op.rs1&31] < r[op.rs2&31]
		case uBgeu:
			taken = r[op.rs1&31] >= r[op.rs2&31]
		case uJal:
			if op.rd != isa.Zero {
				r[op.rd&31] = op.aux
			}
			next = op.imm
		case uJalr:
			t := (r[op.rs1&31] + op.imm) &^ 1
			if op.rd != isa.Zero {
				r[op.rd&31] = op.aux
			}
			next = t
		}
	}
	if len(ops) < len(b.ops) {
		// The budget ends inside the block: retired-prefix side exit.
		return c.blockExit(b, len(ops)-1, nil)
	}
	// A conditional branch is always the block's last instruction.
	if taken {
		c.Cycles += cost.TakenBranch
		c.stats.TakenBranch++
		next = b.takenVA
	}
	c.icache.RepeatLast(b.tailHits)
	c.imem.BumpTLBHits(b.n - 1)
	c.Cycles += b.statCycles
	c.Instret += b.n
	cnt := &b.src.Counts
	c.stats.Instructions += b.n
	c.stats.Loads += cnt.Loads
	c.stats.Stores += cnt.Stores
	c.stats.ROLoads += cnt.ROLoads
	c.stats.MulDiv += cnt.MulDiv
	c.stats.Branches += cnt.Branches
	c.stats.Jumps += cnt.Jumps
	c.PC = next
	return nil
}

// blockExit settles a side exit at instruction i: the fetch credits
// of instructions 1..i, the folded static accounting of the
// instructions that did retire, then — for a trap — the faulting
// instruction's pre-fault charges and the trap charge, exactly as the
// interpreter orders them. A nil trap ends a retired prefix (a store
// into its own code page, or the budget); execution resumes after it.
func (c *CPU) blockExit(b *compiledBlock, i int, trap *Trap) *Trap {
	cost := &c.cfg.Cost
	// Instruction i was fetched before it executed. Earlier line runs
	// were settled by their successors' leaders; credit the current
	// run's followers up to and including i.
	c.imem.BumpTLBHits(uint64(i))
	lead := i
	for lead > 0 && !b.src.Insts[lead].LineLeader {
		lead--
	}
	c.icache.RepeatLast(uint64(i - lead))
	retired := i
	if trap == nil {
		retired = i + 1
	}
	for j := 0; j < retired; j++ {
		c.applyStatic(b.src.Insts[j].Class, cost)
	}
	c.Instret += uint64(retired)
	c.stats.Instructions += uint64(retired)
	if trap == nil {
		c.PC = b.src.VA + uint64(b.offAfter(i))
		return nil
	}
	// Trap at instruction i: base cycles and the memory-op statistic
	// are charged before the access faults; the instruction does not
	// retire.
	c.Cycles += cost.Base
	switch b.src.Insts[i].Class {
	case block.ClassLoad:
		c.stats.Loads++
	case block.ClassROLoad:
		c.stats.ROLoads++
		c.stats.Loads++
	case block.ClassStore:
		c.stats.Stores++
	}
	c.stats.Traps++
	c.Cycles += cost.Trap
	c.PC = b.src.VA + uint64(b.src.Insts[i].Off)
	return trap
}

// offAfter returns the byte offset just past instruction i.
func (b *compiledBlock) offAfter(i int) uint16 {
	if i+1 < len(b.src.Insts) {
		return b.src.Insts[i+1].Off
	}
	return b.src.EndOff
}

// applyStatic replays one retired instruction's folded accounting.
func (c *CPU) applyStatic(cl block.Class, cost *CostModel) {
	c.Cycles += cost.Base
	switch cl {
	case block.ClassMul:
		c.Cycles += cost.Mul
		c.stats.MulDiv++
	case block.ClassDiv:
		c.Cycles += cost.Div
		c.stats.MulDiv++
	case block.ClassLoad:
		c.stats.Loads++
	case block.ClassROLoad:
		c.stats.Loads++
		c.stats.ROLoads++
	case block.ClassStore:
		c.stats.Stores++
	case block.ClassBranch:
		c.stats.Branches++
	case block.ClassJAL, block.ClassJALR:
		c.stats.Jumps++
		c.Cycles += cost.Jump
	}
}

// lowerBlock lowers translated IR to the uop array and folds the
// block's static accounting.
func (c *CPU) lowerBlock(src *block.Block) *compiledBlock {
	b := &compiledBlock{src: src}
	if src.Kind != block.KindBlock {
		return b
	}
	n := len(src.Insts)
	b.n = uint64(n)
	b.fallVA = src.VA + uint64(src.EndOff)
	cost := c.cfg.Cost
	b.statCycles = uint64(n)*cost.Base +
		src.Counts.Muls*cost.Mul + src.Counts.Divs*cost.Div +
		src.Counts.Jumps*cost.Jump
	if t, ok := src.Terminator(); ok {
		switch t.Class {
		case block.ClassBranch, block.ClassJAL:
			b.takenVA = src.VA + uint64(t.Off) + uint64(t.In.Imm)
			b.hasTaken = true
		}
	}
	b.ops = make([]uop, n)
	lead := 0 // index of the current line run's leader
	for i, bi := range src.Insts {
		b.ops[i] = lowerInst(bi, src.VA+uint64(bi.Off))
		// The dispatcher performs the first instruction's fetch
		// accounting at block entry; a follower's fetch is a
		// guaranteed hit on its leader's line, credited in bulk.
		if i > 0 && bi.LineLeader {
			b.ops[i].lead = true
			b.ops[i].follow = uint8(i - lead - 1)
			lead = i
		}
	}
	b.tailHits = uint64(n - 1 - lead)
	return b
}

// lowerInst lowers one instruction at pc. Multiply/divide charges are
// folded statically, so ALU uops only produce the value.
func lowerInst(bi block.Inst, pc uint64) uop {
	in := bi.In
	op := uop{rd: in.Rd, rs1: in.Rs1, rs2: in.Rs2, pc: pc, imm: uint64(in.Imm)}
	switch bi.Class {
	case block.ClassFence:
		op.kind = uNop
	case block.ClassLoad, block.ClassROLoad:
		n, unsigned := in.Op.LoadWidth()
		op.kind, op.width = uLoad, uint8(n)
		if !unsigned {
			op.shift = uint8(64 - 8*n)
		}
		if bi.Class == block.ClassROLoad {
			op.kind, op.imm, op.aux = uROLoad, 0, uint64(in.Key)
		}
	case block.ClassStore:
		n, _ := in.Op.LoadWidth()
		op.kind, op.width = uStore, uint8(n)
	case block.ClassBranch:
		op.kind = branchKinds[in.Op]
	case block.ClassJAL:
		op.kind, op.imm, op.aux = uJal, pc+uint64(in.Imm), pc+uint64(in.Size)
	case block.ClassJALR:
		op.kind, op.aux = uJalr, pc+uint64(in.Size)
	default: // block.ClassALU, block.ClassMul, block.ClassDiv
		switch k, ok := aluKinds[in.Op]; {
		case in.Rd == isa.Zero:
			// The destination is discarded and ALU ops have no other
			// architectural effect; accounting is folded.
			op.kind = uNop
		case in.Op == isa.AUIPC:
			op.kind, op.imm = uSet, pc+uint64(in.Imm)
		case ok:
			op.kind = k
		default:
			op.kind, op.aux = uALU, uint64(in.Op)
		}
	}
	return op
}

// aluKinds maps the ALU opcodes the loop specialises to their uop;
// every other ALU opcode lowers to uALU.
var aluKinds = map[isa.Op]uopKind{
	isa.LUI: uSet, isa.ADDI: uAddi, isa.ANDI: uAndi, isa.ORI: uOri,
	isa.XORI: uXori, isa.SLLI: uSlli, isa.SRLI: uSrli, isa.SRAI: uSrai,
	isa.ADD: uAdd, isa.SUB: uSub, isa.AND: uAnd, isa.OR: uOr,
	isa.XOR: uXor, isa.ADDIW: uAddiw, isa.ADDW: uAddw, isa.SLTU: uSltu,
}

// branchKinds maps each conditional branch to its uop.
var branchKinds = map[isa.Op]uopKind{
	isa.BEQ: uBeq, isa.BNE: uBne, isa.BLT: uBlt,
	isa.BGE: uBge, isa.BLTU: uBltu, isa.BGEU: uBgeu,
}
