package cpu

// The block engine: guest basic blocks are translated once
// (internal/block) and emitted as chains of pre-bound closures, so
// straight-line code runs with no per-instruction fetch, decode or
// dispatch. Like every fast path in this simulator it may change host
// time only — cycles, statistics, TLB/cache state, memory, traps and
// checkpoints are bit-identical to the interpreter. The accounting
// partition that preserves that invariant:
//
//   - Folded at translate time, applied in one update when a block
//     fully retires: base cycles, multiply/divide/jump extras, retire
//     counts and the static instruction-mix statistics.
//   - Charged inline by each closure, in the interpreter's exact
//     order: the taken-branch penalty, and every D-side access through
//     the interpreter's own load/store helpers. An access inside one
//     page whose translation hits the D-side L0 (mmu.DataHit) makes the
//     TLB-hit bookkeeping, the LoadStore charge and the real D-cache
//     access, then reads or writes the cached host frame; anything
//     else takes the full path (dataAccess: translation walks, the
//     straddling second translation, cache misses).
//   - Settled once per I-cache line: each line's leader makes the
//     real (possibly missing) I-cache access; its followers' fetches
//     are guaranteed hits on that line, credited in one update when
//     the next leader runs or the block exits. Inside a block only
//     fetches touch the I-cache and I-TLB, so the bulk credit leaves
//     exactly the tick, LRU and hit state of per-instruction accesses.
//     Every fetch past the first is a guaranteed I-TLB hit (same
//     page), credited in one bump when the block exits.
//   - Replayed on a side exit (fault or self-modifying store): the
//     fetch credits up to the exiting instruction, the folded
//     accounting of the instructions that did retire, plus the
//     faulting instruction's pre-fault charges.
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

// blockStatus is the result of one block-op closure.
type blockStatus uint8

const (
	blkOK blockStatus = iota
	// blkTrap: the op did not retire; c.blkTrap holds the trap and
	// blockExit replays the prefix accounting.
	blkTrap
	// blkSelfMod: the op (a store) retired but invalidated its own
	// block's code page; execution side-exits after it so stale
	// translations never run.
	blkSelfMod
)

type blockOp func(c *CPU) blockStatus

// compiledBlock is one emitted superblock plus its cache metadata.
type compiledBlock struct {
	src *block.Block
	ops []blockOp
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
// otherwise one Step at a time. bound is exact in either mode: the
// caller's poll strides and sync points land on identical machine
// states whatever the engine.
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
		if b != nil && (b.src.Kind != block.KindBlock || c.Instret+b.n > bound) {
			// Known interpreter-only start, or a block longer than the
			// remaining budget: single-step (full interpreter
			// accounting, nothing charged yet).
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
		if c.Instret+b.n > bound {
			// Freshly translated block outruns the budget: finish one
			// instruction on the already-accounted fetch.
			if !c.icache.Access(pa) {
				c.Cycles += c.cfg.Cost.CacheMiss
			}
			if trap := c.execFetched(pc, b.src.Insts[0].In, 0); trap != nil {
				return trap
			}
			continue
		}
		if !c.icache.Access(pa) {
			c.Cycles += c.cfg.Cost.CacheMiss
		}
		if trap := c.execBlock(b); trap != nil {
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

// compileBlock translates and emits the block starting at va/pa and
// caches it (possibly as an interpreter-only marker).
func (c *CPU) compileBlock(va, pa uint64) *compiledBlock {
	src := block.Translate(c.phys, va, pa, c.cfg.ICache.LineBytes, c.cfg.ROLoadEnabled)
	b := c.emitBlock(src)
	c.blocks[va] = b
	return b
}

// execBlock runs an entered block. The first instruction's fetch
// accounting has been performed by the dispatcher; every later line
// leader's closure settles the line run before it. On full retirement
// the last run's fetch credits and the folded static accounting are
// applied in one update.
func (c *CPU) execBlock(b *compiledBlock) *Trap {
	c.blkNext = b.fallVA
	for i, op := range b.ops {
		if st := op(c); st != blkOK {
			return c.blockExit(b, i, st)
		}
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
	c.PC = c.blkNext
	return nil
}

// blockExit settles a side exit at instruction i: the fetch credits
// of instructions 1..i, the folded static accounting of the
// instructions that did retire, then — for a trap —
// the faulting instruction's pre-fault charges and the trap charge,
// exactly as the interpreter orders them.
func (c *CPU) blockExit(b *compiledBlock, i int, st blockStatus) *Trap {
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
	if st == blkSelfMod {
		retired = i + 1
	}
	for j := 0; j < retired; j++ {
		c.applyStatic(b.src.Insts[j].Class, cost)
	}
	c.Instret += uint64(retired)
	c.stats.Instructions += uint64(retired)
	if st == blkSelfMod {
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
	trap := c.blkTrap
	c.blkTrap = nil
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

// emitBlock lowers translated IR to the closure chain.
func (c *CPU) emitBlock(src *block.Block) *compiledBlock {
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
	b.ops = make([]blockOp, n)
	lead := 0 // index of the current line run's leader
	for i, bi := range src.Insts {
		body := c.emitOp(b, bi)
		if i == 0 || !bi.LineLeader {
			// The dispatcher performs the first instruction's fetch
			// accounting at block entry; a follower's fetch is a
			// guaranteed hit on its leader's line, credited in bulk.
			b.ops[i] = body
			continue
		}
		followers := uint64(i - lead - 1) // of the run this leader closes
		lead = i
		ipa := src.PA + uint64(bi.Off)
		b.ops[i] = func(c *CPU) blockStatus {
			c.icache.RepeatLast(followers)
			if !c.icache.Access(ipa) {
				c.Cycles += c.cfg.Cost.CacheMiss
			}
			return body(c)
		}
	}
	b.tailHits = uint64(n - 1 - lead)
	return b
}

// emitOp emits the body closure of one instruction, operands resolved
// at translate time (x0 destinations discarded, immediates
// pre-extended, PC-relative values precomputed).
func (c *CPU) emitOp(b *compiledBlock, bi block.Inst) blockOp {
	in := bi.In
	pcI := b.src.VA + uint64(bi.Off)
	switch bi.Class {
	case block.ClassALU, block.ClassMul, block.ClassDiv:
		return emitALU(in, pcI)
	case block.ClassFence:
		return func(c *CPU) blockStatus { return blkOK }
	case block.ClassLoad, block.ClassROLoad:
		return emitLoad(in, bi.Class, pcI)
	case block.ClassStore:
		return emitStore(b, in, pcI)
	case block.ClassBranch:
		return emitBranch(in, pcI, c.cfg.Cost.TakenBranch)
	case block.ClassJAL:
		rd := in.Rd
		link := pcI + uint64(in.Size)
		target := pcI + uint64(in.Imm)
		return func(c *CPU) blockStatus {
			if rd != isa.Zero {
				c.Regs[rd] = link
			}
			c.blkNext = target
			return blkOK
		}
	default: // block.ClassJALR
		rd, rs1 := in.Rd, in.Rs1
		imm := uint64(in.Imm)
		link := pcI + uint64(in.Size)
		return func(c *CPU) blockStatus {
			t := (c.Regs[rs1] + imm) &^ 1
			if rd != isa.Zero {
				c.Regs[rd] = link
			}
			c.blkNext = t
			return blkOK
		}
	}
}

// emitALU specializes the hottest ALU forms and falls back to the
// shared pure compute function; multiply/divide charges are folded
// statically, so bodies only produce the value.
func emitALU(in isa.Inst, pcI uint64) blockOp {
	rd, rs1, rs2 := in.Rd, in.Rs1, in.Rs2
	imm := uint64(in.Imm)
	if rd == isa.Zero {
		// The destination is discarded and ALU ops have no other
		// architectural effect; accounting is folded.
		return func(c *CPU) blockStatus { return blkOK }
	}
	switch in.Op {
	case isa.LUI:
		v := uint64(in.Imm)
		return func(c *CPU) blockStatus { c.Regs[rd] = v; return blkOK }
	case isa.AUIPC:
		v := pcI + uint64(in.Imm)
		return func(c *CPU) blockStatus { c.Regs[rd] = v; return blkOK }
	case isa.ADDI:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] + imm; return blkOK }
	case isa.ANDI:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] & imm; return blkOK }
	case isa.ORI:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] | imm; return blkOK }
	case isa.XORI:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] ^ imm; return blkOK }
	case isa.SLLI:
		sh := imm & 63
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] << sh; return blkOK }
	case isa.SRLI:
		sh := imm & 63
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] >> sh; return blkOK }
	case isa.SRAI:
		sh := imm & 63
		return func(c *CPU) blockStatus {
			c.Regs[rd] = uint64(int64(c.Regs[rs1]) >> sh)
			return blkOK
		}
	case isa.ADD:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] + c.Regs[rs2]; return blkOK }
	case isa.SUB:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] - c.Regs[rs2]; return blkOK }
	case isa.AND:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] & c.Regs[rs2]; return blkOK }
	case isa.OR:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] | c.Regs[rs2]; return blkOK }
	case isa.XOR:
		return func(c *CPU) blockStatus { c.Regs[rd] = c.Regs[rs1] ^ c.Regs[rs2]; return blkOK }
	case isa.ADDIW:
		return func(c *CPU) blockStatus { c.Regs[rd] = sext32(c.Regs[rs1] + imm); return blkOK }
	case isa.ADDW:
		return func(c *CPU) blockStatus {
			c.Regs[rd] = sext32(c.Regs[rs1] + c.Regs[rs2])
			return blkOK
		}
	case isa.SLTU:
		return func(c *CPU) blockStatus {
			var v uint64
			if c.Regs[rs1] < c.Regs[rs2] {
				v = 1
			}
			c.Regs[rd] = v
			return blkOK
		}
	default:
		op := in.Op
		return func(c *CPU) blockStatus {
			c.Regs[rd] = aluCompute(op, c.Regs[rs1], c.Regs[rs2], imm)
			return blkOK
		}
	}
}

// emitLoad emits regular and ROLoad loads through the interpreter's
// own D-side helper (CPU.load) — translation, key check, cache and
// walk accounting — so a revoked key faults here exactly as it would
// in the interpreter, however stale the enclosing block.
func emitLoad(in isa.Inst, cl block.Class, pcI uint64) blockOp {
	n, unsigned := in.Op.LoadWidth()
	at := mmu.Read
	key := uint16(0)
	imm := uint64(in.Imm)
	if cl == block.ClassROLoad {
		at = mmu.ROLoadRead
		key = in.Key
		imm = 0 // the immediate is the key, not an offset
	}
	rd, rs1 := in.Rd, in.Rs1
	shift := uint(64 - 8*n)
	return func(c *CPU) blockStatus {
		v, trap := c.load(c.Regs[rs1]+imm, n, at, key, pcI, in)
		if trap != nil {
			c.blkTrap = trap
			return blkTrap
		}
		if !unsigned {
			v = uint64(int64(v<<shift) >> shift)
		}
		if rd != isa.Zero {
			c.Regs[rd] = v
		}
		return blkOK
	}
}

// emitStore emits a store through CPU.store; after the write it
// revalidates the enclosing block's own page so a store into the
// running code side-exits before any stale instruction executes.
func emitStore(b *compiledBlock, in isa.Inst, pcI uint64) blockOp {
	n, _ := in.Op.LoadWidth()
	rs1, rs2 := in.Rs1, in.Rs2
	imm := uint64(in.Imm)
	return func(c *CPU) blockStatus {
		if trap := c.store(c.Regs[rs1]+imm, c.Regs[rs2], n, pcI, in); trap != nil {
			c.blkTrap = trap
			return blkTrap
		}
		if !b.src.Ref.Valid() {
			return blkSelfMod
		}
		return blkOK
	}
}

// emitBranch emits the conditional-branch terminator; the Branches
// statistic is folded, the taken penalty charged dynamically.
func emitBranch(in isa.Inst, pcI uint64, takenCost uint64) blockOp {
	op := in.Op
	rs1, rs2 := in.Rs1, in.Rs2
	takenVA := pcI + uint64(in.Imm)
	return func(c *CPU) blockStatus {
		a, b := c.Regs[rs1], c.Regs[rs2]
		var taken bool
		switch op {
		case isa.BEQ:
			taken = a == b
		case isa.BNE:
			taken = a != b
		case isa.BLT:
			taken = int64(a) < int64(b)
		case isa.BGE:
			taken = int64(a) >= int64(b)
		case isa.BLTU:
			taken = a < b
		case isa.BGEU:
			taken = a >= b
		}
		if taken {
			c.Cycles += takenCost
			c.stats.TakenBranch++
			c.blkNext = takenVA
		}
		return blkOK
	}
}
