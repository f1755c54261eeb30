package vm

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/mir"
)

// This file is the EngineThreaded tier: at Start the machine translates
// every basic block into threaded code — an array of pre-bound closures
// plus, wherever at least two consecutive instructions allow it, a
// fused superinstruction chain that retires the whole run with one
// indirect call. Inside a chain, maximal runs of pure register
// instructions (const/mov/arithmetic/compares — no traps, no observers)
// are compacted into shape-specialized micro-ops executed by a lean
// loop with batched step accounting; side-effecting instructions keep
// per-instruction accounting and exact frame pc so backtraces, fault
// clocks and handler-visible Steps() match the interpreter bit for bit.
//
// Determinism contract with the interpreter (asserted by conformance
// and the differential tests): a chain is only entered when the
// remaining quantum covers all of it, and every instruction that can
// transfer control (branch, user call, return) may only terminate a
// chain — so the threaded tier retires exactly the interpreter's
// instruction sequence per scheduler slice, and the shared RNG, report
// and counter streams never diverge.

// tsig is a threaded-op outcome signal.
type tsig uint8

const (
	sigNext  tsig = iota // fall through to the next instruction
	sigJump              // fr.block/fr.pc updated within the frame
	sigFrame             // frame pushed or popped; re-derive windows
	sigStop              // thread blocked or finished, or the run failed
)

// texec is the threaded tier's execution context. One per machine,
// re-pointed at the running thread's register windows each slice, so a
// steady-state quantum allocates nothing.
type texec struct {
	m      *Machine
	t      *thread
	fr     *frame
	regs   []uint64
	shadow []uint64
}

// topFn is one threaded operation: a pre-bound closure over the
// instruction's static operands. Closures capture only build-time
// constants, never thread state, so one build serves every thread.
type topFn func(x *texec) tsig

// tEntry is one instruction slot of threaded code.
type tEntry struct {
	fn     topFn  // single-instruction closure (resume/tail fallback)
	chain  topFn  // superinstruction starting here, or nil
	chain4 topFn  // short-chain twin for quantum tails, or nil
	pure   []puOp // maximal pure run starting here, or nil
	n      int32  // instructions the chain covers
	n4     int32  // instructions the short chain covers
	op     mir.Op // opcode, for the dispatch loop's step accounting
}

// tBlock is one basic block of threaded code: the per-instruction
// entries plus per-opcode prefix sums over the block's pure positions,
// so any pure-run prefix accounts in O(distinct opcodes) work.
type tBlock struct {
	entries []tEntry
	pureOps []mir.Op
	cum     [][]uint32 // cum[oi][pos] = #pureOps[oi] in instrs [0,pos)
}

// maxChain bounds a superinstruction's length. It must stay at or below
// the minimum scheduler slice (Quantum/2+1, i.e. 33 by default) so a
// freshly granted quantum can always enter a chain instead of
// single-stepping through it.
const maxChain = 32

// Micro-op kinds for pure register instructions. The RR band and the
// RI band mirror the OpAdd..OpGe opcode order, so decode is arithmetic
// and the shadow rule is a band test: RR merges both operand shadows,
// RI propagates the register operand's shadow.
const (
	puNop uint8 = iota
	puConst
	puMov
	puGen // generic operand decode (non-commutative const-reg shapes)
	puAddRR
	puSubRR
	puMulRR
	puDivRR
	puRemRR
	puAndRR
	puOrRR
	puXorRR
	puShlRR
	puShrRR
	puEqRR
	puNeRR
	puLtRR
	puLeRR
	puGtRR
	puGeRR
	puAddRI
	puSubRI
	puMulRI
	puDivRI
	puRemRI
	puAndRI
	puOrRI
	puXorRI
	puShlRI
	puShrRI
	puEqRI
	puNeRI
	puLtRI
	puLeRI
	puGtRI
	puGeRI
)

// puOp is one decoded pure micro-op.
type puOp struct {
	kind uint8
	op   mir.Op // puGen only
	dst  int32
	a    int32  // register index (puGen: -1 means use aImm)
	b    int32  // register index (puGen: -1 means use bImm)
	aImm uint64 // puConst value; puGen const A
	bImm uint64 // RI immediate; puGen const B
}

// opCount is a batched per-opcode step delta for a pure segment.
type opCount struct {
	op mir.Op
	n  uint64
}

// tSeg is one element of a superinstruction: either a compacted pure
// run (fn nil) or a pre-bound side-effecting closure.
type tSeg struct {
	pure   []puOp
	nPure  uint64
	counts []opCount
	fn     topFn
	op     mir.Op
	pc     int32
}

// pureIns reports whether an instruction only reads and writes
// registers: it cannot trap, block, transfer control or call out, so
// its accounting can be batched.
func pureIns(ins *linkedInstr) bool {
	switch ins.Op {
	case mir.OpNop, mir.OpConst, mir.OpMov:
		return true
	}
	return ins.Op.IsBinOp() || ins.Op.IsCmp()
}

// chainMid reports whether an instruction may appear in the middle of a
// chain: everything that falls through to the next pc (possibly after
// blocking and retrying, like OpLock) qualifies.
func chainMid(ins *linkedInstr) bool {
	switch ins.Op {
	case mir.OpLoad, mir.OpStore, mir.OpAlloca, mir.OpHook,
		mir.OpLock, mir.OpUnlock, mir.OpSpawn, mir.OpJoin:
		return true
	case mir.OpCall:
		return ins.UserFn < 0 // library models return inline
	}
	return pureIns(ins)
}

// chainFinal reports whether an instruction transfers control and may
// therefore only terminate a chain.
func chainFinal(ins *linkedInstr) bool {
	switch ins.Op {
	case mir.OpBr, mir.OpCondBr, mir.OpRet, mir.OpRetVal:
		return true
	case mir.OpCall:
		return ins.UserFn >= 0
	}
	return false
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// evalBin mirrors the interpreter's binop/compare semantics exactly:
// trap-free signed division, shift counts masked to 63, signed
// compares. It doubles as the constant folder for const-const shapes.
func evalBin(op mir.Op, a, b uint64) uint64 {
	switch op {
	case mir.OpAdd:
		return a + b
	case mir.OpSub:
		return a - b
	case mir.OpMul:
		return a * b
	case mir.OpDiv:
		if int64(b) == 0 {
			return 0
		}
		return uint64(int64(a) / int64(b))
	case mir.OpRem:
		if int64(b) == 0 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case mir.OpAnd:
		return a & b
	case mir.OpOr:
		return a | b
	case mir.OpXor:
		return a ^ b
	case mir.OpShl:
		return a << (b & 63)
	case mir.OpShr:
		return a >> (b & 63)
	case mir.OpEq:
		return b2u(int64(a) == int64(b))
	case mir.OpNe:
		return b2u(int64(a) != int64(b))
	case mir.OpLt:
		return b2u(int64(a) < int64(b))
	case mir.OpLe:
		return b2u(int64(a) <= int64(b))
	case mir.OpGt:
		return b2u(int64(a) > int64(b))
	case mir.OpGe:
		return b2u(int64(a) >= int64(b))
	}
	return 0
}

// decodePure compiles one pure instruction into a micro-op,
// shape-specializing on operand constness: const-const folds, reg-reg
// and reg-const take the dedicated bands, and const-reg is either
// normalized into the RI band (commutative ops, flipped compares) or
// kept generic.
func decodePure(ins *linkedInstr) puOp {
	switch ins.Op {
	case mir.OpNop:
		return puOp{kind: puNop}
	case mir.OpConst:
		return puOp{kind: puConst, dst: int32(ins.Dst), aImm: uint64(ins.Imm)}
	case mir.OpMov:
		if ins.A.IsConst {
			return puOp{kind: puConst, dst: int32(ins.Dst), aImm: uint64(ins.A.Const)}
		}
		return puOp{kind: puMov, dst: int32(ins.Dst), a: int32(ins.A.Reg)}
	}
	a, b := ins.A, ins.B
	dst := int32(ins.Dst)
	switch {
	case a.IsConst && b.IsConst:
		// Shadow of a const operand is 0, so the fold's 0 shadow matches.
		return puOp{kind: puConst, dst: dst, aImm: evalBin(ins.Op, uint64(a.Const), uint64(b.Const))}
	case !a.IsConst && !b.IsConst:
		return puOp{kind: puAddRR + uint8(ins.Op-mir.OpAdd), dst: dst, a: int32(a.Reg), b: int32(b.Reg)}
	case !a.IsConst: // reg OP const
		return puOp{kind: puAddRI + uint8(ins.Op-mir.OpAdd), dst: dst, a: int32(a.Reg), bImm: uint64(b.Const)}
	}
	// const OP reg: commute or flip into the RI band where semantics
	// (and the shadow rule — the reg operand's shadow propagates either
	// way) allow, otherwise fall back to generic operand decode.
	ri := func(op mir.Op) puOp {
		return puOp{kind: puAddRI + uint8(op-mir.OpAdd), dst: dst, a: int32(b.Reg), bImm: uint64(a.Const)}
	}
	switch ins.Op {
	case mir.OpAdd, mir.OpMul, mir.OpAnd, mir.OpOr, mir.OpXor, mir.OpEq, mir.OpNe:
		return ri(ins.Op)
	case mir.OpLt:
		return ri(mir.OpGt)
	case mir.OpLe:
		return ri(mir.OpGe)
	case mir.OpGt:
		return ri(mir.OpLt)
	case mir.OpGe:
		return ri(mir.OpLe)
	}
	return puOp{kind: puGen, op: ins.Op, dst: dst, a: -1, b: int32(b.Reg), aImm: uint64(a.Const)}
}

// runPure retires a compacted pure run. The caller has already batched
// the step and per-opcode accounting; nothing in here can trap, block
// or observe the machine.
func runPure(x *texec, ops []puOp, track bool) {
	if track {
		runPureTrack(x, ops)
		return
	}
	runPureFast(x, ops)
}

// runPureFast is the shadow-off micro-op sweep: no shadow loads or
// stores anywhere in the loop, so the common untracked configuration
// pays only for the value computation and the jump-table dispatch.
// Each band case retires the whole run of same-kind micro-ops in a
// tight inner loop, so the indirect jump-table branch — the classic
// interpreter misprediction sink — fires once per run, not once per
// instruction.

// rp is the unchecked register accessor for the micro-op sweeps.
// Soundness: mir.Verify rejects any program with a register operand
// outside [0, NRegs) at load time, decodePure only emits verified
// operands, and the regs window handed to texec is always NRegs wide —
// so every index rp sees is in range by construction.
func rp(base unsafe.Pointer, i int32) *uint64 {
	return (*uint64)(unsafe.Add(base, uintptr(uint32(i))*8))
}

func runPureFast(x *texec, ops []puOp) {
	base := unsafe.Pointer(unsafe.SliceData(x.regs))
	n := len(ops)
	for i := 0; i < n; {
		u := &ops[i]
		switch u.kind {
		case puNop:
			i++
		case puConst:
			for {
				*rp(base, u.dst) = u.aImm
				if i++; i == n || ops[i].kind != puConst {
					break
				}
				u = &ops[i]
			}
		case puMov:
			for {
				*rp(base, u.dst) = *rp(base, u.a)
				if i++; i == n || ops[i].kind != puMov {
					break
				}
				u = &ops[i]
			}
		case puGen:
			va, vb := u.aImm, u.bImm
			if u.a >= 0 {
				va = *rp(base, u.a)
			}
			if u.b >= 0 {
				vb = *rp(base, u.b)
			}
			*rp(base, u.dst) = evalBin(u.op, va, vb)
			i++
		case puAddRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) + *rp(base, u.b)
				if i++; i == n || ops[i].kind != puAddRR {
					break
				}
				u = &ops[i]
			}
		case puSubRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) - *rp(base, u.b)
				if i++; i == n || ops[i].kind != puSubRR {
					break
				}
				u = &ops[i]
			}
		case puMulRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) * *rp(base, u.b)
				if i++; i == n || ops[i].kind != puMulRR {
					break
				}
				u = &ops[i]
			}
		case puDivRR:
			*rp(base, u.dst) = evalBin(mir.OpDiv, *rp(base, u.a), *rp(base, u.b))
			i++
		case puRemRR:
			*rp(base, u.dst) = evalBin(mir.OpRem, *rp(base, u.a), *rp(base, u.b))
			i++
		case puAndRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) & *rp(base, u.b)
				if i++; i == n || ops[i].kind != puAndRR {
					break
				}
				u = &ops[i]
			}
		case puOrRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) | *rp(base, u.b)
				if i++; i == n || ops[i].kind != puOrRR {
					break
				}
				u = &ops[i]
			}
		case puXorRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) ^ *rp(base, u.b)
				if i++; i == n || ops[i].kind != puXorRR {
					break
				}
				u = &ops[i]
			}
		case puShlRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) << (*rp(base, u.b) & 63)
				if i++; i == n || ops[i].kind != puShlRR {
					break
				}
				u = &ops[i]
			}
		case puShrRR:
			for {
				*rp(base, u.dst) = *rp(base, u.a) >> (*rp(base, u.b) & 63)
				if i++; i == n || ops[i].kind != puShrRR {
					break
				}
				u = &ops[i]
			}
		case puEqRR:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) == int64(*rp(base, u.b)))
			i++
		case puNeRR:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) != int64(*rp(base, u.b)))
			i++
		case puLtRR:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) < int64(*rp(base, u.b)))
			i++
		case puLeRR:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) <= int64(*rp(base, u.b)))
			i++
		case puGtRR:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) > int64(*rp(base, u.b)))
			i++
		case puGeRR:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) >= int64(*rp(base, u.b)))
			i++
		case puAddRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) + u.bImm
				if i++; i == n || ops[i].kind != puAddRI {
					break
				}
				u = &ops[i]
			}
		case puSubRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) - u.bImm
				if i++; i == n || ops[i].kind != puSubRI {
					break
				}
				u = &ops[i]
			}
		case puMulRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) * u.bImm
				if i++; i == n || ops[i].kind != puMulRI {
					break
				}
				u = &ops[i]
			}
		case puDivRI:
			*rp(base, u.dst) = evalBin(mir.OpDiv, *rp(base, u.a), u.bImm)
			i++
		case puRemRI:
			*rp(base, u.dst) = evalBin(mir.OpRem, *rp(base, u.a), u.bImm)
			i++
		case puAndRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) & u.bImm
				if i++; i == n || ops[i].kind != puAndRI {
					break
				}
				u = &ops[i]
			}
		case puOrRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) | u.bImm
				if i++; i == n || ops[i].kind != puOrRI {
					break
				}
				u = &ops[i]
			}
		case puXorRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) ^ u.bImm
				if i++; i == n || ops[i].kind != puXorRI {
					break
				}
				u = &ops[i]
			}
		case puShlRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) << (u.bImm & 63)
				if i++; i == n || ops[i].kind != puShlRI {
					break
				}
				u = &ops[i]
			}
		case puShrRI:
			for {
				*rp(base, u.dst) = *rp(base, u.a) >> (u.bImm & 63)
				if i++; i == n || ops[i].kind != puShrRI {
					break
				}
				u = &ops[i]
			}
		case puEqRI:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) == int64(u.bImm))
			i++
		case puNeRI:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) != int64(u.bImm))
			i++
		case puLtRI:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) < int64(u.bImm))
			i++
		case puLeRI:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) <= int64(u.bImm))
			i++
		case puGtRI:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) > int64(u.bImm))
			i++
		case puGeRI:
			*rp(base, u.dst) = b2u(int64(*rp(base, u.a)) >= int64(u.bImm))
			i++
		default:
			i++
		}
	}
}

// runPureTrack is the shadow-tracking twin of runPureFast.
func runPureTrack(x *texec, ops []puOp) {
	regs := x.regs
	shadow := x.shadow
	for i := range ops {
		u := &ops[i]
		var v uint64
		switch u.kind {
		case puNop:
			continue
		case puConst:
			regs[u.dst] = u.aImm
			shadow[u.dst] = 0
			continue
		case puMov:
			regs[u.dst] = regs[u.a]
			shadow[u.dst] = shadow[u.a]
			continue
		case puGen:
			va, vb := u.aImm, u.bImm
			var s uint64
			if u.a >= 0 {
				va = regs[u.a]
				s = shadow[u.a]
			}
			if u.b >= 0 {
				vb = regs[u.b]
				s |= shadow[u.b]
			}
			regs[u.dst] = evalBin(u.op, va, vb)
			shadow[u.dst] = s
			continue
		case puAddRR:
			v = regs[u.a] + regs[u.b]
		case puSubRR:
			v = regs[u.a] - regs[u.b]
		case puMulRR:
			v = regs[u.a] * regs[u.b]
		case puDivRR:
			v = evalBin(mir.OpDiv, regs[u.a], regs[u.b])
		case puRemRR:
			v = evalBin(mir.OpRem, regs[u.a], regs[u.b])
		case puAndRR:
			v = regs[u.a] & regs[u.b]
		case puOrRR:
			v = regs[u.a] | regs[u.b]
		case puXorRR:
			v = regs[u.a] ^ regs[u.b]
		case puShlRR:
			v = regs[u.a] << (regs[u.b] & 63)
		case puShrRR:
			v = regs[u.a] >> (regs[u.b] & 63)
		case puEqRR:
			v = b2u(int64(regs[u.a]) == int64(regs[u.b]))
		case puNeRR:
			v = b2u(int64(regs[u.a]) != int64(regs[u.b]))
		case puLtRR:
			v = b2u(int64(regs[u.a]) < int64(regs[u.b]))
		case puLeRR:
			v = b2u(int64(regs[u.a]) <= int64(regs[u.b]))
		case puGtRR:
			v = b2u(int64(regs[u.a]) > int64(regs[u.b]))
		case puGeRR:
			v = b2u(int64(regs[u.a]) >= int64(regs[u.b]))
		case puAddRI:
			v = regs[u.a] + u.bImm
		case puSubRI:
			v = regs[u.a] - u.bImm
		case puMulRI:
			v = regs[u.a] * u.bImm
		case puDivRI:
			v = evalBin(mir.OpDiv, regs[u.a], u.bImm)
		case puRemRI:
			v = evalBin(mir.OpRem, regs[u.a], u.bImm)
		case puAndRI:
			v = regs[u.a] & u.bImm
		case puOrRI:
			v = regs[u.a] | u.bImm
		case puXorRI:
			v = regs[u.a] ^ u.bImm
		case puShlRI:
			v = regs[u.a] << (u.bImm & 63)
		case puShrRI:
			v = regs[u.a] >> (u.bImm & 63)
		case puEqRI:
			v = b2u(int64(regs[u.a]) == int64(u.bImm))
		case puNeRI:
			v = b2u(int64(regs[u.a]) != int64(u.bImm))
		case puLtRI:
			v = b2u(int64(regs[u.a]) < int64(u.bImm))
		case puLeRI:
			v = b2u(int64(regs[u.a]) <= int64(u.bImm))
		case puGtRI:
			v = b2u(int64(regs[u.a]) > int64(u.bImm))
		case puGeRI:
			v = b2u(int64(regs[u.a]) >= int64(u.bImm))
		}
		regs[u.dst] = v
		if u.kind >= puAddRI {
			shadow[u.dst] = shadow[u.a]
		} else {
			shadow[u.dst] = shadow[u.a] | shadow[u.b]
		}
	}
}

// buildThreaded translates every linked function into threaded code.
// Called once from Start when Config.Engine is EngineThreaded; Start is
// the one place allowed to allocate, the per-quantum path is not.
func (m *Machine) buildThreaded() {
	track := m.cfg.TrackShadow
	for _, fn := range m.funcs {
		th := make([]tBlock, len(fn.blocks))
		for bi, blk := range fn.blocks {
			entries := make([]tEntry, len(blk))
			decoded := make([]puOp, len(blk))
			for ii := range blk {
				entries[ii] = tEntry{fn: m.buildOp(&blk[ii], track), op: blk[ii].Op}
				if pureIns(&blk[ii]) {
					decoded[ii] = decodePure(&blk[ii])
				}
			}
			// Every pure pc gets its maximal pure run: the dispatch loop
			// executes these inline (clamped to the remaining quantum),
			// so pure code never pays a closure call or a chain-length
			// alignment penalty. Runs are unbounded — the quantum is the
			// only cap that matters, applied at dispatch time.
			end := 0
			for ii := len(blk) - 1; ii >= 0; ii-- {
				if !pureIns(&blk[ii]) {
					end = 0
					continue
				}
				if end == 0 {
					end = ii + 1
				}
				entries[ii].pure = decoded[ii:end]
			}
			// Per-opcode prefix sums over the block's pure positions:
			// the accounting for any run prefix [pc, pc+k) is a handful
			// of subtractions regardless of k, so quantum-clamped
			// partial runs cost the same as full ones.
			var pureOps []mir.Op
			for ii := range blk {
				if !pureIns(&blk[ii]) {
					continue
				}
				seen := false
				for _, op := range pureOps {
					if op == blk[ii].Op {
						seen = true
						break
					}
				}
				if !seen {
					pureOps = append(pureOps, blk[ii].Op)
				}
			}
			cum := make([][]uint32, len(pureOps))
			for oi, op := range pureOps {
				row := make([]uint32, len(blk)+1)
				for ii := range blk {
					row[ii+1] = row[ii]
					if blk[ii].Op == op && pureIns(&blk[ii]) {
						row[ii+1]++
					}
				}
				cum[oi] = row
			}
			m.fuseBlock(blk, entries, decoded, track)
			th[bi] = tBlock{entries: entries, pureOps: pureOps, cum: cum}
		}
		fn.threaded = th
	}
}

// fuseBlock builds a superinstruction chain starting at every pc that
// admits one: the chain covers the longest (bounded) chainable run from
// there and may end with — but never step past — a control transfer.
// Chains overlap so that wherever a quantum finds itself — after a
// branch, a mid-block resume, or the previous chain — the very next
// dispatch can fuse again; the dispatch loop falls back to single ops
// only when the remaining quantum no longer covers a whole chain.
func (m *Machine) fuseBlock(blk []linkedInstr, entries []tEntry, decoded []puOp, track bool) {
	for i := range blk {
		if pureIns(&blk[i]) {
			// Pure pcs are served by their inline run; a chain here
			// would never be consulted.
			continue
		}
		j := i
		for j < len(blk) && j-i < maxChain {
			if chainFinal(&blk[j]) {
				j++
				break
			}
			if !chainMid(&blk[j]) {
				break
			}
			j++
		}
		if j-i >= 2 {
			entries[i].chain = m.buildChain(blk[i:j], i, entries, decoded, track)
			entries[i].n = int32(j - i)
			// A short twin picks up quantum tails: when the remaining
			// slice no longer covers the full chain, the dispatch loop
			// can still fuse four at a time instead of single-stepping
			// the rest of the quantum.
			if j-i > 4 {
				entries[i].chain4 = m.buildChain(blk[i:i+4], i, entries, decoded, track)
				entries[i].n4 = 4
			} else {
				entries[i].chain4 = entries[i].chain
				entries[i].n4 = entries[i].n
			}
		}
	}
}

// buildChain fuses ins (blk[base:base+len]) into one superinstruction:
// pure runs are compacted into micro-op segments (sub-slices of the
// block's shared decode array) with batched accounting, side-effecting
// instructions reuse their single-op closures with exact
// per-instruction pc and counters. The caller guarantees the whole
// chain fits in the remaining quantum, so any non-sigStop result means
// every covered instruction retired.
func (m *Machine) buildChain(ins []linkedInstr, base int, entries []tEntry, decoded []puOp, track bool) topFn {
	var segs []tSeg
	pureFrom := -1
	flush := func(end int) {
		if pureFrom < 0 {
			return
		}
		var counts []opCount
		for k := pureFrom; k < end; k++ {
			op := ins[k].Op
			found := false
			for c := range counts {
				if counts[c].op == op {
					counts[c].n++
					found = true
					break
				}
			}
			if !found {
				counts = append(counts, opCount{op: op, n: 1})
			}
		}
		segs = append(segs, tSeg{
			pure:   decoded[base+pureFrom : base+end],
			nPure:  uint64(end - pureFrom),
			counts: counts,
		})
		pureFrom = -1
	}
	for k := range ins {
		if pureIns(&ins[k]) {
			if pureFrom < 0 {
				pureFrom = k
			}
		} else {
			flush(k)
			segs = append(segs, tSeg{fn: entries[base+k].fn, op: ins[k].Op, pc: int32(base + k)})
		}
	}
	flush(len(ins))
	chainSegs := segs
	if len(chainSegs) == 1 && chainSegs[0].fn == nil {
		// Fully pure superinstruction — the steady-state shape in
		// compute-dominated blocks. One batched accounting update, one
		// micro-op sweep, no segment walk.
		s := chainSegs[0]
		if track {
			return func(x *texec) tsig {
				m := x.m
				m.steps += s.nPure
				for _, c := range s.counts {
					m.opCounts[c.op] += c.n
				}
				runPureTrack(x, s.pure)
				return sigNext
			}
		}
		return func(x *texec) tsig {
			m := x.m
			m.steps += s.nPure
			for _, c := range s.counts {
				m.opCounts[c.op] += c.n
			}
			runPureFast(x, s.pure)
			return sigNext
		}
	}
	return func(x *texec) tsig {
		m := x.m
		for si := range chainSegs {
			s := &chainSegs[si]
			if s.fn == nil {
				m.steps += s.nPure
				for _, c := range s.counts {
					m.opCounts[c.op] += c.n
				}
				runPure(x, s.pure, track)
				continue
			}
			// Exact pc before every side-effecting op: traps, blocking
			// retries and handler backtraces see interpreter-identical
			// frame state.
			x.fr.pc = int(s.pc)
			m.steps++
			m.opCounts[s.op]++
			if sig := s.fn(x); sig != sigNext {
				return sig
			}
		}
		return sigNext
	}
}

// buildOp pre-binds one instruction into a closure. Every closure
// captures only instruction-static data (operand specs, resolved
// callees, handler functions), never thread state: one build serves all
// threads and the per-quantum path allocates nothing.
func (m *Machine) buildOp(ins *linkedInstr, track bool) topFn {
	if pureIns(ins) {
		ops := []puOp{decodePure(ins)}
		return func(x *texec) tsig {
			runPure(x, ops, track)
			return sigNext
		}
	}
	switch ins.Op {
	case mir.OpBr:
		tgt := ins.Target
		return func(x *texec) tsig {
			x.fr.block = tgt
			x.fr.pc = 0
			return sigJump
		}

	case mir.OpCondBr:
		aOp := ins.A
		tgt, els := ins.Target, ins.Else
		return func(x *texec) tsig {
			if opVal(x.regs, aOp) != 0 {
				x.fr.block = tgt
			} else {
				x.fr.block = els
			}
			x.fr.pc = 0
			return sigJump
		}

	case mir.OpLoad:
		aOp := ins.A
		dst := ins.Dst
		size := ins.Size
		return func(x *texec) tsig {
			m := x.m
			a := opVal(x.regs, aOp)
			if a > m.mem.byteMask {
				m.failf(KindTrap, "load from out-of-range address %#x", a)
				return sigStop
			}
			if straddles(a, size) {
				m.failf(KindTrap, "%d-byte load at %#x straddles a word boundary", size, a)
				return sigStop
			}
			x.regs[dst] = m.mem.load(a, size)
			if track {
				x.shadow[dst] = 0
			}
			return sigNext
		}

	case mir.OpStore:
		aOp, bOp := ins.A, ins.B
		size := ins.Size
		return func(x *texec) tsig {
			m := x.m
			a := opVal(x.regs, aOp)
			if a > m.mem.byteMask {
				m.failf(KindTrap, "store to out-of-range address %#x", a)
				return sigStop
			}
			if straddles(a, size) {
				m.failf(KindTrap, "%d-byte store at %#x straddles a word boundary", size, a)
				return sigStop
			}
			m.mem.store(a, opVal(x.regs, bOp), size)
			return sigNext
		}

	case mir.OpAlloca:
		sz := (uint64(ins.Imm) + 7) &^ 7
		dst := ins.Dst
		return func(x *texec) tsig {
			t := x.t
			if t.sp-sz < t.stackLow {
				x.m.failf(KindTrap, "stack overflow in %s", x.fr.fn.name)
				return sigStop
			}
			t.sp -= sz
			x.regs[dst] = t.sp
			if track {
				x.shadow[dst] = 0
			}
			return sigNext
		}

	case mir.OpCall:
		argOps := ins.Args
		dst := ins.Dst
		if ins.UserFn >= 0 {
			ufn := ins.UserFn
			return func(x *texec) tsig {
				t := x.t
				args := t.libArgs[:0]
				for _, a := range argOps {
					args = append(args, opVal(x.regs, a))
				}
				var shs []uint64
				if track {
					// Pooled: pushFrame copies into the callee's slab
					// before this buffer is reused.
					shs = t.libShs[:0]
					for _, a := range argOps {
						shs = append(shs, opSh(x.shadow, a))
					}
				}
				x.fr.pc++ // resume after the call
				x.m.pushFrame(t, ufn, args, shs, dst)
				return sigFrame
			}
		}
		lib := ins.Lib
		return func(x *texec) tsig {
			t := x.t
			args := t.libArgs[:0]
			for _, a := range argOps {
				args = append(args, opVal(x.regs, a))
			}
			r := lib(x.m, t, args)
			if dst != mir.NoReg {
				x.regs[dst] = r
				if track {
					x.shadow[dst] = 0
				}
			}
			if x.m.err != nil {
				return sigStop
			}
			return sigNext
		}

	case mir.OpRet, mir.OpRetVal:
		isVal := ins.Op == mir.OpRetVal
		aOp := ins.A
		return func(x *texec) tsig {
			m, t, fr := x.m, x.t, x.fr
			if isVal {
				t.retVal = opVal(x.regs, aOp)
				if track {
					t.retShadow = opSh(x.shadow, aOp)
				} else {
					t.retShadow = 0
				}
			} else {
				t.retVal, t.retShadow = 0, 0
			}
			t.sp = fr.savedSP
			retReg := fr.retReg
			t.frames = t.frames[:len(t.frames)-1]
			if len(t.frames) == 0 {
				t.state = tDone
				m.nlive--
				m.wakeJoiners(t.id)
				return sigStop
			}
			if retReg != mir.NoReg {
				parent := &t.frames[len(t.frames)-1]
				t.regSlab[parent.regBase+int(retReg)] = t.retVal
				if track {
					t.shadowSlab[parent.regBase+int(retReg)] = t.retShadow
				}
			}
			return sigFrame
		}

	case mir.OpLock:
		aOp := ins.A
		return func(x *texec) tsig {
			m, t := x.m, x.t
			v := opVal(x.regs, aOp)
			l := m.locks[v]
			if l == nil {
				l = &lockState{}
				m.locks[v] = l
			}
			switch {
			case !l.held:
				l.held = true
				l.owner = t.id
				return sigNext
			case l.owner == t.id:
				m.failf(KindTrap, "recursive lock %#x by thread %d", v, t.id)
				return sigStop
			default:
				t.state = tBlockedLock
				t.waitLock = v
				return sigStop // retry this instruction when woken
			}
		}

	case mir.OpUnlock:
		aOp := ins.A
		return func(x *texec) tsig {
			m, t := x.m, x.t
			v := opVal(x.regs, aOp)
			l := m.locks[v]
			if l == nil || !l.held || l.owner != t.id {
				m.failf(KindTrap, "unlock of lock %#x not held by thread %d", v, t.id)
				return sigStop
			}
			l.held = false
			m.wakeLockWaiters(v)
			return sigNext
		}

	case mir.OpSpawn:
		ufn := ins.UserFn
		argOps := ins.Args
		dst := ins.Dst
		return func(x *texec) tsig {
			m, t := x.m, x.t
			args := t.libArgs[:0]
			for _, a := range argOps {
				args = append(args, opVal(x.regs, a))
			}
			var shs []uint64
			if track {
				shs = t.libShs[:0]
				for _, a := range argOps {
					shs = append(shs, opSh(x.shadow, a))
				}
			}
			nt := m.newThread(ufn, args, shs)
			if m.err != nil {
				return sigStop
			}
			x.regs[dst] = uint64(nt.id)
			if track {
				x.shadow[dst] = 0
			}
			m.cur = t // newThread does not switch execution
			return sigNext
		}

	case mir.OpJoin:
		aOp := ins.A
		return func(x *texec) tsig {
			m, t := x.m, x.t
			target := int(opVal(x.regs, aOp))
			if target < 0 || target >= len(m.threads) {
				m.failf(KindTrap, "join on invalid thread handle %d", target)
				return sigStop
			}
			if m.threads[target].state != tDone {
				t.state = tBlockedJoin
				t.joinTarget = target
				return sigStop // retry when woken
			}
			return sigNext
		}

	case mir.OpHook:
		h := ins.Hook
		hargs := h.Args
		handlerID := h.HandlerID
		metaDst := h.MetaDst
		name := h.Name
		var hfn HandlerFn
		if handlerID >= 0 && handlerID < len(m.Handlers) {
			hfn = m.Handlers[handlerID]
		}
		return func(x *texec) tsig {
			m, t := x.m, x.t
			args := t.hookArgs[:0]
			for _, a := range hargs {
				switch a.Kind {
				case mir.HookConst:
					args = append(args, uint64(a.Const))
				case mir.HookReg:
					args = append(args, x.regs[a.Reg])
				case mir.HookRegMeta:
					if track {
						args = append(args, x.shadow[a.Reg])
					} else {
						args = append(args, 0)
					}
				case mir.HookThread:
					args = append(args, uint64(t.id))
				}
			}
			m.hookCalls++
			m.hookPer[handlerID]++
			if f := m.cfg.Faults.HandlerPanicNth; f != 0 && m.hookCalls == f {
				m.faultsFired++
				m.cfg.Trace.Instant("vm", "fault.handler_panic", m.cfg.TraceTID)
				panic(fmt.Sprintf("injected fault: handler panic at hook dispatch #%d (%s)", f, name))
			}
			var r uint64
			if m.hookNS != nil {
				t0 := time.Now()
				r = hfn(m, uint64(t.id), args)
				m.hookNS[handlerID] += uint64(time.Since(t0))
			} else {
				r = hfn(m, uint64(t.id), args)
			}
			if metaDst != mir.NoReg && track {
				x.shadow[metaDst] = r
			}
			return sigNext
		}
	}

	op := ins.Op
	return func(x *texec) tsig {
		x.m.failf(KindTrap, "invalid opcode %s", op)
		return sigStop
	}
}

// runThreaded is the threaded tier's slice executor — the counterpart
// of runThread, driven by the same RunQuantum scheduler. The dispatch
// loop accounts single-stepped instructions itself; chains account
// internally (batched for pure segments, per-op otherwise) and are
// entered only when the remaining quantum covers them whole.
func (m *Machine) runThreaded(t *thread, quantum int) {
	m.cur = t
	x := m.tx
	x.t = t
	track := m.cfg.TrackShadow

frameLoop:
	for quantum > 0 && t.state == tRunnable && m.err == nil {
		fr := &t.frames[len(t.frames)-1]
		x.fr = fr
		x.regs = t.regSlab[fr.regBase : fr.regBase+fr.fn.nregs]
		if m.cfg.TrackShadow {
			x.shadow = t.shadowSlab[fr.regBase : fr.regBase+fr.fn.nregs]
		} else {
			x.shadow = nil
		}
		code := fr.fn.threaded

	blockLoop:
		for {
			tb := &code[fr.block]
			entries := tb.entries
			pc := fr.pc
			for {
				if quantum <= 0 {
					fr.pc = pc
					return
				}
				e := &entries[pc]
				if pn := len(e.pure); pn != 0 {
					// Inline pure run, clamped to the remaining quantum.
					// Accounting comes from the block's prefix sums, so
					// a quantum-clamped partial prefix costs the same as
					// a full run. Pure ops cannot trap, block or observe
					// machine state, so executing the prefix and leaving
					// fr.pc at the boundary is interpreter-identical.
					k := pn
					if quantum < k {
						k = quantum
					}
					for oi, op := range tb.pureOps {
						row := tb.cum[oi]
						if d := row[pc+k] - row[pc]; d != 0 {
							m.opCounts[op] += uint64(d)
						}
					}
					m.steps += uint64(k)
					quantum -= k
					if track {
						runPureTrack(x, e.pure[:k])
					} else {
						runPureFast(x, e.pure[:k])
					}
					pc += k
					continue
				}
				if e.chain != nil && quantum >= int(e.n) {
					fr.pc = pc
					quantum -= int(e.n)
					switch e.chain(x) {
					case sigNext:
						pc += int(e.n)
					case sigJump:
						continue blockLoop
					case sigFrame:
						continue frameLoop
					default:
						return
					}
					continue
				}
				if e.chain4 != nil && quantum >= int(e.n4) {
					fr.pc = pc
					quantum -= int(e.n4)
					switch e.chain4(x) {
					case sigNext:
						pc += int(e.n4)
					case sigJump:
						continue blockLoop
					case sigFrame:
						continue frameLoop
					default:
						return
					}
					continue
				}
				fr.pc = pc
				m.steps++
				m.opCounts[e.op]++
				quantum--
				switch e.fn(x) {
				case sigNext:
					pc++
				case sigJump:
					continue blockLoop
				case sigFrame:
					continue frameLoop
				default:
					return
				}
			}
		}
	}
}
