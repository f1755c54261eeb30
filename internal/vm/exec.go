package vm

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/mir"
	"repro/internal/trace"
)

type tstate uint8

const (
	tRunnable tstate = iota
	tBlockedLock
	tBlockedJoin
	tDone
)

type frame struct {
	fn      *linkedFunc
	regBase int
	block   int
	pc      int
	retReg  mir.Reg // destination register in the caller's frame
	savedSP uint64
}

type thread struct {
	id         int
	state      tstate
	waitLock   uint64
	joinTarget int

	frames     []frame
	regSlab    []uint64
	shadowSlab []uint64

	sp       uint64
	stackLow uint64

	retVal    uint64
	retShadow uint64

	hookArgs []uint64
	libArgs  []uint64
	libShs   []uint64
}

// opVal and opSh resolve instruction operands against a frame's register
// and shadow windows. Free functions (not closures) so the dispatch loop
// allocates nothing per frame.
func opVal(regs []uint64, o mir.Operand) uint64 {
	if o.IsConst {
		return uint64(o.Const)
	}
	return regs[o.Reg]
}

func opSh(shadow []uint64, o mir.Operand) uint64 {
	if o.IsConst {
		return 0
	}
	return shadow[o.Reg]
}

func (m *Machine) newThread(fnIdx int, args, shadows []uint64) *thread {
	id := len(m.threads)
	if id >= m.cfg.MaxThreads {
		m.failf(KindTrap, "thread limit %d exceeded", m.cfg.MaxThreads)
		return nil
	}
	top := m.cfg.AddrSpace - uint64(id)*m.cfg.StackSize
	t := &thread{
		id:       id,
		sp:       top,
		stackLow: top - m.cfg.StackSize,
		hookArgs: make([]uint64, 16),
		libArgs:  make([]uint64, 16),
		libShs:   make([]uint64, 16),
	}
	m.threads = append(m.threads, t)
	m.nlive++
	m.pushFrame(t, fnIdx, args, shadows, mir.NoReg)
	return t
}

func (m *Machine) pushFrame(t *thread, fnIdx int, args, shadows []uint64, retReg mir.Reg) {
	fn := m.funcs[fnIdx]
	base := 0
	if n := len(t.frames); n > 0 {
		base = t.frames[n-1].regBase + t.frames[n-1].fn.nregs
	}
	need := base + fn.nregs
	for len(t.regSlab) < need {
		t.regSlab = append(t.regSlab, make([]uint64, 256)...)
	}
	regs := t.regSlab[base : base+fn.nregs]
	for i := range regs {
		regs[i] = 0
	}
	copy(regs, args)
	if m.cfg.TrackShadow {
		for len(t.shadowSlab) < need {
			t.shadowSlab = append(t.shadowSlab, make([]uint64, 256)...)
		}
		sh := t.shadowSlab[base : base+fn.nregs]
		for i := range sh {
			sh[i] = 0
		}
		copy(sh, shadows)
	}
	t.frames = append(t.frames, frame{fn: fn, regBase: base, retReg: retReg, savedSP: t.sp})
	if len(t.frames) > 1<<14 {
		m.failf(KindTrap, "call stack overflow in %s", fn.name)
	}
}

// Run executes the program to completion of its main thread and returns
// the result. Run may be called once per Machine.
//
// Panics raised inside analysis handlers (which are arbitrary Go code,
// compiler-generated or hand-written) are recovered here and surface as
// a KindTrap RunError, so one broken analysis cannot kill a process
// that is sweeping many machines.
func (m *Machine) Run() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.failf(KindTrap, "panic in handler or VM: %v", r)
			// Finalize a recording so the trace replays up to the exact
			// panicking dispatch (Finish, which normally finalizes, is
			// skipped on this path).
			m.finishRecord()
			res, err = nil, m.err
		}
	}()
	if err := m.Start(); err != nil {
		return nil, err
	}
	for m.RunQuantum() {
	}
	return m.Finish()
}

// Start creates the main thread and arms the scheduler without
// executing any instructions. Together with RunQuantum and Finish it
// exposes the interpret loop one scheduler slice at a time, so
// benchmarks and allocation tests can measure steady-state slices in
// isolation. Run is equivalent to Start, RunQuantum until false, Finish
// — with the handler-panic recovery that only Run provides.
func (m *Machine) Start() error {
	m.main = m.newThread(m.idx[m.prog.Entry], nil, nil)
	if m.err != nil {
		return m.err
	}
	m.runStart = time.Now()
	m.rr = 0
	m.dlTick = 0
	m.lastRun = -1
	m.hookPer = make([]uint64, len(m.Handlers))
	return nil
}

// RunQuantum executes one scheduler slice and reports whether the
// program is still running. It returns false once the main thread
// finishes or the run fails; callers then collect the outcome with
// Finish. Unlike Run, handler panics are not recovered here.
//
// A live machine picks the next runnable thread round-robin and rolls
// a jittered budget; a replaying one reads both from the next batch
// record. The accounting, the trace span and the loop are shared.
func (m *Machine) RunQuantum() bool {
	main := m.main
	if m.err != nil || main == nil || main.state == tDone {
		return false
	}
	if m.steps > m.cfg.MaxSteps {
		m.failf(KindStepLimit, "step limit %d exceeded", m.cfg.MaxSteps)
		return false
	}
	if m.cfg.Deadline > 0 {
		// Checking the clock every slice would dominate short quanta;
		// every 128 slices (~8k instructions) keeps the granularity
		// far below any sensible deadline.
		if m.dlTick--; m.dlTick <= 0 {
			m.dlTick = 128
			if time.Since(m.runStart) > m.cfg.Deadline {
				m.failf(KindDeadline, "deadline %v exceeded after %d steps", m.cfg.Deadline, m.steps)
				return false
			}
		}
	}
	picked, q := -1, 0
	if m.rp != nil {
		if picked, q = m.replayGrant(); picked < 0 {
			return false
		}
	} else {
		n := len(m.threads)
		for i := 0; i < n; i++ {
			c := (m.rr + i) % n
			if m.threads[c].state == tRunnable {
				picked = c
				break
			}
		}
		if picked < 0 {
			m.cur = main
			m.failf(KindTrap, "deadlock: no runnable threads")
			return false
		}
		q = m.cfg.Quantum/2 + int(m.Rand()%uint64(m.cfg.Quantum)) + 1
	}
	m.rr = picked + 1
	m.quanta++
	if picked != m.lastRun {
		m.ctxSwitches++
		m.lastRun = picked
	}
	if r := m.rec; r != nil {
		r.curTid = picked
	}
	tr := m.cfg.Trace
	var q0 time.Time
	if tr != nil {
		q0 = time.Now()
	}
	steps0 := m.steps
	m.runThread(m.threads[picked], q)
	if tr != nil {
		tr.Span("vm", "quantum", m.cfg.TraceTID, q0, time.Since(q0),
			"tid", strconv.Itoa(picked),
			"steps", strconv.FormatUint(m.steps-steps0, 10))
	}
	if r := m.rec; r != nil {
		r.endBatch()
	}
	return m.err == nil && main.state != tDone
}

// Finish runs AtExit finalizers and assembles the Result after the
// interpret loop has stopped (RunQuantum returned false).
func (m *Machine) Finish() (*Result, error) {
	wall := time.Since(m.runStart)
	m.finishRecord()
	if m.err == nil && m.rp != nil {
		// The stream must end in a matching terminal: leftover quanta or
		// a recorded failure that replay sailed past are divergence.
		m.replayCheckTerminal()
	}
	if m.err != nil {
		return nil, m.err
	}
	m.cur = m.main
	for _, fn := range m.AtExit {
		fn(m)
	}
	return &Result{
		Steps:     m.steps,
		HookCalls: m.hookCalls,
		Wall:      wall,
		Exit:      m.main.retVal,
		Reports:   m.reports,
		Threads:   len(m.threads),
	}, nil
}

// runThread is the interpreter loop of live, recording and replaying
// machines. Where it reads an external input, a recording machine tees
// the input to the recorder and a replaying one takes it from the trace
// instead, checking the recomputed address against the recorded one.
//
// quantum is the slice's instruction budget. Replaying, it is the
// recorded quantum's non-hook step count, and replayExtend refunds the
// hooks when it runs out, so the slice ends where the recorded one did.
func (m *Machine) runThread(t *thread, quantum int) {
	m.cur = t
	tid := uint64(t.id)

frameLoop:
	for t.state == tRunnable && m.err == nil {
		fr := &t.frames[len(t.frames)-1]
		regs := t.regSlab[fr.regBase : fr.regBase+fr.fn.nregs]
		var shadow []uint64
		track := m.cfg.TrackShadow
		if track {
			shadow = t.shadowSlab[fr.regBase : fr.regBase+fr.fn.nregs]
		}
		code := fr.fn.blocks

		for {
			ins := &code[fr.block][fr.pc]
			if quantum <= 0 {
				if quantum = m.replayExtend(ins); quantum <= 0 {
					return
				}
			}
			m.steps++
			m.opCounts[ins.Op]++
			quantum--
			if r := m.rec; r != nil {
				r.step(ins.Op == mir.OpHook)
			}

			switch ins.Op {
			case mir.OpConst:
				regs[ins.Dst] = uint64(ins.Imm)
				if track {
					shadow[ins.Dst] = 0
				}
			case mir.OpMov:
				regs[ins.Dst] = opVal(regs, ins.A)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A)
				}
			case mir.OpAdd:
				regs[ins.Dst] = opVal(regs, ins.A) + opVal(regs, ins.B)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpSub:
				regs[ins.Dst] = opVal(regs, ins.A) - opVal(regs, ins.B)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpMul:
				regs[ins.Dst] = opVal(regs, ins.A) * opVal(regs, ins.B)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpDiv:
				b := int64(opVal(regs, ins.B))
				if b == 0 {
					regs[ins.Dst] = 0
				} else {
					regs[ins.Dst] = uint64(int64(opVal(regs, ins.A)) / b)
				}
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpRem:
				b := int64(opVal(regs, ins.B))
				if b == 0 {
					regs[ins.Dst] = 0
				} else {
					regs[ins.Dst] = uint64(int64(opVal(regs, ins.A)) % b)
				}
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpAnd:
				regs[ins.Dst] = opVal(regs, ins.A) & opVal(regs, ins.B)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpOr:
				regs[ins.Dst] = opVal(regs, ins.A) | opVal(regs, ins.B)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpXor:
				regs[ins.Dst] = opVal(regs, ins.A) ^ opVal(regs, ins.B)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpShl:
				regs[ins.Dst] = opVal(regs, ins.A) << (opVal(regs, ins.B) & 63)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpShr:
				regs[ins.Dst] = opVal(regs, ins.A) >> (opVal(regs, ins.B) & 63)
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}
			case mir.OpEq, mir.OpNe, mir.OpLt, mir.OpLe, mir.OpGt, mir.OpGe:
				a, b := int64(opVal(regs, ins.A)), int64(opVal(regs, ins.B))
				var r bool
				switch ins.Op {
				case mir.OpEq:
					r = a == b
				case mir.OpNe:
					r = a != b
				case mir.OpLt:
					r = a < b
				case mir.OpLe:
					r = a <= b
				case mir.OpGt:
					r = a > b
				default:
					r = a >= b
				}
				if r {
					regs[ins.Dst] = 1
				} else {
					regs[ins.Dst] = 0
				}
				if track {
					shadow[ins.Dst] = opSh(shadow, ins.A) | opSh(shadow, ins.B)
				}

			case mir.OpLoad:
				a := opVal(regs, ins.A)
				if a > m.mem.byteMask {
					m.failf(KindTrap, "load from out-of-range address %#x", a)
					return
				}
				if straddles(a, ins.Size) {
					m.failf(KindTrap, "%d-byte load at %#x straddles a word boundary", ins.Size, a)
					return
				}
				var v uint64
				if m.rp != nil {
					var ok bool
					if v, ok = m.replayNext(trace.EvLoad, a); !ok {
						return
					}
				} else {
					v = m.mem.load(a, ins.Size)
					if r := m.rec; r != nil {
						r.w.Load(a, v)
					}
				}
				regs[ins.Dst] = v
				if track {
					shadow[ins.Dst] = 0
				}
			case mir.OpStore:
				a := opVal(regs, ins.A)
				if a > m.mem.byteMask {
					m.failf(KindTrap, "store to out-of-range address %#x", a)
					return
				}
				if straddles(a, ins.Size) {
					m.failf(KindTrap, "%d-byte store at %#x straddles a word boundary", ins.Size, a)
					return
				}
				if m.rp != nil {
					// A replayed store is a no-op: loads carry their values.
					if _, ok := m.replayNext(trace.EvStore, a); !ok {
						return
					}
				} else {
					m.mem.store(a, opVal(regs, ins.B), ins.Size)
					if r := m.rec; r != nil {
						r.w.Store(a)
					}
				}

			case mir.OpAlloca:
				sz := (uint64(ins.Imm) + 7) &^ 7
				if t.sp-sz < t.stackLow {
					m.failf(KindTrap, "stack overflow in %s", fr.fn.name)
					return
				}
				t.sp -= sz
				regs[ins.Dst] = t.sp
				if track {
					shadow[ins.Dst] = 0
				}

			case mir.OpBr:
				fr.block = ins.Target
				fr.pc = 0
				continue
			case mir.OpCondBr:
				if opVal(regs, ins.A) != 0 {
					fr.block = ins.Target
				} else {
					fr.block = ins.Else
				}
				fr.pc = 0
				continue

			case mir.OpCall:
				if ins.UserFn >= 0 {
					args := t.libArgs[:0]
					for _, a := range ins.Args {
						args = append(args, opVal(regs, a))
					}
					var shs []uint64
					if track {
						// Pooled: pushFrame copies into the callee's slab
						// before this buffer is reused.
						shs = t.libShs[:0]
						for _, a := range ins.Args {
							shs = append(shs, opSh(shadow, a))
						}
					}
					fr.pc++ // resume after the call
					m.pushFrame(t, ins.UserFn, args, shs, ins.Dst)
					continue frameLoop
				}
				var r uint64
				if m.rp != nil {
					// The model body is skipped: its result, and any
					// allocator traffic it produced, comes from the trace.
					var ok bool
					if r, ok = m.replayNext(trace.EvLib, 0); !ok {
						return
					}
				} else {
					args := t.libArgs[:0]
					for _, a := range ins.Args {
						args = append(args, opVal(regs, a))
					}
					r = ins.Lib(m, t, args)
				}
				if ins.Dst != mir.NoReg {
					regs[ins.Dst] = r
					if track {
						shadow[ins.Dst] = 0
					}
				}
				if m.err != nil {
					return
				}
				if rc := m.rec; rc != nil {
					// Recorded only on success: a failing library call ends
					// the trace with its terminal record instead, and replay
					// reproduces it on the drained stream.
					rc.w.Lib(r)
				}

			case mir.OpRet, mir.OpRetVal:
				if ins.Op == mir.OpRetVal {
					t.retVal = opVal(regs, ins.A)
					if track {
						t.retShadow = opSh(shadow, ins.A)
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
					return
				}
				if retReg != mir.NoReg {
					parent := &t.frames[len(t.frames)-1]
					t.regSlab[parent.regBase+int(retReg)] = t.retVal
					if track {
						t.shadowSlab[parent.regBase+int(retReg)] = t.retShadow
					}
				}
				continue frameLoop

			case mir.OpLock:
				v := opVal(regs, ins.A)
				if m.rp != nil {
					if _, ok := m.replayNext(trace.EvLock, v); !ok {
						return
					}
				} else if r := m.rec; r != nil {
					// Every attempt is recorded, including ones that block:
					// the retry after wake re-executes the instruction and
					// records again, keeping replay's step count aligned.
					r.w.Lock(v)
				}
				l := m.locks[v]
				if l == nil {
					l = &lockState{}
					m.locks[v] = l
				}
				if !l.held {
					l.held = true
					l.owner = t.id
				} else if l.owner == t.id {
					m.failf(KindTrap, "recursive lock %#x by thread %d", v, t.id)
					return
				} else {
					t.state = tBlockedLock
					t.waitLock = v
					return // retry this instruction when woken
				}
			case mir.OpUnlock:
				v := opVal(regs, ins.A)
				if m.rp != nil {
					if _, ok := m.replayNext(trace.EvUnlock, v); !ok {
						return
					}
				} else if r := m.rec; r != nil {
					r.w.Unlock(v)
				}
				l := m.locks[v]
				if l == nil || !l.held || l.owner != t.id {
					m.failf(KindTrap, "unlock of lock %#x not held by thread %d", v, t.id)
					return
				}
				l.held = false
				m.wakeLockWaiters(v)

			case mir.OpSpawn:
				args := t.libArgs[:0]
				for _, a := range ins.Args {
					args = append(args, opVal(regs, a))
				}
				var shs []uint64
				if track {
					shs = t.libShs[:0]
					for _, a := range ins.Args {
						shs = append(shs, opSh(shadow, a))
					}
				}
				nt := m.newThread(ins.UserFn, args, shs)
				if m.err != nil {
					return
				}
				if m.rp != nil {
					if _, ok := m.replayNext(trace.EvSpawn, uint64(nt.id)); !ok {
						return
					}
				} else if r := m.rec; r != nil {
					r.w.Spawn(uint64(nt.id))
				}
				regs[ins.Dst] = uint64(nt.id)
				if track {
					shadow[ins.Dst] = 0
				}
				m.cur = t // newThread does not switch execution
			case mir.OpJoin:
				target := int(opVal(regs, ins.A))
				if m.rp != nil {
					if _, ok := m.replayNext(trace.EvJoin, uint64(target)); !ok {
						return
					}
				} else if r := m.rec; r != nil {
					r.w.Join(uint64(target))
				}
				if target < 0 || target >= len(m.threads) {
					m.failf(KindTrap, "join on invalid thread handle %d", target)
					return
				}
				if m.threads[target].state != tDone {
					t.state = tBlockedJoin
					t.joinTarget = target
					return // retry when woken
				}

			case mir.OpHook:
				h := ins.Hook
				args := t.hookArgs[:0]
				for _, a := range h.Args {
					switch a.Kind {
					case mir.HookConst:
						args = append(args, uint64(a.Const))
					case mir.HookReg:
						args = append(args, regs[a.Reg])
					case mir.HookRegMeta:
						if track {
							args = append(args, shadow[a.Reg])
						} else {
							args = append(args, 0)
						}
					case mir.HookThread:
						args = append(args, tid)
					}
				}
				m.hookCalls++
				m.hookPer[h.HandlerID]++
				if f := m.cfg.Faults.HandlerPanicNth; f != 0 && m.hookCalls == f {
					m.faultsFired++
					m.cfg.Trace.Instant("vm", "fault.handler_panic", m.cfg.TraceTID)
					panic(fmt.Sprintf("injected fault: handler panic at hook dispatch #%d (%s)", f, h.Name))
				}
				r := m.Handlers[h.HandlerID](m, tid, args)
				if h.MetaDst != mir.NoReg && track {
					shadow[h.MetaDst] = r
				}

			case mir.OpNop:
				// nothing
			default:
				m.failf(KindTrap, "invalid opcode %s", ins.Op)
				return
			}
			fr.pc++
		}
	}
}

func (m *Machine) wakeLockWaiters(lock uint64) {
	for _, t := range m.threads {
		if t.state == tBlockedLock && t.waitLock == lock {
			t.state = tRunnable
		}
	}
}

func (m *Machine) wakeJoiners(doneID int) {
	for _, t := range m.threads {
		if t.state == tBlockedJoin && t.joinTarget == doneID {
			t.state = tRunnable
		}
	}
}
