package vm

import (
	"fmt"
	"math"

	"repro/internal/mir"
	"repro/internal/trace"
)

// Replay: a machine built with Config.Replay re-executes a recorded run
// on the interpreter loop without re-executing the program's
// environment. Registers, frames, stack pointers, branches, lock state,
// thread lifecycle and hook dispatch are all computed live, so hook
// arguments, report keys and backtraces come out exactly as a live run
// produces them, but the three external inputs are taken from the
// stream instead:
//
//   - the scheduler's quantum decisions (which thread, how many steps),
//     read by RunQuantum from the next batch record,
//   - load values (the memory model is never consulted; stores are
//     no-ops),
//   - library results (model bodies, including rand() and the
//     allocation fault clocks, are skipped entirely).
//
// runThread reads them at the same points where a recording machine
// tees them to the recorder. Every recorded event doubles as a
// divergence check: addresses and operands recomputed at replay must
// match what the recording observed, and any mismatch fails the run
// with a typed "replay divergence" error rather than silently drifting.
// Replaying a trace recorded from the same instrumented program is
// step- and counter-exact; replaying the plain program's trace into an
// instrumented clone preserves the non-hook instruction schedule and
// drives the analysis's hooks live.

// replayState is the per-machine replay context. The *trace.Trace it
// cursors over may be shared with concurrent machines; all mutable
// state lives here.
type replayState struct {
	cur *trace.Cursor
	// thooks is the current quantum's trailing-hook allowance: the hook
	// dispatches the recorded quantum retired after its last non-hook
	// step.
	thooks uint64
	// hooks is m.hookCalls when the slice's budget was last extended.
	hooks uint64
}

// divergef fails the run with a replay-divergence trap. Divergence is
// deliberately KindTrap, not a new error kind: it is a verdict about
// this run, and downstream degraded-cell handling already knows traps.
func (m *Machine) divergef(format string, args ...any) {
	m.failf(KindTrap, "replay divergence: %s", fmt.Sprintf(format, args...))
}

// applyRecordedFail reproduces the recorded run's terminal failure.
func (m *Machine) applyRecordedFail(rec trace.Rec) {
	k, ok := ParseKind(rec.FailKind)
	if !ok {
		k = KindTrap
	}
	m.failf(k, "%s", rec.FailMsg)
}

// replayGrant reads the next batch record: the thread the recorded run
// scheduled and its non-hook step budget, with the trailing-hook
// allowance parked in rp.thooks. It returns tid -1 with m.err set when
// the stream ends, fails or grants a thread that cannot run.
func (m *Machine) replayGrant() (tid, psteps int) {
	rec, err := m.rp.cur.NextRecord()
	if err != nil {
		m.divergef("reading next record: %v", err)
		return -1, 0
	}
	switch rec.Kind {
	case trace.RecFail:
		m.applyRecordedFail(rec)
		return -1, 0
	case trace.RecEnd:
		m.divergef("trace ended (exit %d) while main thread still running", rec.Exit)
		return -1, 0
	}
	if rec.Tid < 0 || rec.Tid >= len(m.threads) {
		m.divergef("quantum for unknown thread %d", rec.Tid)
		return -1, 0
	}
	if m.threads[rec.Tid].state != tRunnable {
		m.divergef("quantum granted to non-runnable thread %d", rec.Tid)
		return -1, 0
	}
	m.rp.thooks, m.rp.hooks = rec.THooks, m.hookCalls
	return rec.Tid, int(min(rec.PSteps, math.MaxInt)) // a corrupt count must not wrap negative
}

// replayExtend returns more budget for a slice that has spent its
// quantum, or 0 to end it; a live slice always ends. A replayed slice
// budgets non-hook steps only, so the hooks retired since the last
// extension are refunded first. Once none are left to refund, the
// non-hook budget is spent and only the recorded trailing hooks may
// still retire, one at a time.
func (m *Machine) replayExtend(ins *linkedInstr) int {
	p := m.rp
	if p == nil {
		return 0
	}
	if n := m.hookCalls - p.hooks; n != 0 {
		p.hooks = m.hookCalls
		return int(n)
	}
	if p.thooks == 0 || ins.Op != mir.OpHook {
		return 0
	}
	p.thooks--
	p.hooks++ // the trailing hook is not refunded
	return 1
}

// replayNext consumes the next event of the current batch, which must
// be of kind want, and returns its value (a load's or library call's
// result). Except for a library call, the event must also carry got:
// the address the loop recomputed for a load, store, lock or unlock, or
// the thread id of a spawn or join. Heap alloc/free events are consumed
// transparently: they re-drive the (deterministic) heap allocator so
// HeapSizeOf and address reuse stay exact, and assert the allocator
// reproduced the recorded addresses. Returns ok=false with m.err set on
// divergence, corruption, or when the stream ends in the recorded run's
// failure terminal (which is then applied verbatim).
func (m *Machine) replayNext(want trace.EvKind, got uint64) (uint64, bool) {
	for {
		ev, err := m.rp.cur.Next()
		if err == trace.ErrBatchDrained {
			// The recording died mid-quantum: the only legal next record
			// is its failure terminal, reproduced here.
			rec, rerr := m.rp.cur.NextRecord()
			if rerr == nil && rec.Kind == trace.RecFail {
				m.applyRecordedFail(rec)
			} else {
				m.divergef("event stream exhausted awaiting %v", want)
			}
			return 0, false
		}
		if err != nil {
			m.divergef("corrupt trace: %v", err)
			return 0, false
		}
		switch ev.Kind {
		case trace.EvAlloc:
			if a := m.heap.alloc(ev.Val); a != ev.Addr {
				m.divergef("allocator produced %#x, trace recorded %#x", a, ev.Addr)
				return 0, false
			}
			continue
		case trace.EvFree:
			m.heap.release(ev.Addr)
			continue
		}
		if ev.Kind != want {
			m.divergef("next event is %v, want %v", ev.Kind, want)
			return 0, false
		}
		rec := ev.Addr
		switch want {
		case trace.EvLib:
			return ev.Val, true
		case trace.EvSpawn, trace.EvJoin:
			rec = ev.Val
		}
		if rec != got {
			m.divergef(replayMismatch[want], got, rec)
			return 0, false
		}
		return ev.Val, true
	}
}

// replayMismatch formats a divergence between the operand the loop
// recomputed and the recorded one, per checked event kind.
var replayMismatch = map[trace.EvKind]string{
	trace.EvLoad:   "load address %#x, trace recorded %#x",
	trace.EvStore:  "store address %#x, trace recorded %#x",
	trace.EvLock:   "lock %#x, trace recorded %#x",
	trace.EvUnlock: "unlock %#x, trace recorded %#x",
	trace.EvSpawn:  "spawned thread %d, trace recorded %d",
	trace.EvJoin:   "join on thread %d, trace recorded %d",
}

// replayCheckTerminal validates the stream's terminal once the main
// thread has returned: the recorded run must have ended the same way.
func (m *Machine) replayCheckTerminal() {
	rec, err := m.rp.cur.NextRecord()
	if err != nil {
		m.divergef("missing terminal record: %v", err)
		return
	}
	switch rec.Kind {
	case trace.RecEnd:
		if rec.Exit != m.main.retVal {
			m.divergef("exit value %d, trace recorded %d", m.main.retVal, rec.Exit)
		}
	case trace.RecFail:
		m.divergef("recorded run failed (%s: %s) but replay completed", rec.FailKind, rec.FailMsg)
	default:
		m.divergef("unreplayed quanta remain after main returned")
	}
}
