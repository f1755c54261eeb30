package perf

import (
	"io"
	"testing"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// quickstartUAFProgram is the quickstart workload shape — malloc a
// buffer, write it in a loop, free it, touch it again — with the write
// loop scaled up so the machine reaches a steady state with many
// scheduler quanta before the use-after-free at the end.
func quickstartUAFProgram() *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(64))
	b.Loop(mir.C(1<<16), func(i mir.Reg) {
		idx := b.Bin(mir.OpAnd, mir.R(i), mir.C(7))
		off := b.Mul(mir.R(idx), mir.C(8))
		addr := b.Add(mir.R(buf), mir.R(off))
		b.Store(mir.R(addr), mir.R(i), 8)
		b.Load(mir.R(addr), 8)
	})
	b.CallVoid("free", mir.R(buf))
	b.Store(mir.R(buf), mir.C(99), 8) // the bug
	b.RetVal(mir.C(0))
	return p
}

// startUAFMachine compiles the UAF analysis, instruments the quickstart
// workload, starts a machine with the given extra config, and warms it
// up so steady-state quanta can be measured.
func startUAFMachine(t *testing.T, tweak func(*vm.Config)) *vm.Machine {
	t.Helper()
	a, err := analyses.Compile("uaf", compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inst, err := instrument.Apply(quickstartUAFProgram(), a)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	rt, err := a.NewRuntime()
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	cfg := vm.Config{TrackShadow: a.NeedShadow}
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := vm.New(inst, cfg)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	m.Handlers = rt.Handlers()
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	// Warm up: materialize container entries, memory chunks and pools.
	for i := 0; i < 64; i++ {
		if !m.RunQuantum() {
			t.Fatal("workload finished during warmup")
		}
	}
	return m
}

// TestQuantumAllocFree asserts a full instrumented vm.Machine quantum —
// dispatch, hook argument marshalling and the compiled UAF handler
// bodies — allocates nothing once warm, both live and when the
// interpreter replays a recorded trace. This is the end-to-end version
// of the per-container guarantees in internal/meta, and it is also the
// observability-disabled proof: the opcode, per-hook and scheduler
// counters are unconditional plain fields that increment on this path,
// so "compiled in but switched off" costs zero allocations.
func TestQuantumAllocFree(t *testing.T) {
	tr, err := trace.Decode(recordTraceBytes(quickstartUAFProgram()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, leg := range []struct {
		name  string
		tweak func(*vm.Config)
	}{
		{"interp", func(c *vm.Config) {}},
		{"replay", func(c *vm.Config) { c.Replay = tr }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			m := startUAFMachine(t, leg.tweak)
			if avg := testing.AllocsPerRun(100, func() {
				if !m.RunQuantum() {
					t.Fatal("workload finished during measurement")
				}
			}); avg != 0 {
				t.Fatalf("%v allocs per instrumented quantum, want 0", avg)
			}
			// Drain to completion: the run must still find the planted UAF.
			for m.RunQuantum() {
			}
			res, err := m.Finish()
			if err != nil {
				t.Fatalf("finish: %v", err)
			}
			if len(res.Reports) == 0 {
				t.Fatal("instrumented run lost the use-after-free finding")
			}
		})
	}
}

// TestQuantumAllocObservabilityEnabled bounds the other side of the
// bargain: with a live Chrome-trace sink a quantum may allocate, but
// only O(1): the span's kv slice and number formatting, independent of
// how many instructions or hook dispatches the quantum retires. The
// trace line itself is built in a reused buffer under the Trace lock.
func TestQuantumAllocObservabilityEnabled(t *testing.T) {
	t.Run("interp", func(t *testing.T) {
		trace := obs.NewTrace(io.Discard)
		defer trace.Close()
		m := startUAFMachine(t, func(c *vm.Config) { c.Trace = trace })
		avg := testing.AllocsPerRun(100, func() {
			if !m.RunQuantum() {
				t.Fatal("workload finished during measurement")
			}
		})
		if avg > 8 {
			t.Fatalf("%v allocs per quantum with observability enabled, want O(1) (<= 8)", avg)
		}
	})
}

// TestRepeatReportAllocFree pins the promise of vm.Machine.Report's doc
// comment: once a finding is filed, filing it again allocates nothing,
// both from a hook site (the dispatch/report bench's workload, one
// repeat per loop iteration) and outside any dispatch (the AtExit path).
func TestRepeatReportAllocFree(t *testing.T) {
	m, err := startReportMachine()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // the first filing allocates its Report
		if !m.RunQuantum() {
			t.Fatal("workload finished during warmup")
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if !m.RunQuantum() {
			t.Fatal("workload finished during measurement")
		}
	}); avg != 0 {
		t.Fatalf("%v allocs per quantum of repeat filings, want 0", avg)
	}
	rs := m.Reports()
	if len(rs) != 1 || rs[0].Count < 100 {
		t.Fatalf("reports = %v, want one finding filed on every dispatch", rs)
	}

	m.Report("bench", "outside a dispatch", 0, 0)
	if avg := testing.AllocsPerRun(100, func() {
		m.Report("bench", "outside a dispatch", 0, 0)
	}); avg != 0 {
		t.Fatalf("%v allocs per repeat filing outside a dispatch, want 0", avg)
	}
	if rs := m.Reports(); len(rs) != 2 || rs[1].Count != 102 {
		t.Fatalf("reports = %v, want the outside finding counted 102 times", rs)
	}
}
