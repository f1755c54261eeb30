package perf

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/trace"
	"repro/internal/vm"
)

// traceProgram is the bounded twin of the dispatch access loop: finite,
// so one full record or replay run is one benchmark operation. 4096
// iterations keeps a run in the hundreds of microseconds — long enough
// that per-event trace cost dominates machine setup.
func traceProgram() *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(512))
	b.Loop(mir.C(1<<12), func(i mir.Reg) {
		idx := b.Bin(mir.OpAnd, mir.R(i), mir.C(63))
		off := b.Mul(mir.R(idx), mir.C(8))
		addr := b.Add(mir.R(buf), mir.R(off))
		b.Store(mir.R(addr), mir.R(i), 8)
		b.Load(mir.R(addr), 8)
	})
	b.RetVal(mir.C(0))
	return p
}

// recordTraceBytes records traceProgram's plain run once for the
// decode and replay fixtures.
func recordTraceBytes(p *mir.Program) []byte {
	var buf bytes.Buffer
	m, err := vm.New(p, vm.Config{TraceSink: &buf, MaxSteps: 1 << 30})
	if err != nil {
		panic(fmt.Sprintf("perf: trace fixture vm: %v", err))
	}
	if _, err := m.Run(); err != nil {
		panic(fmt.Sprintf("perf: trace fixture run: %v", err))
	}
	return buf.Bytes()
}

// traceBenches measures record and replay end to end: recording a
// plain run to a discarded sink, decoding the compressed stream, and
// replaying it into a uaf-instrumented clone (hooks dispatch live, the
// environment comes from the trace). Each op is one full run.
func traceBenches() []Bench {
	return []Bench{
		{"trace/record", func() func(int) {
			p := traceProgram()
			return func(n int) {
				for i := 0; i < n; i++ {
					m, err := vm.New(p, vm.Config{TraceSink: io.Discard, MaxSteps: 1 << 30})
					if err != nil {
						panic(fmt.Sprintf("perf: trace/record vm: %v", err))
					}
					if _, err := m.Run(); err != nil {
						panic(fmt.Sprintf("perf: trace/record run: %v", err))
					}
				}
			}
		}},
		{"trace/decode", func() func(int) {
			data := recordTraceBytes(traceProgram())
			return func(n int) {
				for i := 0; i < n; i++ {
					if _, err := trace.Decode(data); err != nil {
						panic(fmt.Sprintf("perf: trace/decode: %v", err))
					}
				}
			}
		}},
		{"trace/replay/uaf", func() func(int) {
			p := traceProgram()
			tr, err := trace.Decode(recordTraceBytes(p))
			if err != nil {
				panic(fmt.Sprintf("perf: trace/replay decode: %v", err))
			}
			a, err := analyses.Compile("uaf", compiler.DefaultOptions())
			if err != nil {
				panic(fmt.Sprintf("perf: trace/replay compile: %v", err))
			}
			analyses.RegisterExternals(a)
			inst, err := instrument.Apply(p, a)
			if err != nil {
				panic(fmt.Sprintf("perf: trace/replay instrument: %v", err))
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					rt, err := a.NewRuntime()
					if err != nil {
						panic(fmt.Sprintf("perf: trace/replay runtime: %v", err))
					}
					m, err := vm.New(inst, vm.Config{Replay: tr, TrackShadow: a.NeedShadow, MaxSteps: 1 << 30})
					if err != nil {
						panic(fmt.Sprintf("perf: trace/replay vm: %v", err))
					}
					m.Handlers = rt.Handlers()
					if _, err := m.Run(); err != nil {
						panic(fmt.Sprintf("perf: trace/replay run: %v", err))
					}
				}
			}
		}},
	}
}
