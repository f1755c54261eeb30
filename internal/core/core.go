// Package core couples the pieces of the ALDA system — ALDAcc
// compilation (internal/compiler), event-handler insertion
// (internal/instrument) and execution (internal/vm) — into the
// end-to-end pipeline everything else builds on: the public alda
// package, the CLI tools and the benchmark harness.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// RunOptions control one VM execution.
type RunOptions struct {
	Seed     int64
	MaxSteps uint64
	Quantum  int
	// MaxHeapBytes / Deadline are the vm.Config resource budgets; zero
	// means unbounded (beyond the address space / no wall-clock cap).
	MaxHeapBytes uint64
	Deadline     time.Duration
	// Faults is forwarded to the VM for deterministic fault injection.
	Faults vm.FaultSpec
	// Engine selects the VM execution tier. The zero value defers to
	// the analysis' compiled configuration (Options.Engine), so matrix
	// sweeps carry the tier in their NamedOptions while explicit
	// callers (CLI -engine flags) override per run.
	Engine vm.Engine

	// Metrics, when non-nil, receives the run's observability counters
	// after a successful run (VM op/hook/scheduler counts, container
	// traffic, profile counts). Failed runs report nothing: their
	// partial counters would differ between a run that trapped and one
	// that was retried, breaking determinism of merged metrics.
	Metrics *obs.Shard
	// TimeHooks additionally records per-handler cumulative nanoseconds
	// (volatile counters; leave off for deterministic -virtual runs).
	TimeHooks bool
	// Trace, when non-nil, receives VM quantum/fault trace events,
	// tagged with TraceTID.
	Trace    *obs.Trace
	TraceTID int64

	// TraceSink, when non-nil, records the run as a compressed replay
	// trace (interpreter-only; see vm.Config.TraceSink). RecordTrace is
	// the usual entry point.
	TraceSink io.Writer
	// ReplayTrace, when non-nil, re-executes a recorded trace instead of
	// running live (the interpreter takes its inputs from the trace,
	// whatever Engine says; see vm.Config.Replay). The same decoded trace
	// may feed concurrent runs.
	ReplayTrace *trace.Trace
}

// resolveEngine picks the execution tier for a run: an explicit
// RunOptions.Engine wins, otherwise the tier compiled into the
// analysis configuration applies (EngineInterp for plain runs).
func (o RunOptions) resolveEngine(a *compiler.Analysis) vm.Engine {
	if o.Engine != vm.EngineInterp || a == nil {
		return o.Engine
	}
	return a.Opts.Engine
}

func (o RunOptions) vmConfig(track bool) vm.Config {
	return vm.Config{
		Seed:         o.Seed,
		MaxSteps:     o.MaxSteps,
		Quantum:      o.Quantum,
		TrackShadow:  track,
		Engine:       o.Engine,
		MaxHeapBytes: o.MaxHeapBytes,
		Deadline:     o.Deadline,
		Faults:       o.Faults,
		TimeHooks:    o.TimeHooks,
		Trace:        o.Trace,
		TraceTID:     o.TraceTID,
		TraceSink:    o.TraceSink,
		Replay:       o.ReplayTrace,
	}
}

// hookName labels handler id for metrics keys; ids beyond the known
// name table (baselines, plain runs) fall back to a numeric label.
func hookName(names []string, id int) string {
	if id < len(names) {
		return names[id]
	}
	return fmt.Sprintf("h%d", id)
}

func addNZ(s *obs.Shard, key string, v uint64) {
	if v != 0 {
		s.Add(key, v)
	}
}

// observe flattens a finished machine's counters (and, when available,
// the runtime's container traffic and member-access profile) into the
// options' metrics shard. Keys under vm.*, meta.* and profile.* are
// deterministic for -virtual runs; vm.hook.*.ns is volatile.
func observe(o RunOptions, m *vm.Machine, names []string, rt *compiler.Runtime) {
	s := o.Metrics
	if s == nil {
		return
	}
	mm := m.Metrics()
	var steps uint64
	for op, n := range mm.Ops {
		if n == 0 {
			continue
		}
		steps += n
		s.Add("vm.op."+mir.Op(op).String(), n)
	}
	s.Add("vm.steps", steps)
	s.Add("vm.sched.quanta", mm.Quanta)
	s.Add("vm.sched.ctx_switches", mm.CtxSwitches)
	addNZ(s, "vm.faults.fired", mm.FaultsFired)
	for id, n := range mm.HookCalls {
		if n != 0 {
			s.Add("vm.hook."+hookName(names, id)+".calls", n)
		}
	}
	for id, ns := range mm.HookNS {
		if ns != 0 {
			s.AddVolatile("vm.hook."+hookName(names, id)+".ns", ns)
		}
	}
	if rt == nil {
		return
	}
	for _, gt := range rt.GroupTraffic() {
		pre := "meta." + gt.Label + "."
		addNZ(s, pre+"get", gt.Stats.Gets())
		addNZ(s, pre+"set", gt.Stats.Sets())
		addNZ(s, pre+"iter", gt.Stats.Iters)
		addNZ(s, pre+"rehash", gt.Stats.Rehashes)
		addNZ(s, pre+"cache_hit", gt.Stats.CacheHits)
		addNZ(s, pre+"cache_miss", gt.Stats.CacheMisses)
	}
	for name, c := range rt.Profile().Counts {
		addNZ(s, compiler.ProfileMetricPrefix+name, c)
	}
}

// observeTrace exports a recorded run's stream statistics. Separate
// from observe because recording is the one mode whose interesting
// numbers survive a failed run (the trace does too).
func observeTrace(o RunOptions, m *vm.Machine) {
	s := o.Metrics
	if s == nil {
		return
	}
	ts := m.TraceStats()
	if ts.Bytes == 0 {
		return
	}
	s.Add("vm.trace.bytes", ts.Bytes)
	s.Add("vm.trace.raw_bytes", ts.RawBytes)
	s.Add("vm.trace.events", ts.Events)
	s.Add("vm.trace.batches", ts.Batches)
	s.Add("vm.trace.ratio_milli", uint64(ts.Ratio()*1000))
}

// RunPlain executes an uninstrumented program.
func RunPlain(p *mir.Program, opt RunOptions) (*vm.Result, error) {
	m, err := vm.New(p, opt.vmConfig(false))
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	observe(opt, m, nil, nil)
	observeTrace(opt, m)
	return res, nil
}

// RecordTrace executes the uninstrumented program in record mode and
// returns the encoded replay trace. The trace is returned even when
// the run fails with a verdict-grade RunError — the stream's terminal
// record captures the failure, and replaying it reproduces the same
// error — so callers can record ERR cells too. Infrastructure errors
// (a program that does not link) return nil bytes.
func RecordTrace(p *mir.Program, opt RunOptions) ([]byte, *vm.Result, error) {
	var buf bytes.Buffer
	opt.TraceSink = &buf
	opt.ReplayTrace = nil
	opt.Engine = vm.EngineInterp
	m, err := vm.New(p, opt.vmConfig(false))
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run()
	if err != nil {
		observeTrace(opt, m)
		var re *vm.RunError
		if errors.As(err, &re) {
			return buf.Bytes(), nil, err
		}
		return nil, nil, err
	}
	observe(opt, m, nil, nil)
	observeTrace(opt, m)
	return buf.Bytes(), res, nil
}

// RunAnalysis instruments p with a compiled ALDA analysis and executes
// it: instantiate a fresh runtime, weave the hooks, run.
func RunAnalysis(p *mir.Program, a *compiler.Analysis, opt RunOptions) (*vm.Result, error) {
	inst, err := instrument.Apply(p, a)
	if err != nil {
		return nil, err
	}
	return RunInstrumented(inst, a, opt)
}

// RunInstrumented executes an already-instrumented program under a
// fresh runtime of the analysis. Use this when the same instrumented
// program runs several times (benchmark repetitions) to keep the
// instrumentation cost out of the measured loop.
func RunInstrumented(inst *mir.Program, a *compiler.Analysis, opt RunOptions) (*vm.Result, error) {
	rt, err := a.NewRuntime()
	if err != nil {
		return nil, err
	}
	opt.Engine = opt.resolveEngine(a)
	m, err := vm.New(inst, opt.vmConfig(a.NeedShadow))
	if err != nil {
		return nil, err
	}
	m.Handlers = rt.Handlers()
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	observe(opt, m, a.HandlerNames(), rt)
	return res, nil
}

// RunBaseline executes p under a hand-tuned baseline analysis. The
// factory is invoked per run because baselines are single-use.
func RunBaseline(p *mir.Program, factory func() baselines.Baseline, opt RunOptions) (*vm.Result, error) {
	b := factory()
	inst, err := baselines.InstrumentBaseline(p, b)
	if err != nil {
		return nil, err
	}
	m, err := vm.New(inst, opt.vmConfig(b.NeedShadow()))
	if err != nil {
		return nil, err
	}
	m.Handlers = b.Handlers()
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	observe(opt, m, nil, nil)
	return res, nil
}

// CollectProfile recompiles the analysis with access counters, runs it
// over a training program, and returns the per-member access profile —
// the input to profile-guided coalescing (§3.2.1's future work).
func CollectProfile(a *compiler.Analysis, train *mir.Program, opt RunOptions) (*compiler.Profile, error) {
	popts := a.Opts
	popts.ProfileCollect = true
	pa, err := compiler.CompileProgram(a.Info.Program, popts)
	if err != nil {
		return nil, err
	}
	for k, v := range a.Externals {
		pa.Externals[k] = v
	}
	inst, err := instrument.Apply(train, pa)
	if err != nil {
		return nil, err
	}
	// The profile rides the ordinary metrics pathway: the training run
	// exports profile.member.* counters into a private shard, and the
	// shard flattens back into a Profile — the same counters an external
	// -profile-out file round-trips through.
	popt := opt
	sh := obs.NewShard()
	popt.Metrics = sh
	rt, err := pa.NewRuntime()
	if err != nil {
		return nil, err
	}
	popt.Engine = popt.resolveEngine(pa)
	m, err := vm.New(inst, popt.vmConfig(pa.NeedShadow))
	if err != nil {
		return nil, err
	}
	m.Handlers = rt.Handlers()
	if _, err := m.Run(); err != nil {
		// A MaxSteps budget ending the run is the normal way a BOUNDED
		// profiling quantum finishes (the adaptive loop caps training
		// with exactly this budget): the counters accumulated up to the
		// cutoff are the profile. Every other failure aborts.
		var re *vm.RunError
		if !errors.As(err, &re) || re.Kind != vm.KindStepLimit {
			return nil, err
		}
	}
	observe(popt, m, pa.HandlerNames(), rt)
	if opt.Metrics != nil {
		for k, v := range sh.Counts {
			opt.Metrics.Add(k, v)
		}
		for k, v := range sh.Volatile {
			opt.Metrics.AddVolatile(k, v)
		}
	}
	return compiler.ProfileFromCounts(sh.Counts), nil
}

// RecompileWithProfile rebuilds an analysis under profile-guided
// coalescing. The options come from AdaptOptions, the one path by
// which a profile reaches the compiler; when the profile splits
// nothing, the input analysis is returned unchanged.
func RecompileWithProfile(a *compiler.Analysis, p *compiler.Profile) (*compiler.Analysis, error) {
	res := a.Opts.AdaptOptions(p)
	if !res.Changed {
		return a, nil
	}
	na, err := compiler.CompileProgram(a.Info.Program, res.Opts)
	if err != nil {
		return nil, err
	}
	na.SourceLOC = a.SourceLOC
	for k, v := range a.Externals {
		na.Externals[k] = v
	}
	return na, nil
}

// Overhead returns instrumented wall time normalized to the baseline
// run ("normalized overhead" in every figure of the paper).
func Overhead(instrumented, plain *vm.Result) float64 {
	if plain.Wall <= 0 {
		return 0
	}
	return float64(instrumented.Wall) / float64(plain.Wall)
}

// Validate verifies a program and reports a friendlier error.
func Validate(p *mir.Program) error {
	if err := p.Verify(); err != nil {
		return fmt.Errorf("core: program fails verification: %w", err)
	}
	return nil
}
