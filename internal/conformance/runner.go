package conformance

import (
	"fmt"
	"sync"

	"repro/internal/analyses"
	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/mir"
	"repro/internal/trace"
	"repro/internal/vm"
)

// CombinedNames is the paper's §6.4.2 four-way combination — the one
// set of shipped analyses with no shadow-result conflict (msan and
// tainttrack both claim the load result and cannot combine).
var CombinedNames = analyses.Fig5Combination

// oracles maps analysis names to their hand-written counterparts in
// internal/baselines. Oracle verdicts are the third leg of the
// cross-check: ALDA compilation and hand implementation must agree.
var oracles = map[string]func() baselines.Baseline{
	"eraser": func() baselines.Baseline { return baselines.NewEraser() },
	"msan":   func() baselines.Baseline { return baselines.NewMSan(vm.AddrSpace) },
	"uaf":    func() baselines.Baseline { return baselines.NewUAF() },
}

// Mismatch is one broken invariant: the same workload under the same
// analysis produced different verdicts under two configurations (or
// disagreed with its oracle / its combined form / itself under another
// schedule seed).
type Mismatch struct {
	Workload string
	Seed     uint64
	Analysis string
	Property string // "ablation", "oracle", "schedule", "fusion", "union", "replay", "replay-exact", "staged"
	Ref, Got string // configuration (or leg) names
	Detail   string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s/%s %s: %s vs %s:\n%s", m.Workload, m.Analysis, m.Property, m.Ref, m.Got, m.Detail)
}

// outcome is everything a configuration must reproduce byte-identically.
type outcome struct {
	canon   string // Canon of the report set
	verdict string // VerdictCanon (for oracle legs)
	exit    uint64
	errKind string // RunError kind name, "" on success
}

func (o outcome) String() string {
	return fmt.Sprintf("exit=%d err=%q reports:\n%s", o.exit, o.errKind, o.canon)
}

func (o outcome) equal(p outcome) bool {
	return o.canon == p.canon && o.exit == p.exit && o.errKind == p.errKind
}

func diff(ref, got outcome) string {
	return "--- ref:\n" + ref.String() + "\n--- got:\n" + got.String()
}

// Runner executes workloads across the ablation matrix. It memoizes
// compilation locally instead of using compiler.CachedCompile: the
// process-wide cache keys on Options.Fingerprint only, and conformance
// tests deliberately perturb compilation through test-only hooks the
// fingerprint knows nothing about — a poisoned global cache would leak
// into every other test in the process. Create a fresh Runner after
// toggling any compiler test hook.
type Runner struct {
	// SchedSeeds are the VM scheduler seeds for the schedule-invariance
	// property; SchedSeeds[0] is the seed every other check runs under.
	SchedSeeds []int64
	// MaxSteps bounds every VM execution. Generated workloads finish in
	// thousands of steps, so the default (4M) leaves three orders of
	// magnitude of headroom — enough that instrumentation overhead can
	// never push a legitimate workload over the cap in one config but
	// not another — while shrinker candidates that accidentally build
	// infinite loops fail fast with a deterministic StepLimit error
	// instead of hanging the test binary.
	MaxSteps uint64

	mu       sync.Mutex
	compiled map[string]*compiler.Analysis

	// traces memoizes each workload program's plain recorded trace (one
	// record per workload, fanned out across every replay leg).
	traceMu sync.Mutex
	traces  map[*mir.Program]*trace.Trace
}

// NewRunner returns a Runner with the default schedule seeds.
func NewRunner() *Runner {
	return &Runner{
		SchedSeeds: []int64{1, 7, 1337},
		MaxSteps:   4 << 20,
		compiled:   make(map[string]*compiler.Analysis),
		traces:     make(map[*mir.Program]*trace.Trace),
	}
}

func (r *Runner) analysis(name string, opts compiler.Options) (*compiler.Analysis, error) {
	key := name + "\x00" + opts.Fingerprint()
	r.mu.Lock()
	a := r.compiled[key]
	r.mu.Unlock()
	if a != nil {
		return a, nil
	}
	src, err := analyses.Source(name)
	if err != nil {
		return nil, err
	}
	a, err = compiler.Compile(src, opts)
	if err != nil {
		return nil, fmt.Errorf("conformance: compile %s: %w", name, err)
	}
	analyses.RegisterExternals(a)
	r.mu.Lock()
	r.compiled[key] = a
	r.mu.Unlock()
	return a, nil
}

// combined compiles the concatenation of names under opts (memoized
// like single analyses).
func (r *Runner) combined(opts compiler.Options, names ...string) (*compiler.Analysis, error) {
	key := "combined"
	for _, n := range names {
		key += "+" + n
	}
	key += "\x00" + opts.Fingerprint()
	r.mu.Lock()
	a := r.compiled[key]
	r.mu.Unlock()
	if a != nil {
		return a, nil
	}
	src, err := analyses.Combined(names...)
	if err != nil {
		return nil, err
	}
	a, err = compiler.Compile(src, opts)
	if err != nil {
		return nil, fmt.Errorf("conformance: compile combined: %w", err)
	}
	analyses.RegisterExternals(a)
	r.mu.Lock()
	r.compiled[key] = a
	r.mu.Unlock()
	return a, nil
}

func outcomeOf(res *vm.Result, err error) (outcome, error) {
	var o outcome
	if err != nil {
		re, ok := err.(*vm.RunError)
		if !ok {
			return o, err // infrastructure failure, not a VM verdict
		}
		o.errKind = re.Kind.String()
		return o, nil
	}
	o.canon = Canon(res.Reports)
	o.verdict = VerdictCanon(res.Reports)
	o.exit = res.Exit
	return o, nil
}

// RunProg executes an arbitrary program under one compiled analysis
// configuration — the building block for Check and for shrinker fail
// predicates.
func (r *Runner) RunProg(p *mir.Program, name string, opts compiler.Options, seed int64) (outcome, error) {
	a, err := r.analysis(name, opts)
	if err != nil {
		return outcome{}, err
	}
	res, rerr := core.RunAnalysis(p, a, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps})
	return outcomeOf(res, rerr)
}

// runOne executes w under one compiled analysis configuration.
func (r *Runner) runOne(w *Workload, name string, opts compiler.Options, seed int64) (outcome, error) {
	o, err := r.RunProg(w.Prog, name, opts, seed)
	if err != nil {
		return o, fmt.Errorf("%s/%s: %w", w.Name, name, err)
	}
	return o, nil
}

// runOracle executes w under a hand-written baseline.
func (r *Runner) runOracle(w *Workload, name string, seed int64) (outcome, error) {
	res, rerr := core.RunBaseline(w.Prog, oracles[name], core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps})
	o, err := outcomeOf(res, rerr)
	if err != nil {
		return o, fmt.Errorf("%s/%s-oracle: %w", w.Name, name, err)
	}
	return o, nil
}

// configsFor returns the ablation matrix applicable to w: granularity
// variants only make sense for word-aligned (Uniform) workloads.
func configsFor(w *Workload) []compiler.NamedOptions {
	all := compiler.AblationMatrix()
	if w.Uniform {
		return all
	}
	var out []compiler.NamedOptions
	for _, c := range all {
		if !c.GranularityVariant {
			out = append(out, c)
		}
	}
	return out
}

// CheckAnalysis runs w under every configuration of one analysis plus
// its oracle (if any) and returns the broken invariants.
func (r *Runner) CheckAnalysis(w *Workload, name string) ([]Mismatch, error) {
	var ms []Mismatch
	cfgs := configsFor(w)
	seed := r.SchedSeeds[0]

	ref, err := r.runOne(w, name, cfgs[0].Opts, seed)
	if err != nil {
		return nil, err
	}
	for _, c := range cfgs[1:] {
		got, err := r.runOne(w, name, c.Opts, seed)
		if err != nil {
			return nil, err
		}
		if !got.equal(ref) {
			ms = append(ms, Mismatch{
				Workload: w.Name, Seed: w.Seed, Analysis: name,
				Property: "ablation", Ref: cfgs[0].Name, Got: c.Name,
				Detail: diff(ref, got),
			})
		}
	}

	if factory := oracles[name]; factory != nil {
		oo, err := r.runOracle(w, name, seed)
		if err != nil {
			return nil, err
		}
		if oo.verdict != ref.verdict || oo.exit != ref.exit || oo.errKind != ref.errKind {
			ms = append(ms, Mismatch{
				Workload: w.Name, Seed: w.Seed, Analysis: name,
				Property: "oracle", Ref: cfgs[0].Name, Got: name + "-hand",
				Detail: "--- alda:\n" + ref.verdict + "\n--- hand:\n" + oo.verdict +
					fmt.Sprintf("\n(exit %d vs %d, err %q vs %q)", ref.exit, oo.exit, ref.errKind, oo.errKind),
			})
		}
	}
	return ms, nil
}

// CheckSchedules asserts schedule-seed invariance: generated workloads
// are race-free by construction, so every scheduler seed must yield the
// same verdicts and exit value.
func (r *Runner) CheckSchedules(w *Workload, name string) ([]Mismatch, error) {
	var ms []Mismatch
	opts := compiler.DefaultOptions()
	ref, err := r.runOne(w, name, opts, r.SchedSeeds[0])
	if err != nil {
		return nil, err
	}
	for _, s := range r.SchedSeeds[1:] {
		got, err := r.runOne(w, name, opts, s)
		if err != nil {
			return nil, err
		}
		if !got.equal(ref) {
			ms = append(ms, Mismatch{
				Workload: w.Name, Seed: w.Seed, Analysis: name,
				Property: "schedule",
				Ref:      fmt.Sprintf("vmseed=%d", r.SchedSeeds[0]),
				Got:      fmt.Sprintf("vmseed=%d", s),
				Detail:   diff(ref, got),
			})
		}
	}
	return ms, nil
}

// CheckCombined asserts the two combined-analysis properties of §6.4.2:
// the fused combination equals the unfused one (fusion is transparent),
// and the combination reports exactly the union of its parts.
func (r *Runner) CheckCombined(w *Workload) ([]Mismatch, error) {
	var ms []Mismatch
	seed := r.SchedSeeds[0]
	runCombined := func(opts compiler.Options) (outcome, error) {
		a, err := r.combined(opts, CombinedNames...)
		if err != nil {
			return outcome{}, err
		}
		res, rerr := core.RunAnalysis(w.Prog, a, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps})
		o, err := outcomeOf(res, rerr)
		if err != nil {
			return o, fmt.Errorf("%s/combined: %w", w.Name, err)
		}
		return o, nil
	}

	ref, err := runCombined(compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for _, c := range []compiler.NamedOptions{
		{Name: "nofuse", Opts: compiler.NoFuseOptions()},
		{Name: "dsonly", Opts: compiler.DSOnlyOptions()},
	} {
		got, err := runCombined(c.Opts)
		if err != nil {
			return nil, err
		}
		if !got.equal(ref) {
			ms = append(ms, Mismatch{
				Workload: w.Name, Seed: w.Seed, Analysis: "combined",
				Property: "fusion", Ref: "full", Got: c.Name,
				Detail: diff(ref, got),
			})
		}
	}

	var parts []string
	for _, name := range CombinedNames {
		o, err := r.runOne(w, name, compiler.DefaultOptions(), seed)
		if err != nil {
			return nil, err
		}
		parts = append(parts, o.canon)
	}
	if union := mergeCanon(parts...); union != ref.canon {
		ms = append(ms, Mismatch{
			Workload: w.Name, Seed: w.Seed, Analysis: "combined",
			Property: "union", Ref: "combined", Got: "union-of-singles",
			Detail: "--- combined:\n" + ref.canon + "\n--- union:\n" + union,
		})
	}
	return ms, nil
}

// Check runs every conformance property of one workload across the
// given analyses (all shipped analyses when names is empty).
func (r *Runner) Check(w *Workload, names ...string) ([]Mismatch, error) {
	if len(names) == 0 {
		names = analyses.Names()
	}
	var ms []Mismatch
	for _, name := range names {
		m, err := r.CheckAnalysis(w, name)
		if err != nil {
			return ms, err
		}
		ms = append(ms, m...)
		if w.Threaded {
			m, err = r.CheckSchedules(w, name)
			if err != nil {
				return ms, err
			}
			ms = append(ms, m...)
		}
	}
	return ms, nil
}
