package conformance

import (
	"fmt"
	"strings"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/vm"
)

// The staged leg: every staged variant runs each workload on both
// handler backends — the checked-in staged table and the closure
// emitter over the same configuration — and the two must agree
// byte-for-byte on everything a run exposes: canonical reports, exit
// value, RunError kind, RuntimeStats, every group's container Stats
// and MetadataBytes. The closure leg exists only because the test-only
// compiler.TestForceClosures hook withholds the staged table.

// StagedPair is one staged variant compiled for both backends.
type StagedPair struct {
	Name             string
	Staged, Closures *compiler.Analysis
}

// CompileStagedPairs compiles every staged variant twice. It toggles
// compiler.TestForceClosures, so call it before other goroutines
// compile.
func CompileStagedPairs() ([]StagedPair, error) {
	var out []StagedPair
	for _, v := range analyses.StagedVariants() {
		src, err := analyses.Combined(v.Analyses...)
		if err != nil {
			return nil, err
		}
		compile := func() (*compiler.Analysis, error) {
			a, err := compiler.Compile(src, v.Opts.Opts)
			if err != nil {
				return nil, fmt.Errorf("conformance: compile %s: %w", v.Name, err)
			}
			analyses.RegisterExternals(a)
			return a, nil
		}
		staged, err := compile()
		if err != nil {
			return nil, err
		}
		if !staged.Staged() {
			return nil, fmt.Errorf("conformance: staged variant %s compiles to %s (run `make staged`)", v.Name, staged.HandlerBackend())
		}
		compiler.TestForceClosures = true
		closures, err := compile()
		compiler.TestForceClosures = false
		if err != nil {
			return nil, err
		}
		out = append(out, StagedPair{Name: v.Name, Staged: staged, Closures: closures})
	}
	return out, nil
}

// backendRun runs p under a fresh runtime of a and renders every
// observable the staged leg compares.
func (r *Runner) backendRun(p *mir.Program, a *compiler.Analysis, seed int64) (string, error) {
	inst, err := instrument.Apply(p, a)
	if err != nil {
		return "", err
	}
	rt, err := a.NewRuntime()
	if err != nil {
		return "", err
	}
	m, err := vm.New(inst, vm.Config{Seed: seed, MaxSteps: r.MaxSteps, TrackShadow: a.NeedShadow})
	if err != nil {
		return "", err
	}
	m.Handlers = rt.Handlers()
	o, err := outcomeOf(m.Run())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nruntime=%+v metadata_bytes=%d\n", o, rt.Stats(), rt.MetadataBytes())
	for _, gt := range rt.GroupTraffic() {
		fmt.Fprintf(&b, "%s %+v\n", gt.Label, gt.Stats)
	}
	return b.String(), nil
}

// CheckStaged runs w on both backends of every pair.
func (r *Runner) CheckStaged(w *Workload, pairs []StagedPair) ([]Mismatch, error) {
	var ms []Mismatch
	seed := r.SchedSeeds[0]
	for _, p := range pairs {
		ref, err := r.backendRun(w.Prog, p.Closures, seed)
		if err != nil {
			return nil, fmt.Errorf("%s/%s-closures: %w", w.Name, p.Name, err)
		}
		got, err := r.backendRun(w.Prog, p.Staged, seed)
		if err != nil {
			return nil, fmt.Errorf("%s/%s-staged: %w", w.Name, p.Name, err)
		}
		if got != ref {
			ms = append(ms, Mismatch{
				Workload: w.Name, Seed: w.Seed, Analysis: p.Name,
				Property: "staged", Ref: "closures", Got: "staged",
				Detail: "--- closures:\n" + ref + "\n--- staged:\n" + got,
			})
		}
	}
	return ms, nil
}
