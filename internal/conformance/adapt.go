package conformance

import (
	"errors"
	"fmt"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/vm"
)

// The adaptive axis closes the adaptive-PGO loop as a conformance
// property: for any workload, profiling it, folding its own profile
// through compiler.AdaptOptions, and running the adapted recompile
// must reproduce the static full configuration's outcome byte for
// byte — reports, exit value and error kind. The profiling build
// itself (access counters enabled) is a second leg under the same
// identity, so neither half of the adaptive loop can perturb verdicts.

// profileOf collects w's per-member access profile for one analysis by
// running the ProfileCollect build with a private metrics shard. The
// collecting build is memoized through the Runner's local compile memo
// (never the process-wide cache: conformance perturbs compilation via
// test hooks the global fingerprint knows nothing about). A run that
// dies with a VM verdict (trap, budget) yields the empty profile — the
// adaptive loop degrades to static selection exactly as the harness
// does for unusable profiles.
func (r *Runner) profileOf(w *Workload, name string) (*compiler.Profile, error) {
	opts := compiler.DefaultOptions()
	opts.ProfileCollect = true
	a, err := r.analysis(name, opts)
	if err != nil {
		return nil, err
	}
	sh := obs.NewShard()
	_, rerr := core.RunAnalysis(w.Prog, a, core.RunOptions{
		Seed: r.SchedSeeds[0], MaxSteps: r.MaxSteps, Metrics: sh,
	})
	if rerr != nil {
		var re *vm.RunError
		if !errors.As(rerr, &re) {
			return nil, fmt.Errorf("%s/%s profile: %w", w.Name, name, rerr)
		}
		return &compiler.Profile{}, nil
	}
	return compiler.ProfileFromCounts(sh.Counts), nil
}

// runAdapted compiles and runs a profile-carrying configuration
// WITHOUT memoizing it: adapted options embed a per-workload profile
// hash, so memoizing them would grow the Runner's compile memo without
// bound across a 200-seed sweep or a long fuzz run. Each adapted
// compile is used exactly once here; callers that reuse one (the
// shrinker's fail predicate) compile it themselves.
func (r *Runner) runAdapted(p *mir.Program, name string, opts compiler.Options, seed int64) (outcome, error) {
	src, err := analyses.Source(name)
	if err != nil {
		return outcome{}, err
	}
	a, err := compiler.Compile(src, opts)
	if err != nil {
		return outcome{}, fmt.Errorf("conformance: compile adapted %s: %w", name, err)
	}
	analyses.RegisterExternals(a)
	res, rerr := core.RunAnalysis(p, a, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps})
	return outcomeOf(res, rerr)
}

// CheckAdaptive runs the adaptive conformance axis for one workload and
// one analysis: static reference vs profiling build vs profile-adapted
// recompile.
func (r *Runner) CheckAdaptive(w *Workload, name string) ([]Mismatch, error) {
	seed := r.SchedSeeds[0]
	prof, err := r.profileOf(w, name)
	if err != nil {
		return nil, err
	}
	full := compiler.DefaultOptions()
	ref, err := r.runOne(w, name, full, seed)
	if err != nil {
		return nil, err
	}
	var ms []Mismatch
	check := func(leg string, got outcome) {
		if !got.equal(ref) {
			ms = append(ms, Mismatch{
				Workload: w.Name, Seed: w.Seed, Analysis: name,
				Property: "adaptive", Ref: "full", Got: leg,
				Detail: diff(ref, got),
			})
		}
	}
	// The profiling build (counters on, layout static) must not perturb
	// verdicts either — it runs real traffic during the harness's and
	// server's quantum.
	collect := full
	collect.ProfileCollect = true
	got, err := r.runOne(w, name, collect, seed)
	if err != nil {
		return nil, err
	}
	check("full-collect", got)
	ares := full.AdaptOptions(prof)
	if !ares.Changed {
		// No cold member: the adapted options fingerprint-equal the
		// static ones, so the leg is the reference by construction.
		return ms, nil
	}
	if got, err = r.runAdapted(w.Prog, name, ares.Opts, seed); err != nil {
		return nil, err
	}
	check("full-adapted", got)
	return ms, nil
}
