package harness

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

// Adaptive PGO — the closed loop over the §3.2.1 profile machinery. The
// PGO experiment measures a hand-wired train-then-recompile pipeline;
// this experiment closes the loop the way a deployment would run it:
// the adaptive column spends its first AdaptAfter programs as a
// profiling quantum (static layout plus access counters, the counter
// overhead measured honestly), then the collected profile is folded
// through AdaptOptions into a cached recompile and the adapted analysis
// is hot-swapped in for every remaining cell.
//
// The swap is deterministic and resume-safe by construction: the
// adapted analysis is a pure function of the training workloads and the
// bounded step budget, recomputed identically by whichever cell worker
// first needs it — at any parallelism, and on a resumed sweep that
// restored every profiling cell from its checkpoint.

// AdaptPrograms is the adaptive experiment's workload family: the
// MSan-shaped programs of the PGO study, training program first so the
// default one-program quantum trains on the same workload the PGO
// experiment does.
var AdaptPrograms = []string{"libquantum", "bzip2", "mcf", "hmmer", "fft", "sort", "memcached"}

// adaptAnalysis names the analysis the adaptive loop tunes. MSan is the
// paper's profile-guided showcase: its hot shadow map and cold
// allocation-size sidecar coalesce statically and split under profile.
const adaptAnalysis = "msan"

// adaptMaxSteps bounds each training run the swap recomputes from, in
// VM steps: the quantum must stay a bounded fraction of the sweep
// regardless of workload size. The checkpoint fingerprint names it, so
// changing it invalidates adaptive checkpoints.
const adaptMaxSteps = 1 << 20

// adaptState resolves the adapted analysis exactly once per sweep;
// concurrent cell workers share the resolution through the Once, and
// the compile itself lands in the process-wide compile cache under the
// profile-hashed fingerprint.
type adaptState struct {
	once sync.Once
	a    *compiler.Analysis
	res  compiler.AdaptResult
	err  error
}

// resolve trains (or adopts cfg.PGOProfile), adapts, and compiles the
// swapped-in analysis. Training reruns the quantum programs at tiny
// size under the adaptMaxSteps budget — cheap, bounded, and a pure
// function of the configuration, so a resumed or reordered sweep
// resolves to the identical analysis.
func (st *adaptState) resolve(c Config, static *compiler.Analysis, train []string) (*compiler.Analysis, compiler.AdaptResult, error) {
	st.once.Do(func() {
		prof := c.PGOProfile
		if prof == nil {
			merged := make(map[string]uint64)
			for _, w := range train {
				p, err := workloads.Build(w, workloads.SizeTiny)
				if err != nil {
					st.err = fmt.Errorf("adapt: build training workload %s: %w", w, err)
					return
				}
				opt := c.Opt
				opt.Metrics = nil
				if opt.MaxSteps == 0 || opt.MaxSteps > adaptMaxSteps {
					opt.MaxSteps = adaptMaxSteps
				}
				tp, err := core.CollectProfile(static, p, opt)
				if err != nil {
					st.err = fmt.Errorf("adapt: profiling quantum on %s: %w", w, err)
					return
				}
				for k, v := range tp.Counts {
					merged[k] += v
				}
			}
			prof = &compiler.Profile{Counts: merged}
		}
		st.res = static.Opts.AdaptOptions(prof)
		if !st.res.Changed {
			st.a = static
			return
		}
		st.a, st.err = analyses.Compile(adaptAnalysis, st.res.Opts)
	})
	return st.a, st.res, st.err
}

// Adapt measures the closed adaptive-PGO loop against the full static
// configuration and every fixed ablation point on the MSan workload
// family. With cfg.Adapt off the adaptive column is the no-swap control
// (static analysis throughout).
func Adapt(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	static, err := analyses.Compile(adaptAnalysis, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// A stale -profile-in (wrong analysis, renamed members) must not
	// silently perturb layout: degrade to static selection, loudly.
	if cfg.PGOProfile != nil {
		if err := cfg.PGOProfile.MatchesAnalysis(static); err != nil {
			fmt.Fprintf(cfg.Out, "warning: -profile-in %v: degrading to static selection\n", err)
			cfg.PGOProfile = &compiler.Profile{}
		}
	}
	fixedOpts := []struct {
		name string
		opts compiler.Options
	}{
		{"full", compiler.DefaultOptions()},
		{"nofuse", compiler.NoFuseOptions()},
		{"dsonly", compiler.DSOnlyOptions()},
		{"naive", compiler.NaiveOptions()},
	}
	fixed := make([]*compiler.Analysis, len(fixedOpts))
	names := make([]string, 0, len(fixedOpts)+1)
	for i, fo := range fixedOpts {
		if fixed[i], err = analyses.Compile(adaptAnalysis, fo.opts); err != nil {
			return nil, err
		}
		names = append(names, fo.name)
	}
	names = append(names, "adaptive")
	collectOpts := compiler.DefaultOptions()
	collectOpts.ProfileCollect = true
	profiling, err := analyses.Compile(adaptAnalysis, collectOpts)
	if err != nil {
		return nil, err
	}

	quantum := cfg.AdaptAfter
	if quantum > len(AdaptPrograms) {
		quantum = len(AdaptPrograms)
	}
	train := AdaptPrograms[:quantum]
	programIdx := make(map[string]int, len(AdaptPrograms))
	for i, w := range AdaptPrograms {
		programIdx[w] = i
	}
	st := &adaptState{}

	t, err := cfg.runGrid(gridSpec{
		name: "adapt",
		title: fmt.Sprintf("Adaptive PGO: profiling quantum + hot-swap vs static ablation points, ALDA MSan (size=%s, reps=%d, quantum=%d, swap=%v)",
			cfg.Size, cfg.Reps, quantum, cfg.Adapt),
		measured: names,
		programs: AdaptPrograms,
		runner: func(c Config, w string, col int) (runnerFn, error) {
			switch {
			case col < 0:
				return c.runnerPlain(w)
			case col < len(fixed):
				return c.runnerALDA(fixed[col], w)
			default: // adaptive column
				if !c.Adapt {
					return c.runnerALDA(static, w)
				}
				if programIdx[w] < quantum {
					return c.runnerALDA(profiling, w)
				}
				a, _, err := st.resolve(c, static, train)
				if err != nil {
					return nil, err
				}
				return c.runnerALDA(a, w)
			}
		},
	})
	if err != nil {
		return nil, err
	}

	// Deterministic post-table adaptation report. On a fully resumed
	// sweep no adapted cell forced the resolution, so force it here:
	// the decision log is part of the sweep's byte-identical output.
	if !cfg.Adapt {
		fmt.Fprintf(cfg.Out, "adaptive PGO: swap disabled (-adapt off); the adaptive column ran the static analysis\n\n")
		return t, nil
	}
	_, res, err := st.resolve(cfg, static, train)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Out, "adaptive PGO: quantum=%d program(s) [%s], then hot-swap for the remaining %d\n",
		quantum, strings.Join(train, " "), len(AdaptPrograms)-quantum)
	io.WriteString(cfg.Out, res.DecisionLog())
	fmt.Fprintln(cfg.Out)
	if cfg.Metrics != nil {
		cfg.Metrics.Add("harness.adapt.quantum_cells", uint64(quantum))
		if res.Changed {
			cfg.Metrics.Add("harness.adapt.swaps", 1)
		} else {
			cfg.Metrics.Add("harness.adapt.static_kept", 1)
		}
	}
	return t, nil
}
