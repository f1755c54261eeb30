package conformance

import (
	"sync"
	"testing"

	"repro/internal/compiler"
)

// fuzzRunner is shared across fuzz iterations: compilation is the
// expensive part and the compiled-analysis memo is seed-independent.
var (
	fuzzOnce   sync.Once
	fuzzShared *Runner
)

func fuzzR() *Runner {
	fuzzOnce.Do(func() { fuzzShared = NewRunner() })
	return fuzzShared
}

// The staged variants compile once per process for both handler
// backends (CompileStagedPairs toggles a compiler hook, so it runs
// under the Once, before any leg of this process compiles in parallel).
var (
	fuzzStagedOnce  sync.Once
	fuzzStagedPairs []StagedPair
	fuzzStagedErr   error
)

func fuzzStaged() ([]StagedPair, error) {
	fuzzStagedOnce.Do(func() { fuzzStagedPairs, fuzzStagedErr = CompileStagedPairs() })
	return fuzzStagedPairs, fuzzStagedErr
}

// fuzzConfigs is a trimmed ablation matrix for fuzzing throughput: the
// two extremes and the layout-only middle. The full matrix (including
// granularity sweeps and fusion) runs in TestConform; the fuzzer's job
// is to explore generator seeds, not configurations.
var fuzzConfigs = []compiler.NamedOptions{
	{Name: "full", Opts: compiler.DefaultOptions()},
	{Name: "dsonly", Opts: compiler.DSOnlyOptions()},
	{Name: "naive", Opts: compiler.NaiveOptions()},
}

// fuzzAnalyses covers each handler shape class once: map-heavy with
// external calls (fasttrack), pure-shadow bit analysis (uaf), state
// machine over heap objects (sslsan), and value propagation
// (tainttrack).
var fuzzAnalyses = []string{"fasttrack", "uaf", "sslsan", "tainttrack"}

// FuzzConformance feeds arbitrary generator seeds through a trimmed
// differential check: every analysis must produce identical verdicts
// at every optimization level, and every staged variant must match the
// closure emitter byte for byte. The generator maps any uint64 to a
// verifier-clean workload, so the whole seed space is valid input.
func FuzzConformance(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(22))   // shape that exposed the fasttrack join bug
	f.Add(uint64(1337)) // threaded + uniform
	// Dispatch shapes: workloads that branch into long runs of pure
	// arithmetic, report from a hook in the middle of one, and expire
	// the scheduler quantum inside one.
	f.Add(uint64(38))  // single-threaded, bug report amid pure arithmetic
	f.Add(uint64(62))  // multi-threaded + uniform: branchy blocks under the granularity sweep
	f.Add(uint64(179)) // largest multi-threaded reporter: quantum expiry at every switch
	// Adaptive-leg shapes: msan profiles with a genuinely cold addr2size
	// member, so AdaptOptions performs a real cold split and the adapted
	// recompile is a different layout than the static reference.
	f.Add(uint64(3))  // single-threaded + zlib-uninit bug: adapted layout must reproduce the reports
	f.Add(uint64(4))  // multi-threaded, sub-word accesses, ssl-misuse bug
	f.Add(uint64(21)) // multi-threaded with two planted bugs (uaf + zlib-uninit)
	// Staged-leg shapes: workloads on which staged variants report, so
	// the staged handlers' report, assert-count and container-traffic
	// paths are compared against the closures, not just their silence.
	f.Add(uint64(9))  // multi-threaded, sub-word: eraser, msan, strictalias and both combinations report
	f.Add(uint64(44)) // multi-threaded: eraser and tainttrack report through the fused combination
	f.Add(uint64(45)) // single-threaded, sub-word: strictalias, uaf and zlibsan report
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := Generate(seed)
		r := fuzzR()
		vmSeed := r.SchedSeeds[0]
		for _, name := range fuzzAnalyses {
			ref, err := r.runOne(w, name, fuzzConfigs[0].Opts, vmSeed)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range fuzzConfigs[1:] {
				got, err := r.runOne(w, name, c.Opts, vmSeed)
				if err != nil {
					t.Fatal(err)
				}
				if !got.equal(ref) {
					t.Errorf("%s/%s ablation: %s vs %s:\n%s",
						w.Name, name, fuzzConfigs[0].Name, c.Name, diff(ref, got))
				}
			}
		}
		// Staged leg: every staged variant, staged handlers against the
		// closure emitter at the same configuration.
		pairs, err := fuzzStaged()
		if err != nil {
			t.Fatal(err)
		}
		ms, err := r.CheckStaged(w, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			t.Errorf("%s", m)
		}
		// Adaptive leg (msan only — the profile-guided showcase; one
		// analysis keeps the adapted compiles, which are never memoized,
		// from dominating fuzz throughput): the workload's own profile
		// folds through AdaptOptions and the adapted recompile must
		// reproduce the static verdict.
		prof, err := r.profileOf(w, "msan")
		if err != nil {
			t.Fatal(err)
		}
		full := fuzzConfigs[0].Opts
		ares := full.AdaptOptions(prof)
		if !ares.Changed {
			return // fingerprint-identical to the static build
		}
		ref, err := r.runOne(w, "msan", full, vmSeed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.runAdapted(w.Prog, "msan", ares.Opts, vmSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.equal(ref) {
			t.Errorf("%s/msan adaptive: full vs full-adapted:\n%s", w.Name, diff(ref, got))
		}
	})
}
