package conformance

import (
	"os"
	"testing"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/mir"
)

// adaptConformAnalyses are the adaptive axis's analyses: the
// profile-guided showcase (msan: hot shadow map + cold size sidecar),
// a pure-shadow analysis (uaf) and a map-heavy one with external calls
// (fasttrack). Every shipped analysis runs the static axes in
// TestConform; the adaptive axis needs the container-shape classes,
// not the full roster.
var adaptConformAnalyses = []string{"msan", "uaf", "fasttrack"}

// TestAdaptConform is the adaptive-PGO conformance sweep (`make
// adapt-conform` runs it at 200 seeds): for every generated workload,
// adapting to the workload's own profile must not change any verdict,
// and neither must the profiling build that collects the profile.
func TestAdaptConform(t *testing.T) {
	r := NewRunner()
	for seed := uint64(0); seed < uint64(*conformSeeds); seed++ {
		seed := seed
		w := Generate(seed)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, name := range adaptConformAnalyses {
				ms, err := r.CheckAdaptive(w, name)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range ms {
					t.Errorf("%s", m)
				}
			}
		})
	}
}

// adaptivePerturbedFails builds the shrinker fail predicate for the
// perturbed adapted compiler: uaf's verdicts under the (perturbed)
// profile-adapted compile must differ from the static full build. The
// adapted options — and with them the training profile — stay FIXED
// while ddmin shrinks the program: the divergence is a property of the
// adapted compile, and recomputing the profile from ever-smaller
// candidates would chase a moving target.
func adaptivePerturbedFails(t *testing.T, r *Runner, adapted compiler.Options) func(*mir.Program) bool {
	t.Helper()
	src, err := analyses.Source("uaf")
	if err != nil {
		t.Fatal(err)
	}
	a, err := compiler.Compile(src, adapted) // compiled once, perturbed
	if err != nil {
		t.Fatal(err)
	}
	analyses.RegisterExternals(a)
	full := compiler.DefaultOptions()
	return func(p *mir.Program) bool {
		ref, err1 := r.RunProg(p, "uaf", full, 1)
		res, rerr := core.RunAnalysis(p, a, core.RunOptions{Seed: 1, MaxSteps: r.MaxSteps})
		got, err2 := outcomeOf(res, rerr)
		return err1 == nil && err2 == nil && !got.equal(ref)
	}
}

// TestShrinkAdaptiveDivergence closes the debugging loop for the new
// axis: a deliberately broken adapted compile (profile-carrying group
// templates perturbed through the test-only hook) must be caught by
// CheckAdaptive and shrunk to a tiny reproducer that survives the
// testdata round trip.
func TestShrinkAdaptiveDivergence(t *testing.T) {
	// Seed 3 is the smallest shape whose uaf profile has a genuinely
	// cold member (allocSize: 3 accesses vs freed's 151), so the
	// adaptation performs a real cold split for the hook to corrupt.
	// uaf is the verdict-sensitive target: the perturbed template marks
	// untouched granules freed, so every load asserts.
	w := GenerateCfg(3, GenConfig{Actions: 12, Uniform: true, Bugs: true})

	// Train on the unperturbed compiler: the profile (and the Changed
	// adaptation it induces) is the fixture the perturbation corrupts.
	prof, err := NewRunner().profileOf(w, "uaf")
	if err != nil {
		t.Fatal(err)
	}
	ares := compiler.DefaultOptions().AdaptOptions(prof)
	if !ares.Changed {
		t.Fatalf("training workload produced no cold split; profile: %v", prof)
	}

	compiler.TestPerturbAdaptedTemplates = true
	defer func() { compiler.TestPerturbAdaptedTemplates = false }()
	// Fresh runner: its memo must only ever see the perturbed compiler,
	// and conformance never touches the process-global compile cache.
	r := NewRunner()

	ms, err := r.CheckAdaptive(w, "uaf")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("perturbed adapted templates not caught by the adaptive axis")
	}

	fails := adaptivePerturbedFails(t, r, ares.Opts)
	if !fails(w.Prog) {
		t.Fatal("fail predicate does not reproduce on the full workload")
	}
	shrunk := Shrink(w.Prog, fails)
	if !fails(shrunk) {
		t.Fatal("shrunk program no longer fails")
	}
	if err := shrunk.Verify(); err != nil {
		t.Fatalf("shrunk program fails verification: %v", err)
	}
	if n := shrunk.InstrCount(); n > 20 {
		t.Fatalf("shrunk to %d instructions, want <= 20:\n%s", n, shrunk.String())
	}
	t.Logf("shrunk to %d instructions:\n%s", shrunk.InstrCount(), shrunk.String())

	dir := t.TempDir()
	path, err := WriteRepro(dir, ms[0], shrunk)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := mir.ParseText(string(data))
	if err != nil {
		t.Fatalf("repro does not re-parse: %v", err)
	}
	if !fails(back) {
		t.Fatal("re-parsed repro no longer fails")
	}
}
