package compiler_test

import (
	"strings"
	"testing"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/vm"
)

func mustCompile(t *testing.T, src string, opts compiler.Options) *compiler.Analysis {
	t.Helper()
	a, err := compiler.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestStagedKeyHits: the staged entry is found from every spelling of a
// staged configuration — the raw source (harness), the Combined text
// with its trailing newline (figbench), reformatted source, and either
// VM engine — and the backend line names the same key for all.
func TestStagedKeyHits(t *testing.T) {
	raw := analyses.MustSource("eraser")
	combined, err := analyses.Combined("eraser")
	if err != nil {
		t.Fatal(err)
	}
	reformatted := "// a comment the printer drops\n" + strings.ReplaceAll(raw, "    ", "\t")
	want := mustCompile(t, raw, compiler.DefaultOptions()).HandlerBackend()
	if !strings.HasPrefix(want, "staged (") {
		t.Fatalf("eraser at DefaultOptions: %s", want)
	}
	for name, a := range map[string]*compiler.Analysis{
		"combined":    mustCompile(t, combined, compiler.DefaultOptions()),
		"reformatted": mustCompile(t, reformatted, compiler.DefaultOptions()),
		"threaded":    mustCompile(t, raw, compiler.DefaultOptions().WithEngine(vm.EngineThreaded)),
	} {
		if got := a.HandlerBackend(); got != want {
			t.Errorf("%s: %s, want %s", name, got, want)
		}
	}
}

// TestClosureReasons: everything outside the staged set builds
// closures, and says why.
func TestClosureReasons(t *testing.T) {
	eraser := analyses.MustSource("eraser")
	noCSE := compiler.DefaultOptions()
	noCSE.CSE = false
	profiling := compiler.DefaultOptions()
	profiling.ProfileCollect = true
	adapted := compiler.DefaultOptions().AdaptOptions(&compiler.Profile{Counts: map[string]uint64{
		"addr2Lock": 1000, "addr2Thread": 1000, "addr2Status": 1, "thread2Lock": 1000, "thread2WLock": 1000,
	}})
	if !adapted.Changed {
		t.Fatal("profile did not adapt the layout")
	}
	for _, c := range []struct {
		name, src string
		opts      compiler.Options
		want      string
	}{
		{"naive", eraser, compiler.NaiveOptions(), "closures (no staged entry)"},
		{"no-cse", eraser, noCSE, "closures (no staged entry)"},
		{"gran4", eraser, compiler.DefaultOptions().WithGranularity(4), "closures (no staged entry)"},
		{"runtime-supplied", eraser + "\nconst EXTRA = 1\n", compiler.DefaultOptions(), "closures (no staged entry)"},
		{"profiling", eraser, profiling, "closures (profiling build)"},
		{"adapted", eraser, adapted.Opts, "closures (adapted layout)"},
	} {
		if got := mustCompile(t, c.src, c.opts).HandlerBackend(); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestStagedKeyCoversTemplates: a perturbed entry template is a
// different layout, so the perturbation hooks the conformance shrinkers
// rely on always run on closures.
func TestStagedKeyCoversTemplates(t *testing.T) {
	compiler.TestPerturbCoalescedTemplates = true
	defer func() { compiler.TestPerturbCoalescedTemplates = false }()
	if got := mustCompile(t, analyses.MustSource("uaf"), compiler.DefaultOptions()).HandlerBackend(); got != "closures (no staged entry)" {
		t.Errorf("perturbed uaf: %s", got)
	}
}
