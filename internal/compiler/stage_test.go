package compiler_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/analyses"
	"repro/internal/compiler"
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
// with its trailing newline (figbench) and reformatted source — and
// the backend line names the same key for all.
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
	} {
		if got := a.HandlerBackend(); got != want {
			t.Errorf("%s: %s, want %s", name, got, want)
		}
	}
}

// TestClosureReasons: everything outside the staged set builds
// closures, and says why; the MSan cold split is staged. The naive and
// no-CSE cases use MSan, whose ablation points no experiment runs.
func TestClosureReasons(t *testing.T) {
	eraser, msan := analyses.MustSource("eraser"), analyses.MustSource("msan")
	noCSE := compiler.DefaultOptions()
	noCSE.CSE = false
	for _, c := range []struct {
		name, src string
		opts      compiler.Options
		want      string
	}{
		{"msan-naive", msan, compiler.NaiveOptions(), "closures (no staged entry)"},
		{"msan-no-cse", msan, noCSE, "closures (no staged entry)"},
		{"gran4", eraser, compiler.DefaultOptions().WithGranularity(4), "closures (no staged entry)"},
		{"runtime-supplied", eraser + "\nconst EXTRA = 1\n", compiler.DefaultOptions(), "closures (no staged entry)"},
	} {
		if got := mustCompile(t, c.src, c.opts).HandlerBackend(); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := mustCompile(t, msan, compiler.SplitOptions()).HandlerBackend(); !strings.HasPrefix(got, "staged (") {
		t.Errorf("msan-split: %s, want staged (…)", got)
	}
}

// TestSplitColdLayouts: SplitOptions moves exactly the members that
// only per-event handlers touch out of per-access groups — MSan's
// addr2size, and UAF's allocSize alone, in the quickstart and in the
// Figure 5 combination — into a cold page-table group right after the
// group they left. Every other analysis keeps its DefaultOptions plan.
func TestSplitColdLayouts(t *testing.T) {
	quickstart, err := os.ReadFile("../../examples/quickstart/uaf.alda")
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := analyses.Combined(analyses.Fig5Combination...)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]string{"quickstart_uaf": string(quickstart), "combined": fig5}
	for _, n := range analyses.Names() {
		sources[n] = analyses.MustSource(n)
	}
	cold := map[string]string{"msan": "addr2size", "uaf": "allocSize", "quickstart_uaf": "allocSize", "combined": "allocSize"}
	describe := func(lay *compiler.Layout) string {
		var b strings.Builder
		for _, g := range lay.Groups {
			fmt.Fprintf(&b, "%v", g.MemberNames())
			if g.Cold {
				fmt.Fprintf(&b, " cold %s", g.Impl)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	for name, src := range sources {
		full := mustCompile(t, src, compiler.DefaultOptions())
		split := mustCompile(t, src, compiler.SplitOptions())
		member, ok := cold[name]
		if !ok {
			if got, want := split.Plan(), full.Plan(); got != want {
				t.Errorf("%s: split plan differs from full:\n--- split ---\n%s--- full ---\n%s", name, got, want)
			}
			continue
		}
		var want strings.Builder
		for _, g := range full.Layout.Groups {
			if g.Member(member) == nil {
				fmt.Fprintf(&want, "%v\n", g.MemberNames())
				continue
			}
			var rest []string
			for _, n := range g.MemberNames() {
				if n != member {
					rest = append(rest, n)
				}
			}
			fmt.Fprintf(&want, "%v\n[%s] cold pagetable\n", rest, member)
		}
		if got := describe(split.Layout); got != want.String() {
			t.Errorf("%s: split layout\n%swant\n%s", name, got, want.String())
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
