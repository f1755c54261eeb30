package compiler_test

import (
	"strings"
	"testing"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

// msanLike has a hot shadow map and a cold allocation-size sidecar with
// the same key type — the §3.2.1 false-grouping case.
const msanLike = `
address := pointer
size := int64
v := int8
label = universe::map(address, v)
sizes = map(address, size)
onMalloc(address p, size n) {
    label.set(p, 0, n);
    sizes[p] = n;
}
onLoad(address p) {
    alda_assert(label[p], 0, "uninit");
}
insert after func malloc call onMalloc($r, $1)
insert after LoadInst call onLoad($1)
`

func TestProfileGuidedCoalescing(t *testing.T) {
	base, err := compiler.Compile(msanLike, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Statically both maps share the address key: one group.
	if len(base.Layout.Groups) != 1 {
		t.Fatalf("static groups = %d, want 1", len(base.Layout.Groups))
	}

	train := workloads.MustBuild("libquantum", workloads.SizeTiny)
	prof, err := core.CollectProfile(base, train, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Counts["label"] == 0 {
		t.Fatalf("profile missing hot member: %v", prof.Counts)
	}
	if prof.Counts["label"] <= prof.Counts["sizes"]*16 {
		t.Fatalf("expected label ≫ sizes: %v", prof.Counts)
	}
	if !strings.Contains(prof.String(), "label") {
		t.Error("profile rendering broken")
	}

	pgo, err := core.RecompileWithProfile(base, prof)
	if err != nil {
		t.Fatal(err)
	}
	// The cold sizes map splits into its own group.
	if len(pgo.Layout.Groups) != 2 {
		t.Fatalf("pgo groups = %d, want 2:\n%s", len(pgo.Layout.Groups), pgo.Plan())
	}
	var hotWords int
	for _, g := range pgo.Layout.Groups {
		if g.Member("label") != nil {
			hotWords = g.EntryWords
		}
	}
	if hotWords != 1 {
		t.Fatalf("hot group entry = %d words, want 1 (sizes split out)", hotWords)
	}

	// Behavior must be identical with and without the profile.
	for _, a := range []*compiler.Analysis{base, pgo} {
		rt, err := a.NewRuntime()
		if err != nil {
			t.Fatal(err)
		}
		inst := mustInstrument(t, a)
		m := mustMachine(t, inst, a.NeedShadow)
		m.Handlers = rt.Handlers()
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Reports) != 0 {
			t.Fatalf("reports: %v", res.Reports)
		}
	}
}

func TestProfileHotWhenAllEqual(t *testing.T) {
	// Equal counts: nothing splits.
	base, err := compiler.Compile(msanLike, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof := &compiler.Profile{Counts: map[string]uint64{"label": 100, "sizes": 100}}
	pgo, err := core.RecompileWithProfile(base, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(pgo.Layout.Groups) != 1 {
		t.Fatalf("equal-profile groups = %d, want 1", len(pgo.Layout.Groups))
	}
}

// TestAllHotProfileKeepsStaged: a profile that splits nothing leaves
// the analysis as it was, staged handlers included. Only a profile that
// changes the layout (TestProfileGuidedCoalescing) recompiles it.
func TestAllHotProfileKeepsStaged(t *testing.T) {
	msan, err := analyses.Compile("msan", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := msan.HandlerBackend()
	if !strings.HasPrefix(want, "staged (") {
		t.Fatalf("msan at DefaultOptions: %s", want)
	}
	counts := map[string]uint64{}
	for _, g := range msan.Layout.Groups {
		for _, m := range g.Members {
			counts[m.Meta.Name] = 100
		}
	}
	pgo, err := core.RecompileWithProfile(msan, &compiler.Profile{Counts: counts})
	if err != nil {
		t.Fatal(err)
	}
	if got := pgo.HandlerBackend(); got != want {
		t.Fatalf("all-hot profile: %s, want %s", got, want)
	}
}
