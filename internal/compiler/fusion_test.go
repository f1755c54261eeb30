package compiler_test

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/mir"
	"repro/internal/vm"
)

const twoAnalyses = `
address := pointer
v := int64
seenA = map(address, v)
aOnLoad(address p) { seenA[p] = seenA[p] + 1; }
insert after LoadInst call aOnLoad($1)

addressB := pointer
w := int64
seenB = map(address, w)
bOnLoad(address q) { seenB[q] = seenB[q] + 2; alda_assert(seenA[q] > 0, 1, "order"); }
insert after LoadInst call bOnLoad($1)
`

func TestFusionMergesSamePointRules(t *testing.T) {
	a, err := compiler.Compile(twoAnalyses, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fused) != 1 {
		t.Fatalf("fused specs = %d, want 1", len(a.Fused))
	}
	if len(a.Rules) != 1 {
		t.Fatalf("rules after fusion = %d, want 1", len(a.Rules))
	}
	r := a.Rules[0]
	// $1 appears in both parts but the fused arg list dedups it.
	if len(r.Args) != 1 {
		t.Fatalf("fused args = %d, want 1 (deduplicated $1)", len(r.Args))
	}
	if r.HandlerID < len(a.Info.HandlerOrder) {
		t.Fatalf("fused rule must use a fused handler id, got %d", r.HandlerID)
	}
	spec := a.Fused[0]
	if len(spec.Parts) != 2 || spec.Parts[0].HandlerName != "aOnLoad" || spec.Parts[1].HandlerName != "bOnLoad" {
		t.Fatalf("parts: %+v", spec.Parts)
	}
	if spec.Parts[0].ArgIdx[0] != 0 || spec.Parts[1].ArgIdx[0] != 0 {
		t.Fatalf("arg mapping: %+v", spec.Parts)
	}
	if !strings.Contains(a.Plan(), "fused hook") {
		t.Error("plan does not mention fusion")
	}
}

func TestFusionPreservesOrderAndSemantics(t *testing.T) {
	// bOnLoad asserts aOnLoad already ran for this event (declaration
	// order), and the fused execution must satisfy it — both with and
	// without fusion.
	for _, fuse := range []bool{true, false} {
		opts := compiler.DefaultOptions()
		opts.FuseHandlers = fuse
		res := runSrc(t, twoAnalyses, opts, loadsProg(5), nil)
		if len(res.Reports) != 0 {
			t.Fatalf("fuse=%v: %d reports", fuse, len(res.Reports))
		}
	}
}

// markCountAlso has three handlers after every load; mark returns a
// label for the load's shadow register.
const markCountAlso = `
address := pointer
label := int64
label mark(address p) { return 7; }
count(address p) { }
also(address p) { }
check(label l) { alda_assert(l, 0, "shadow"); }
insert after LoadInst call mark($1)
insert after LoadInst call count($1)
insert after LoadInst call also($1)
insert before BranchInst call check($1.m)
`

// loadThenBranch loads a value and branches on it, so a BranchInst
// hook reading $1.m sees the shadow register the load's hooks left.
func loadThenBranch() *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(8))
	b.Store(mir.R(buf), mir.C(3), 8)
	v := b.Load(mir.R(buf), 8)
	t1 := b.NewBlock()
	b.CondBr(mir.R(v), t1, t1)
	b.SetBlock(t1)
	b.RetVal(mir.C(0))
	return p
}

func TestFusionCarriesResult(t *testing.T) {
	a, err := compiler.Compile(markCountAlso, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// mark, count and also fuse into one hook that returns mark's value.
	if len(a.Fused) != 1 || len(a.Fused[0].Parts) != 3 || a.Fused[0].Result != "mark" {
		t.Fatalf("fused: %+v", a.Fused)
	}
	if len(a.Rules) != 2 || !a.Rules[0].HasResult || a.Rules[0].HandlerName != a.Fused[0].Name {
		t.Fatalf("rules: %+v", a.Rules)
	}
	if !strings.Contains(a.Plan(), "returns mark's value") {
		t.Errorf("plan does not name the result part:\n%s", a.Plan())
	}
	if a.Staged() {
		t.Fatal("test source unexpectedly staged; this test covers the closure emitter")
	}
	// mark's 7 lands in the load's shadow register, fused or not: check
	// reports it as the branch condition's label.
	for _, opts := range []compiler.Options{compiler.DefaultOptions(), compiler.NoFuseOptions()} {
		res := runSrc(t, markCountAlso, opts, loadThenBranch(), nil)
		if len(res.Reports) != 1 || res.Reports[0].Got != 7 {
			t.Errorf("%s: branch shadow is not mark's 7:\n%s", opts.Fingerprint(), vm.FormatReports(res.Reports))
		}
	}
}

func TestFusionKeepsResultBeforeShadowReader(t *testing.T) {
	// seen reads the load's shadow register after mark writes it. A
	// fused hook marshals $r.m before its first part runs, so mark and
	// seen stay standalone, and count+also still fuse.
	src := `
address := pointer
label := int64
label mark(address p) { return 7; }
count(address p) { }
also(address p) { }
seen(label l) { alda_assert(l, 0, "shadow"); }
insert after LoadInst call count($1)
insert after LoadInst call also($1)
insert after LoadInst call mark($1)
insert after LoadInst call seen($r.m)
`
	a, err := compiler.Compile(src, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Fused) != 1 || a.Fused[0].Name != "fused(count+also)" || a.Fused[0].Result != "" {
		t.Fatalf("fused: %+v", a.Fused)
	}
	var names []string
	for _, r := range a.Rules {
		names = append(names, r.HandlerName)
	}
	if got := strings.Join(names, " "); got != "fused(count+also) mark seen" {
		t.Fatalf("rules = %s, want fused(count+also) mark seen", got)
	}
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(8))
	b.Load(mir.R(buf), 8)
	b.RetVal(mir.C(0))
	for _, opts := range []compiler.Options{compiler.DefaultOptions(), compiler.NoFuseOptions()} {
		res := runSrc(t, src, opts, p, nil)
		if len(res.Reports) != 1 || res.Reports[0].Got != 7 {
			t.Errorf("%s: seen did not read mark's 7:\n%s", opts.Fingerprint(), vm.FormatReports(res.Reports))
		}
	}
}

func TestFusionKeepsStandaloneRuleBetweenParts(t *testing.T) {
	// b uses $p, so it stays standalone between a and c. Fusing a with
	// c would run c's write before b's check; only the runs on either
	// side of b may fuse, and each holds one rule.
	src := `
address := pointer
v := int64
seen = map(address, v)
a(address p) { }
b(address p) { alda_assert(seen[p], 0, "order"); }
c(address p) { seen[p] = 1; }
insert after LoadInst call a($1)
insert after LoadInst call b($p)
insert after LoadInst call c($1)
`
	a, err := compiler.Compile(src, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range a.Rules {
		names = append(names, r.HandlerName)
	}
	if got := strings.Join(names, " "); got != "a b c" {
		t.Fatalf("rules = %s, want a b c", got)
	}
	for _, opts := range []compiler.Options{compiler.DefaultOptions(), compiler.NoFuseOptions()} {
		res := runSrc(t, src, opts, loadsProg(3), nil)
		if len(res.Reports) != 0 {
			t.Errorf("%s: c ran before b:\n%s", opts.Fingerprint(), vm.FormatReports(res.Reports))
		}
	}
}

func TestTwoResultsAtOnePointRejected(t *testing.T) {
	src := `
address := pointer
label := int64
label mark(address p) { return 7; }
label other(address p) { return 8; }
insert after LoadInst call mark($1)
insert after LoadInst call other($1)
`
	for _, opts := range []compiler.Options{compiler.DefaultOptions(), compiler.NoFuseOptions()} {
		if _, err := compiler.Compile(src, opts); err == nil || !strings.Contains(err.Error(), "single shadow register") {
			t.Errorf("%s: two results at one point: err = %v", opts.Fingerprint(), err)
		}
	}
}

func TestFusionSharedLookupsReduceContainerTraffic(t *testing.T) {
	run := func(fuse bool) uint64 {
		opts := compiler.DefaultOptions()
		opts.FuseHandlers = fuse
		a, err := compiler.Compile(twoAnalyses, opts)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := a.NewRuntime()
		if err != nil {
			t.Fatal(err)
		}
		inst := mustInstrument(t, a)
		m := mustMachine(t, inst, a.NeedShadow)
		m.Handlers = rt.Handlers()
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		var lookups uint64
		for _, gt := range rt.GroupTraffic() {
			lookups += gt.Stats.Gets() + gt.Stats.Fills
		}
		return lookups
	}
	fused := run(true)
	unfused := run(false)
	if fused >= unfused {
		t.Fatalf("fusion did not reduce container lookups: %d vs %d", fused, unfused)
	}
}

// msanLike has a per-access shadow map and a per-event allocation-size
// sidecar with the same key type — the §3.2.1 false-grouping case.
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

// Robustness: the compiler must fail cleanly — never panic — on
// arbitrary corruptions of real analysis sources.
func TestCompilerNeverPanicsOnMutatedSources(t *testing.T) {
	seeds := []string{twoAnalyses, msanLike}
	for _, seed := range seeds {
		for cut := 0; cut < len(seed); cut += 7 {
			// Truncations.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on truncation at %d: %v", cut, r)
					}
				}()
				_, _ = compiler.Compile(seed[:cut], compiler.DefaultOptions())
			}()
			// Single-byte deletions.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on deletion at %d: %v", cut, r)
					}
				}()
				_, _ = compiler.Compile(seed[:cut]+seed[cut+1:], compiler.DefaultOptions())
			}()
		}
	}
}
