package analyses

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/vm"
)

func TestNamesAndSources(t *testing.T) {
	names := Names()
	want := []string{"eraser", "fasttrack", "msan", "sslsan", "strictalias", "tainttrack", "uaf", "zlibsan"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		src, err := Source(n)
		if err != nil || src == "" {
			t.Errorf("source %s: %v", n, err)
		}
	}
	if _, err := Source("bogus"); err == nil {
		t.Error("no error for unknown analysis")
	}
}

func TestCompileEachWithEveryConfig(t *testing.T) {
	for _, n := range Names() {
		for _, opts := range []compiler.Options{
			compiler.DefaultOptions(), compiler.DSOnlyOptions(), compiler.NaiveOptions(),
		} {
			a, err := Compile(n, opts)
			if err != nil {
				t.Errorf("compile %s: %v", n, err)
				continue
			}
			if _, err := a.NewRuntime(); err != nil {
				t.Errorf("runtime %s: %v", n, err)
			}
		}
	}
}

func TestCombinedSourcesCompile(t *testing.T) {
	a, err := CompileCombined(compiler.DefaultOptions(), "eraser", "fasttrack", "uaf", "tainttrack")
	if err != nil {
		t.Fatalf("combined: %v", err)
	}
	// The combined analysis must coalesce the four analyses'
	// address-keyed maps into fewer groups than the sum of parts.
	var addrGroups int
	for _, g := range a.Layout.Groups {
		if g.KeyType != nil && g.KeyType.Name == "address" {
			addrGroups++
		}
	}
	if addrGroups != 1 {
		t.Errorf("address-keyed groups in combined analysis = %d, want 1", addrGroups)
	}
}

// TestPlanSavesNothingWithoutCSE: at every ablation point, each handler
// line of the plan saves at most as many lookups as it has sites, and
// with CSE off, where every access does its own lookup, it saves none,
// for the eight analyses and the Figure 5 combination alike.
func TestPlanSavesNothingWithoutCSE(t *testing.T) {
	subjects := [][]string{Fig5Combination}
	for _, n := range Names() {
		subjects = append(subjects, []string{n})
	}
	for _, names := range subjects {
		for _, point := range compiler.AblationMatrix() {
			a, err := CompileCombined(point.Opts, names...)
			if err != nil {
				t.Fatal(err)
			}
			lines := 0
			for _, line := range strings.Split(a.Plan(), "\n") {
				rest, ok := strings.CutPrefix(line, "handler ")
				if !ok {
					continue
				}
				lines++
				_, counts, _ := strings.Cut(rest, ": ")
				var sites, saved int
				if _, err := fmt.Sscanf(counts, "%d access sites, %d lookups saved by CSE+coalescing", &sites, &saved); err != nil {
					t.Fatalf("%s, %s: %q: %v", strings.Join(names, "+"), point.Name, line, err)
				}
				if saved > sites || !point.Opts.CSE && saved != 0 {
					t.Errorf("%s, %s (cse=%v): %s", strings.Join(names, "+"), point.Name, point.Opts.CSE, line)
				}
			}
			if lines == 0 {
				t.Errorf("%s, %s: plan has no handler line", strings.Join(names, "+"), point.Name)
			}
		}
	}
}

func TestCombinedUnknownName(t *testing.T) {
	if _, err := Combined("eraser", "nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTable4LOCBounds(t *testing.T) {
	// The ALDA sources must stay the size class the paper reports
	// (tens to low hundreds of lines, not thousands).
	for _, n := range Names() {
		src := MustSource(n)
		loc := compiler.CountLOC(src)
		if loc < 5 || loc > 250 {
			t.Errorf("%s: %d LOC out of the expected band", n, loc)
		}
	}
}

func TestFastTrackExternalsSemantics(t *testing.T) {
	ext := FastTrackExternals()
	m := &vm.Machine{} // state key only; externals don't touch the machine
	epoch := func(tid uint64) uint64 { return ext["ft_epoch"](m, []uint64{tid}) }
	hb := func(e, tid uint64) uint64 { return ext["ft_hb"](m, []uint64{e, tid}) }

	// Fresh threads: epoch of t0 = (1<<8)|0.
	if e := epoch(0); e != 1<<8 {
		t.Fatalf("epoch(0) = %#x", e)
	}
	// No prior access always happens-before.
	if hb(0, 1) != 1 {
		t.Fatal("hb(0, ...) must be 1")
	}
	// t0's epoch does not happen-before t1 yet.
	e0 := epoch(0)
	if hb(e0, 1) != 0 {
		t.Fatal("unsynchronized epochs must not be ordered")
	}
	// After t0 releases lock L and t1 acquires it, it does.
	ext["ft_release"](m, []uint64{77, 0})
	ext["ft_acquire"](m, []uint64{77, 1})
	if hb(e0, 1) != 1 {
		t.Fatal("release/acquire must order epochs")
	}
	// Fork orders parent's past with the child.
	e1 := epoch(1)
	ext["ft_fork"](m, []uint64{1, 2})
	if hb(e1, 2) != 1 {
		t.Fatal("fork must order parent with child")
	}
	// Join orders child's past with the parent.
	e2 := epoch(2)
	ext["ft_join"](m, []uint64{1, 2})
	if hb(e2, 1) != 1 {
		t.Fatal("join must order child with parent")
	}
	// Release bumps the releasing thread's clock.
	before := epoch(3)
	ext["ft_release"](m, []uint64{88, 3})
	if epoch(3) <= before {
		t.Fatal("release must advance the clock")
	}
}

func TestSourcesContainPaperStructure(t *testing.T) {
	// Eraser keeps the paper's four-state machine and lockset
	// intersections.
	src := MustSource("eraser")
	for _, want := range []string{"SHARED_MODIFIED", "addr2Lock[addr] & thread2Lock[t]", "universe::map"} {
		if !strings.Contains(src, want) {
			t.Errorf("eraser source missing %q", want)
		}
	}
	// MSan keeps the six Listing 2 insertion points.
	msan := MustSource("msan")
	for _, want := range []string{"insert after AllocaInst", "insert after LoadInst",
		"insert before BranchInst", "$1.m", "sizeof($r)"} {
		if !strings.Contains(msan, want) {
			t.Errorf("msan source missing %q", want)
		}
	}
}

// TestStagedHandlersCurrent is the staleness gate of the staged
// handler table: regenerating it from the embedded sources (so any
// .alda edit counts) must reproduce the checked-in file byte for byte,
// and the output must already be gofmt-clean.
func TestStagedHandlersCurrent(t *testing.T) {
	want, err := StagedSource()
	if err != nil {
		t.Fatal(err)
	}
	if formatted, err := format.Source(want); err != nil || !bytes.Equal(formatted, want) {
		t.Fatalf("generated staged source is not gofmt-clean (err %v)", err)
	}
	got, err := os.ReadFile("../compiler/staged_handlers.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/compiler/staged_handlers.go is stale: run `make staged` and commit the result")
	}
}
