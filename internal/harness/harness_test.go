package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestGeomean(t *testing.T) {
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{4, 9}); math.Abs(g-6) > 1e-9 {
		t.Fatalf("geomean(4,9) = %v", g)
	}
	if g := geomean([]float64{5}); math.Abs(g-5) > 1e-9 {
		t.Fatalf("geomean(5) = %v", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Fatalf("geomean with zero = %v", g)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "test table",
		Columns: []string{"a", "b"},
		Rows: []Row{
			{Workload: "w1", BaseWall: time.Millisecond, Overheads: []float64{2, 4}},
			{Workload: "w2", BaseWall: 2 * time.Millisecond, Overheads: []float64{4, 8}},
		},
	}
	tbl.computeAverages()
	if tbl.Averages[0] != 3 || tbl.Averages[1] != 6 {
		t.Fatalf("averages = %v", tbl.Averages)
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"test table", "w1", "3.00x", "6.00x", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable3AndTable4(t *testing.T) {
	cfg := Config{Size: workloads.SizeTiny, Reps: 1}
	rows3, err := Table3(cfg)
	if err != nil {
		t.Fatalf("table3: %v", err)
	}
	if len(rows3) != 5 {
		t.Fatalf("table3 rows = %d", len(rows3))
	}
	// The gets() programs split the two implementations; the planted
	// bugs are caught by both.
	for _, r := range rows3 {
		switch r.Program {
		case "fmm", "barnes":
			if r.ALDAHit || !r.HandHit {
				t.Errorf("%s: alda=%v hand=%v", r.Program, r.ALDAHit, r.HandHit)
			}
		default:
			if !r.ALDAHit || !r.HandHit {
				t.Errorf("%s: alda=%v hand=%v", r.Program, r.ALDAHit, r.HandHit)
			}
		}
	}

	rows4, err := Table4(cfg)
	if err != nil {
		t.Fatalf("table4: %v", err)
	}
	if len(rows4) != 8 {
		t.Fatalf("table4 rows = %d", len(rows4))
	}
}

func TestLibSan(t *testing.T) {
	out, err := LibSan(Config{Size: workloads.SizeTiny, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("libsan cases = %d", len(out))
	}
	for _, r := range out {
		if !r.Found {
			t.Errorf("%s missed %s/%s", r.Sanitizer, r.Workload, r.Bug)
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var buf bytes.Buffer
	tbl, err := Fig4(Config{Size: workloads.SizeTiny, Reps: 1, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 || len(tbl.Columns) != 3 {
		t.Fatalf("fig4 shape: %d rows, %d cols", len(tbl.Rows), len(tbl.Columns))
	}
	for _, r := range tbl.Rows {
		for i, o := range r.Overheads {
			if o <= 0 {
				t.Errorf("%s col %d overhead %v", r.Workload, i, o)
			}
		}
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("missing title")
	}
}

func TestFig5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	var buf bytes.Buffer
	tbl, err := Fig5(Config{Size: workloads.SizeTiny, Reps: 1, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 || len(tbl.Columns) != 7 {
		t.Fatalf("fig5 shape: %d rows, %d cols", len(tbl.Rows), len(tbl.Columns))
	}
	// Combined must beat the sum on average (the §6.4.2 claim).
	if tbl.Averages[6] >= tbl.Averages[4] {
		t.Errorf("combined (%0.2f) not faster than sum (%0.2f)", tbl.Averages[6], tbl.Averages[4])
	}
}

func TestPGOSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tbl, err := PGO(Config{Size: workloads.SizeTiny, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 || len(tbl.Columns) != 2 {
		t.Fatalf("pgo shape: %d rows %d cols", len(tbl.Rows), len(tbl.Columns))
	}
}

func TestMemSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	rows, err := Mem(Config{Size: workloads.SizeTiny, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("mem rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HandBytes == 0 || r.ALDABytes == 0 {
			t.Errorf("%s: zero footprint", r.Workload)
		}
		ratio := float64(r.ALDABytes) / float64(r.HandBytes)
		if r.SplitBytes > 0 {
			ratio = float64(r.SplitBytes) / float64(r.HandBytes)
		}
		if ratio > 2.5 {
			t.Errorf("%s: footprint ratio %.2f too far from parity", r.Workload, ratio)
		}
	}
}

func TestGranularitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tbl, err := Granularity(Config{Size: workloads.SizeTiny, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 || len(tbl.Columns) != 4 {
		t.Fatalf("gran shape: %d rows %d cols", len(tbl.Rows), len(tbl.Columns))
	}
}

// TestTimedRuns pins how many timed runs a wall-clock cell takes: Reps
// when they already cover minTimedVirtual, enough to cover it when they
// do not, and never more than maxTimedRuns.
func TestTimedRuns(t *testing.T) {
	c := Config{Reps: 3}
	for _, tc := range []struct {
		steps, hooks uint64
		want         int
	}{
		{steps: 10_000_000, want: 3},
		{steps: 300_000, want: 10},
		{steps: 100_000, hooks: 10_000, want: 12}, // 260k virtual
		{steps: 30_000, want: maxTimedRuns},
		{want: 3},
	} {
		if got := c.timedRuns(&vm.Result{Steps: tc.steps, HookCalls: tc.hooks}); got != tc.want {
			t.Errorf("steps=%d hooks=%d: %d timed runs, want %d", tc.steps, tc.hooks, got, tc.want)
		}
	}
}

func TestFig3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tbl, err := Fig3(Config{Size: workloads.SizeTiny, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 20 || len(tbl.Columns) != 2 {
		t.Fatalf("fig3 shape: %d rows %d cols", len(tbl.Rows), len(tbl.Columns))
	}
	for _, r := range tbl.Rows {
		for i, o := range r.Overheads {
			if o <= 1.0 {
				t.Errorf("%s col %d: overhead %.2f <= 1 (instrumentation cannot be free)", r.Workload, i, o)
			}
		}
	}
}

// TestCompilerFingerprintPinned pins the default compiler options
// fingerprint byte for byte, "pcfalse" and ",enginterp" included, so
// that fingerprints recorded by earlier builds, such as the keys of
// journaled adapt records, still compare equal.
func TestCompilerFingerprintPinned(t *testing.T) {
	want := "cotrue,csetrue,seltrue,fusetrue,pcfalse,g8,sft3,bits512,arr1048576,as268435456,enginterp"
	if got := compiler.DefaultOptions().Fingerprint(); got != want {
		t.Errorf("fingerprint = %q, want %q", got, want)
	}
}
