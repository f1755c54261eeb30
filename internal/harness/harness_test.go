package harness

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/vm"
	"repro/internal/workloads"
)

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

// TestPairedRounds pins the wall-clock estimator on a fake grid whose
// runners return scripted walls: each leg warms up once in column
// order; the plain leg's warm-up virtual time sets the row's rounds,
// and each leg's how often it runs per round; the legs' order rotates
// from pass to pass and by row; a leg's round time is its fastest run
// of the round; and an overhead is the median of per-round ratios. The
// scripted walls make the minimum of a cell's walls over all rounds
// read differently.
func TestPairedRounds(t *testing.T) {
	// walls[program][col+1] lists one cell's walls, warm-up first, and
	// steps its warm-up's virtual time. p0's 600,000-step plain run
	// makes three rounds, in which 600,000 steps run twice and
	// 3,000,000 once; p1's 2,000,000-step plain run makes two rounds of
	// one run each.
	walls := map[string][3][]time.Duration{
		"p0": {
			{1000, 10, 14, 20, 18, 12, 30}, // fastest per round 10, 18, 12
			{1000, 30, 24, 50, 45, 40, 33}, // 24, 45, 33: ratios 2.4, 2.5, 2.75
			{1000, 40, 36, 33},             // ratios 4, 2, 2.75
		},
		"p1": {
			{1000, 100, 120},
			{1000, 250, 360}, // ratios 2.5, 3
			{1000, 150, 360}, // ratios 1.5, 3
		},
	}
	steps := map[string][3]uint64{
		"p0": {600_000, 600_000, 3_000_000},
		"p1": {2_000_000, 2_000_000, 2_000_000},
	}
	var order []string
	g := gridSpec{
		name:     "paired",
		measured: []string{"m1", "m2"},
		programs: []string{"p0", "p1"},
		runner: func(c Config, program string, col int) (runnerFn, error) {
			n := 0
			return func() (*vm.Result, error) {
				order = append(order, fmt.Sprintf("%s/%d", program, col))
				w := walls[program][col+1][n]
				n++
				return &vm.Result{Steps: steps[program][col+1], Wall: w}, nil
			}, nil
		},
	}
	cfg := Config{Reps: 1, Parallelism: 1, Out: &bytes.Buffer{}}
	tbl, err := cfg.withDefaults().runGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"p0/-1", "p0/0", "p0/1", // warm-up
		"p0/-1", "p0/0", "p0/1", "p0/0", "p0/-1", // round 1
		"p0/1", "p0/-1", "p0/0", "p0/-1", "p0/0", // round 2
		"p0/0", "p0/1", "p0/-1", "p0/-1", "p0/0", // round 3
		"p1/-1", "p1/0", "p1/1", // warm-up
		"p1/0", "p1/1", "p1/-1", // round 1
		"p1/1", "p1/-1", "p1/0", // round 2
	}
	if got := strings.Join(order, " "); got != strings.Join(want, " ") {
		t.Errorf("leg order\n got %s\nwant %s", got, strings.Join(want, " "))
	}
	for i, w := range []struct {
		base      time.Duration
		overheads []float64
	}{
		{12, []float64{2.5, 2.75}},
		{110, []float64{2.75, 2.25}},
	} {
		r := tbl.Rows[i]
		if r.BaseWall != w.base || !slices.Equal(r.Overheads, w.overheads) {
			t.Errorf("%s: base %v overheads %v, want %v and %v", r.Workload, r.BaseWall, r.Overheads, w.base, w.overheads)
		}
	}
}

// TestRoundsAndRepeats pins how many rounds follow a row's warm-up and
// how often a leg runs per round, both from warm-up virtual times
// (steps plus 16 per hook call).
func TestRoundsAndRepeats(t *testing.T) {
	for _, tc := range []struct {
		reps            int
		steps, hooks    uint64
		rounds, repeats int
	}{
		{reps: 3, steps: 10_000_000, rounds: 3, repeats: 1},
		{reps: 1, steps: 300_000, rounds: shortRounds, repeats: 4}, // 900µs over the rounds
		{reps: 5, steps: 300_000, rounds: 5, repeats: 2},
		{reps: 1, steps: 100_000, rounds: shortRounds, repeats: 10},
		{reps: 1, steps: 100_000, hooks: 10_000, rounds: shortRounds, repeats: 4}, // 260µs
		{reps: 1, steps: 30_000, rounds: shortRounds, repeats: maxRepeats},
		{reps: 2, rounds: 2, repeats: 1}, // no virtual time
	} {
		warm := &vm.Result{Steps: tc.steps, HookCalls: tc.hooks}
		rounds := Config{Reps: tc.reps}.rounds(warm)
		if repeats := runsToCover(warm, rounds); rounds != tc.rounds || repeats != tc.repeats {
			t.Errorf("reps=%d steps=%d hooks=%d: %d rounds of %d runs, want %d of %d",
				tc.reps, tc.steps, tc.hooks, rounds, repeats, tc.rounds, tc.repeats)
		}
	}
}

// TestWallClockResumeRemeasuresPlain resumes a wall-clock sweep whose
// checkpoint ends mid-row: the recorded plain cell is measured and
// recorded again, since every round times it, while the recorded
// instrumented cell is restored.
func TestWallClockResumeRemeasuresPlain(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	runs := map[int]int{}
	walls := []time.Duration{10, 20, 30} // by column, plain first
	g := gridSpec{
		name:     "resume",
		measured: []string{"m1", "m2"},
		programs: []string{"p0"},
		runner: func(c Config, program string, col int) (runnerFn, error) {
			return func() (*vm.Result, error) {
				runs[col]++
				return &vm.Result{Steps: 10_000_000, Wall: walls[col+1]}, nil
			}, nil
		},
	}
	sweep := func(resume bool) (*Table, string) {
		var progress bytes.Buffer
		cfg := Config{Reps: 1, Parallelism: 1, CheckpointPath: ckpt, Resume: resume, Progress: &progress}
		tbl, err := cfg.withDefaults().runGrid(g)
		if err != nil {
			t.Fatal(err)
		}
		return tbl, progress.String()
	}
	sweep(false)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(ckpt, []byte(lines[0]+lines[1]), 0o644); err != nil { // p0/base, p0/m1
		t.Fatal(err)
	}
	clear(runs)
	walls[0] = 20 // the restored m1 keeps its recorded 2x
	tbl, progress := sweep(true)
	if want := map[int]int{-1: 2, 1: 2}; !maps.Equal(runs, want) {
		t.Errorf("runs by column %v, want %v", runs, want)
	}
	if !strings.Contains(progress, "p0/m1 resumed") || strings.Count(progress, "resumed") != 1 {
		t.Errorf("progress:\n%s", progress)
	}
	if r := tbl.Rows[0]; r.BaseWall != 20 || !slices.Equal(r.Overheads, []float64{2, 1.5}) {
		t.Errorf("base %v overheads %v, want 20ns and [2 1.5]", r.BaseWall, r.Overheads)
	}
	if data, _ = os.ReadFile(ckpt); strings.Count(string(data), `"cell":"p0/base"`) != 2 {
		t.Errorf("checkpoint lacks the re-measured plain cell:\n%s", data)
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
// fingerprint byte for byte: it keys the compile cache and the
// conformance runner's compiled analyses.
func TestCompilerFingerprintPinned(t *testing.T) {
	want := "cotrue,csetrue,seltrue,fusetrue,g8,sft3,bits512,arr1048576,as268435456"
	if got := compiler.DefaultOptions().Fingerprint(); got != want {
		t.Errorf("fingerprint = %q, want %q", got, want)
	}
}
