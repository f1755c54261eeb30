package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestParallelTableDeterminism is the determinism regression test for
// the parallel harness: the same experiment grid, executed serially and
// with eight workers, must render byte-identical tables under virtual
// timing. Cells are keyed and aggregated in a fixed order, so the only
// way this fails is a cell producing different results depending on
// what runs next to it — exactly the shared-state bugs the -race tier
// hunts.
func TestParallelTableDeterminism(t *testing.T) {
	render := func(parallelism int) string {
		var buf bytes.Buffer
		cfg := Config{
			Size:        workloads.SizeTiny,
			Reps:        1,
			Virtual:     true,
			Parallelism: parallelism,
			Out:         &buf,
		}
		if _, err := Fig4(cfg); err != nil {
			t.Fatalf("Fig4 parallelism=%d: %v", parallelism, err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("Fig4 render differs between serial and parallel runs\n--- serial ---\n%s--- parallel=8 ---\n%s", serial, parallel)
	}
}

// TestParallelReportDeterminism runs the same workload+analysis cell
// serially and on eight concurrent goroutines and asserts every run
// files the identical vm.Report set. The cell is Eraser on radiosity
// with the race bug injected, so the report set is nonempty.
func TestParallelReportDeterminism(t *testing.T) {
	eraser, err := analyses.Compile("eraser", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	runCell := func() (string, error) {
		p, err := workloads.BuildBug("radiosity", workloads.SizeTiny, workloads.BugRace)
		if err != nil {
			return "", err
		}
		res, err := core.RunAnalysis(p, eraser, core.RunOptions{})
		if err != nil {
			return "", err
		}
		return vm.FormatReports(res.Reports), nil
	}

	want, err := runCell()
	if err != nil {
		t.Fatal(err)
	}
	if want == "" {
		t.Fatal("expected a nonempty report set from eraser on radiosity+BugRace")
	}

	const workers = 8
	got := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runCell()
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("worker %d report set differs from serial run\n--- serial ---\n%s--- worker ---\n%s", i, want, got[i])
		}
	}
}

// TestForEachCellFirstError asserts the pool reports the error of the
// lowest-indexed failing cell, matching what a serial sweep would have
// hit first, whatever order the workers finish in.
func TestForEachCellFirstError(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		cfg := Config{Parallelism: parallelism}
		err := cfg.forEachCell(16, func(i int) error {
			if i == 3 || i == 11 {
				return errIndexed(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("parallelism=%d: expected an error", parallelism)
		}
		if err.Error() != errIndexed(3).Error() {
			t.Errorf("parallelism=%d: got %v, want %v", parallelism, err, errIndexed(3))
		}
	}
}

type errIndexed int

func (e errIndexed) Error() string { return "cell failed" + string(rune('0'+int(e))) }

// TestCheckpointResumeByteIdentical is the interruption regression
// test: a sweep checkpointed to JSONL, "killed" after N completed cells
// (the checkpoint truncated to its first N records, exactly what a
// mid-grid kill leaves behind), and resumed with Resume must render a
// table byte-identical to an uninterrupted run — and must actually skip
// the N restored cells rather than re-measuring them.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	render := func(path string, resume bool, progress io.Writer) string {
		var buf bytes.Buffer
		cfg := Config{
			Size:           workloads.SizeTiny,
			Reps:           1,
			Virtual:        true,
			Parallelism:    4,
			Out:            &buf,
			CheckpointPath: path,
			Resume:         resume,
			Progress:       progress,
		}
		if _, err := Fig4(cfg); err != nil {
			t.Fatalf("Fig4 (resume=%v): %v", resume, err)
		}
		return buf.String()
	}

	clean := render("", false, nil)
	full := render(ckpt, false, nil)
	if full != clean {
		t.Fatalf("checkpointing changed the rendered table\n--- clean ---\n%s--- checkpointed ---\n%s", clean, full)
	}

	// Simulate the kill: keep only the first 7 completed-cell records.
	const keep = 7
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) <= keep {
		t.Fatalf("checkpoint has only %d records", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:keep], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	var progress bytes.Buffer
	resumed := render(ckpt, true, &progress)
	if resumed != clean {
		t.Errorf("resumed render differs from uninterrupted run\n--- clean ---\n%s--- resumed ---\n%s", clean, resumed)
	}
	if n := strings.Count(progress.String(), "resumed from checkpoint"); n != keep {
		t.Errorf("resumed %d cells from the truncated checkpoint, want %d", n, keep)
	}
}

// TestCheckpointTornTrailingRecord: a kill mid-write leaves a torn last
// line; resume must skip it (and re-measure that cell) instead of
// failing or restoring garbage.
func TestCheckpointTornTrailingRecord(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	render := func(resume bool) string {
		var buf bytes.Buffer
		cfg := Config{
			Size: workloads.SizeTiny, Reps: 1, Virtual: true, Parallelism: 1,
			Out: &buf, CheckpointPath: ckpt, Resume: resume,
		}
		if _, err := Fig4(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	clean := render(false)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2] // half a record, no newline
	if err := os.WriteFile(ckpt, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	if resumed := render(true); resumed != clean {
		t.Errorf("torn checkpoint corrupted the resumed table\n--- clean ---\n%s--- resumed ---\n%s", clean, resumed)
	}
}

// TestCheckpointFingerprintMismatchIgnored: records written under a
// different measurement configuration must not be restored.
func TestCheckpointFingerprintMismatchIgnored(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	w, err := newCheckpointWriter(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(checkpointRecord{Grid: "fig4", Cell: "fft/base", Fp: "size=large reps=9 seed=2 virtual=false", WallNS: 42}); err != nil {
		t.Fatal(err)
	}
	w.close()
	cfg := Config{Size: workloads.SizeTiny, Reps: 1, Virtual: true}
	got, err := loadCheckpoint(ckpt, "fig4", cfg.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("restored %d stale records, want 0", len(got))
	}
}

// TestCheckpointRestoresDegradedCells: a degraded cell recorded in the
// checkpoint resumes as the same ERR(<kind>) entry, and the same error
// beside the complete table, without re-running the faulty cell.
func TestCheckpointRestoresDegradedCells(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	render := func(resume bool, faults func(string, string) vm.FaultSpec) string {
		var buf bytes.Buffer
		cfg := Config{
			Size: workloads.SizeTiny, Reps: 1, Virtual: true, Parallelism: 4,
			Out: &buf, CheckpointPath: ckpt, Resume: resume,
			CellFaults: faults,
		}
		tbl, err := Fig4(cfg)
		wantKind(t, err, vm.KindLibFault)
		if len(tbl.Rows) != len(Fig4Programs) {
			t.Fatalf("rows = %d, want the full figure (%d)", len(tbl.Rows), len(Fig4Programs))
		}
		return buf.String()
	}
	faulty := func(program, column string) vm.FaultSpec {
		if program == "fft" && column == "ALDAcc-full" {
			return vm.FaultSpec{MallocFailNth: 1}
		}
		return vm.FaultSpec{}
	}
	first := render(false, faulty)
	// Resume WITHOUT the fault config: the ERR cell must come back from
	// the checkpoint, proving it was restored rather than re-injected.
	resumed := render(true, nil)
	if first != resumed {
		t.Errorf("degraded cell not restored from checkpoint\n--- first ---\n%s--- resumed ---\n%s", first, resumed)
	}
	if !strings.Contains(resumed, "ERR(LibFault)") {
		t.Errorf("resumed table lost the degraded cell\n%s", resumed)
	}
}
