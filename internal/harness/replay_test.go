package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// replayTestConfig is the deterministic tiny sweep the replay tests
// share: virtual timing makes re-measured and resumed tables
// byte-identical.
func replayTestConfig(dir string) Config {
	return Config{
		Size:        workloads.SizeTiny,
		Virtual:     true,
		Parallelism: 4,
		KeepGoing:   true,
		TraceDir:    filepath.Join(dir, "traces"),
		TraceRecord: true,
	}
}

// TestReplayExperiment runs the record/replay grid end to end: traces
// recorded on first use, every cell green, and a second run (traces
// already on disk, TraceRecord off) renders byte-identically.
func TestReplayExperiment(t *testing.T) {
	dir := t.TempDir()
	cfg := replayTestConfig(dir)
	var out1 bytes.Buffer
	cfg.Out = &out1
	t1, err := Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != len(ReplayPrograms) {
		t.Fatalf("rows: got %d, want %d", len(t1.Rows), len(ReplayPrograms))
	}
	for _, r := range t1.Rows {
		if r.BaseErr != "" {
			t.Fatalf("%s: degraded baseline: %s", r.Workload, r.BaseErr)
		}
		for ci, e := range r.Errs {
			if e != "" {
				t.Fatalf("%s/%s: degraded cell: %s", r.Workload, t1.Columns[ci], e)
			}
		}
	}
	for _, w := range ReplayPrograms {
		if _, err := os.Stat(cfg.tracePath(w)); err != nil {
			t.Fatalf("trace not recorded: %v", err)
		}
	}

	cfg2 := cfg
	cfg2.TraceRecord = false // the directory is complete now
	var out2 bytes.Buffer
	cfg2.Out = &out2
	if _, err := Replay(cfg2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Errorf("virtual replay sweep is not reproducible\n--- first:\n%s\n--- second:\n%s", out1.String(), out2.String())
	}
}

// TestReplayMissingTrace: with TraceRecord off, a missing trace is a
// sweep-level error naming the file, not a degraded cell.
func TestReplayMissingTrace(t *testing.T) {
	dir := t.TempDir()
	cfg := replayTestConfig(dir)
	cfg.TraceRecord = false
	_, err := Replay(cfg)
	if err == nil || !strings.Contains(err.Error(), "missing recorded trace") {
		t.Fatalf("want missing-trace error, got %v", err)
	}
}

// TestResumeRejectsStaleTrace is the checkpoint-staleness regression:
// the fingerprint must incorporate the trace file contents, so a
// checkpoint written against one set of traces is rejected (cells
// re-measure) once a trace is mutated, instead of silently restoring
// measurements of a stream that no longer exists.
func TestResumeRejectsStaleTrace(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.jsonl")
	cfg := replayTestConfig(dir)
	cfg.CheckpointPath = ckpt
	if _, err := Replay(cfg); err != nil {
		t.Fatal(err)
	}
	fpBefore := cfg.withDefaults().fingerprint()
	recs, err := loadCheckpoint(ckpt, "replay", fpBefore)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(ReplayPrograms) * (2*len(ReplayAnalyses) + 1)
	if len(recs) != wantCells {
		t.Fatalf("checkpointed cells: got %d, want %d", len(recs), wantCells)
	}

	// An untouched resume restores every cell.
	var progress bytes.Buffer
	res := cfg
	res.Resume = true
	res.Progress = &progress
	if _, err := Replay(res); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(progress.String(), "resumed from checkpoint"); got != wantCells {
		t.Fatalf("untouched resume restored %d cells, want %d", got, wantCells)
	}

	// Mutate one byte of one recorded trace: the fingerprint must
	// change, and the old records must stop matching.
	path := cfg.tracePath(ReplayPrograms[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fpAfter := cfg.withDefaults().fingerprint()
	if fpAfter == fpBefore {
		t.Fatal("fingerprint ignores trace contents")
	}
	recs, err = loadCheckpoint(ckpt, "replay", fpAfter)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("stale-trace checkpoint still matches %d cells", len(recs))
	}

	// And a resumed sweep against the mutated trace re-measures: no
	// cell may restore from the stale checkpoint.
	progress.Reset()
	if _, err := Replay(res); err != nil {
		// Degraded cells are fine here (the mutated stream may diverge);
		// restoring stale measurements is not.
		t.Logf("resumed sweep degraded (expected with a corrupted trace): %v", err)
	}
	if got := strings.Count(progress.String(), "resumed from checkpoint"); got != 0 {
		t.Fatalf("stale-trace resume restored %d cells from the checkpoint", got)
	}
}

// TestTraceCacheOneEntryPerPath: re-recording a trace file replaces its
// decoded entry in the cache instead of adding a second one, and the
// next load sees the new recording.
func TestTraceCacheOneEntryPerPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trc")
	record := func(w string, mod time.Time) {
		p, err := workloads.Build(w, workloads.SizeTiny)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := core.RecordTrace(p, core.RunOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	entries := func() int {
		traceCache.mu.Lock()
		defer traceCache.mu.Unlock()
		return len(traceCache.m)
	}
	before := entries()
	record("fft", time.Unix(1, 0))
	first, err := loadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := loadTraceFile(path); err != nil || again != first {
		t.Fatalf("unchanged file re-decoded (err %v)", err)
	}
	record("radix", time.Unix(2, 0))
	second, err := loadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || second.ProgFP == first.ProgFP {
		t.Fatal("re-recorded file served from the stale cache entry")
	}
	if got := entries() - before; got != 1 {
		t.Fatalf("cache grew by %d entries for one path, want 1", got)
	}
}
