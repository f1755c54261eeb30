package harness

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vm"
)

// TestRetryScheduleDeterministic: a cell's wait is a pure function of
// its seed — same seed, same wait, every time. No sleeping involved.
func TestRetryScheduleDeterministic(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		seed := retrySplitmix(i)
		if d := retryWait(seed); d != retryWait(seed) {
			t.Fatalf("seed %d: wait not deterministic", seed)
		}
	}
	if cellRetrySeed("fig4", "fft/base") != cellRetrySeed("fig4", "fft/base") {
		t.Fatal("cell seed not deterministic")
	}
}

// TestRetryWait: a cell's one wait lands in [50, 100] ms with both ends
// reachable.
func TestRetryWait(t *testing.T) {
	const lo, hi = 50 * time.Millisecond, 100 * time.Millisecond
	if retryWait(0) != lo || retryWait(uint64(lo)) != hi {
		t.Fatalf("ends: %v and %v, want %v and %v", retryWait(0), retryWait(uint64(lo)), lo, hi)
	}
	for i := uint64(0); i < 1000; i++ {
		seed := retrySplitmix(i)
		if d := retryWait(seed); d < lo || d > hi {
			t.Fatalf("seed %d: wait %v outside [%v, %v]", seed, d, lo, hi)
		}
	}
}

// TestRetryDistinctSeedsDecorrelate: two cells draw different waits, so
// cells that failed together retry apart (the thundering-herd fix).
func TestRetryDistinctSeedsDecorrelate(t *testing.T) {
	if retryWait(cellRetrySeed("fig4", "fft/ALDAcc-full")) == retryWait(cellRetrySeed("fig4", "fft/base")) {
		t.Fatal("distinct cells drew the same wait")
	}
}

// TestMeasureCellRetriesUseJitteredSchedule: the sweep waits the cell's
// own retryWait before its one retry.
func TestMeasureCellRetriesUseJitteredSchedule(t *testing.T) {
	var attempts []time.Time
	cfg := Config{Virtual: true, Parallelism: 1, Out: &bytes.Buffer{}}
	_, err := cfg.withDefaults().runGrid(fakeGrid(func() (*vm.Result, error) {
		attempts = append(attempts, time.Now())
		return nil, &vm.RunError{Kind: vm.KindDeadline, Msg: "deadline exceeded"}
	}))
	wantKind(t, err, vm.KindDeadline)
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d, want 2 (initial + 1 retry)", len(attempts))
	}
	if gap, want := attempts[1].Sub(attempts[0]), retryWait(cellRetrySeed("fake", "p/m")); gap < want {
		t.Fatalf("retried after %v, want at least the cell's wait %v", gap, want)
	}
}

// TestCheckpointWriterSyncBatching: appends survive the batched-sync
// discipline (records readable after close, explicit sync mid-stream
// legal), and the batch counter resets across syncs.
func TestCheckpointWriterSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	w, err := newCheckpointWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < checkpointSyncEvery+3; i++ {
		if err := w.append(checkpointRecord{Grid: "g", Cell: "c", Fp: "fp", WallNS: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			if err := w.sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	recs, err := loadCheckpoint(path, "g", "fp")
	if err != nil {
		t.Fatal(err)
	}
	// Same cell key each time: the last record wins, proving the full
	// stream parsed.
	if rec, ok := recs["c"]; !ok || rec.WallNS != int64(checkpointSyncEvery+2) {
		t.Fatalf("resumed record = %+v ok=%v, want last append", recs["c"], ok)
	}
}
