package harness

import (
	"bytes"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vm"
)

// TestRetryScheduleDeterministic: the schedule is a pure function of
// the policy — same seed, same waits, every time. No sleeping involved.
func TestRetryScheduleDeterministic(t *testing.T) {
	p := retryPolicy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Budget: 30 * time.Second, Seed: 42}
	var a, b []time.Duration
	for try := 0; try < 8; try++ {
		d1, ok1 := p.delay(try, 0)
		d2, ok2 := p.delay(try, 0)
		if !ok1 || !ok2 {
			t.Fatalf("try %d: schedule exhausted unexpectedly", try)
		}
		a, b = append(a, d1), append(b, d2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("try %d: schedule not deterministic (%v vs %v)", i, a[i], b[i])
		}
	}
}

// TestRetryJitterBounds: each wait lands in [d/2, d] for the pre-jitter
// doubling d, capped at Max — equal jitter keeps a floor under the
// backoff while decorrelating colliding cells.
func TestRetryJitterBounds(t *testing.T) {
	base := 100 * time.Millisecond
	max := 2 * time.Second
	for seed := uint64(0); seed < 50; seed++ {
		p := retryPolicy{Base: base, Max: max, Seed: seed}
		for try := 0; try < 10; try++ {
			pre := base
			for i := 0; i < try; i++ {
				pre *= 2
				if pre >= max {
					pre = max
					break
				}
			}
			d, ok := p.delay(try, 0)
			if !ok {
				t.Fatalf("seed %d try %d: exhausted without a budget", seed, try)
			}
			if d < pre/2 || d > pre {
				t.Fatalf("seed %d try %d: delay %v outside [%v, %v]", seed, try, d, pre/2, pre)
			}
		}
	}
}

// TestRetryDistinctSeedsDecorrelate: two cells with different seeds
// must not share the identical schedule (the thundering-herd fix).
func TestRetryDistinctSeedsDecorrelate(t *testing.T) {
	p1 := retryPolicy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: cellRetrySeed("fig4", "fft/ALDAcc-full")}
	p2 := retryPolicy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: cellRetrySeed("fig4", "fft/base")}
	same := true
	for try := 0; try < 6; try++ {
		d1, _ := p1.delay(try, 0)
		d2, _ := p2.delay(try, 0)
		if d1 != d2 {
			same = false
		}
	}
	if same {
		t.Fatal("distinct cells produced identical jittered schedules")
	}
}

// TestRetryBudgetCutsSchedule: once the accumulated wait would cross
// the budget, the schedule reports exhaustion.
func TestRetryBudgetCutsSchedule(t *testing.T) {
	p := retryPolicy{Base: 100 * time.Millisecond, Max: time.Second, Budget: 300 * time.Millisecond, Seed: 7}
	var spent time.Duration
	waits := 0
	for try := 0; try < 100; try++ {
		d, ok := p.delay(try, spent)
		if !ok {
			break
		}
		spent += d
		waits++
	}
	if spent > p.Budget {
		t.Fatalf("schedule overspent its budget: %v > %v", spent, p.Budget)
	}
	if waits == 0 || waits >= 100 {
		t.Fatalf("waits = %d, want a small positive count bounded by the budget", waits)
	}
}

// TestRetryMaxBackoffCaps: the pre-jitter wait stops doubling at Max
// and never overflows even for absurd try counts.
func TestRetryMaxBackoffCaps(t *testing.T) {
	p := retryPolicy{Base: 100 * time.Millisecond, Max: time.Second, Seed: 3}
	for _, try := range []int{5, 20, 63, 200} {
		d, ok := p.delay(try, 0)
		if !ok {
			t.Fatalf("try %d: exhausted without a budget", try)
		}
		if d <= 0 || d > time.Second {
			t.Fatalf("try %d: delay %v outside (0, Max]", try, d)
		}
	}
	// No Max: deep tries must saturate, not wrap negative.
	pn := retryPolicy{Base: time.Second, Seed: 3}
	if d, ok := pn.delay(200, 0); !ok || d <= 0 {
		t.Fatalf("uncapped deep try: delay %v ok=%v, want positive", d, ok)
	}
}

// TestMeasureCellRetriesUseJitteredSchedule: the sweep path sleeps the
// policy's waits, verified through the clock seam without real sleeps.
func TestMeasureCellRetriesUseJitteredSchedule(t *testing.T) {
	var slept []time.Duration
	oldSleep := retrySleep
	retrySleep = func(d time.Duration) { slept = append(slept, d) }
	defer func() { retrySleep = oldSleep }()

	var attempts atomic.Int64
	cfg := Config{Virtual: true, Parallelism: 1, Retries: 3, Out: &bytes.Buffer{}, KeepGoing: true}
	_, err := cfg.withDefaults().runGrid(fakeGrid(func() (*vm.Result, error) {
		attempts.Add(1)
		return nil, &vm.RunError{Kind: vm.KindDeadline, Msg: "deadline exceeded"}
	}))
	if err != nil {
		t.Fatalf("KeepGoing grid aborted: %v", err)
	}
	if attempts.Load() != 4 {
		t.Fatalf("attempts = %d, want 4 (initial + 3 retries)", attempts.Load())
	}
	if len(slept) != 3 {
		t.Fatalf("sleeps = %d, want 3", len(slept))
	}
	for i, d := range slept {
		pre := 100 * time.Millisecond << i
		if d < pre/2 || d > pre {
			t.Fatalf("sleep %d = %v outside jitter window [%v, %v]", i, d, pre/2, pre)
		}
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
