package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// adaptJob is the adaptive-loop test job: an MSan run over a workload
// whose shadow-map traffic dwarfs the allocation-size sidecar, so the
// profiling quantum reliably discovers a cold member and the swap
// actually changes the layout. The injected uninit bug makes the
// verdict non-trivial (reports present), which is what the identity
// assertions are worth running against.
func adaptJob() JobRequest {
	return JobRequest{Tenant: "adapt", Workload: "gcc", Bug: "uninit", Analysis: "msan"}
}

func submitWait(t *testing.T, ts *httptest.Server, req JobRequest) *JobStatus {
	t.Helper()
	code, b := postJob(t, ts, req, "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("submit: code %d, body %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	return &st
}

func resultJSON(t *testing.T, r *JobResult) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeAdaptiveVerdictIdentity: with AdaptAfter=2, jobs 1-2 run the
// profiling build, the key swaps, and jobs 3-5 run the adapted build —
// and every one of the five results is byte-identical to a static
// (non-adaptive) server's result for the same request. Adaptation
// re-selects containers; it never touches verdicts.
func TestServeAdaptiveVerdictIdentity(t *testing.T) {
	_, refTS := startServer(t, Config{Workers: 1, QueueDepth: 64})
	ref := resultJSON(t, submitWait(t, refTS, adaptJob()).Result)
	if !strings.Contains(ref, "uninitialized") && !strings.Contains(ref, "reports") {
		t.Fatalf("reference job produced no reports: %s", ref)
	}

	reg := obs.NewRegistry()
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 64, AdaptAfter: 2, Metrics: reg})
	for i := 0; i < 5; i++ {
		got := resultJSON(t, submitWait(t, ts, adaptJob()).Result)
		if got != ref {
			t.Errorf("job %d (phase %s): result diverged from static server\nstatic:   %s\nadaptive: %s",
				i+1, adaptPhase(i, 2), ref, got)
		}
	}
	if n := reg.Counter("serve.adapt.profiled"); n != 2 {
		t.Errorf("profiled %d jobs, want exactly the quantum (2)", n)
	}
	if n := reg.Counter("serve.adapt.swaps"); n != 1 {
		t.Errorf("swaps = %d, want 1 (the profile must discover the cold sidecar)", n)
	}
}

func adaptPhase(i, quantum int) string {
	if i < quantum {
		return "profiling"
	}
	return "adapted"
}

// TestServeAdaptiveRecovery: the swap is journaled as an adapt record,
// and a restarted server replays it — running the identical adapted
// analysis without re-entering the profiling quantum, with results
// byte-identical to the pre-crash server's.
func TestServeAdaptiveRecovery(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "adapt.jsonl")
	cfg := Config{Workers: 1, QueueDepth: 64, AdaptAfter: 2, JournalPath: jp}

	cfg1 := cfg
	cfg1.Metrics = obs.NewRegistry()
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	var want string
	for i := 0; i < 3; i++ {
		want = resultJSON(t, submitWait(t, ts1, adaptJob()).Result)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"adapt"`) || !strings.Contains(string(data), `"epoch":1`) {
		t.Fatalf("journal lacks the adaptation epoch record:\n%s", data)
	}

	// Restart with the same journal: the adapt record replays, the
	// next job runs adapted immediately (profiled stays 0), and the
	// result matches the pre-crash server's.
	reg2 := obs.NewRegistry()
	cfg2 := cfg
	cfg2.Metrics = reg2
	_, ts2 := startServer(t, cfg2)
	got := resultJSON(t, submitWait(t, ts2, adaptJob()).Result)
	if got != want {
		t.Errorf("post-recovery result diverged\npre-crash: %s\nrecovered: %s", want, got)
	}
	if n := reg2.Counter("serve.adapt.recovered"); n != 1 {
		t.Errorf("recovered %d adaptation epochs, want 1", n)
	}
	if n := reg2.Counter("serve.adapt.profiled"); n != 0 {
		t.Errorf("recovered server re-profiled %d jobs; the replayed epoch should skip the quantum", n)
	}
	if n := reg2.Counter("serve.adapt.swaps"); n != 0 {
		t.Errorf("recovered server re-swapped (%d); the epoch must come from the journal", n)
	}
}

// TestServeAdaptiveJournalFingerprint: a journal written under one
// adaptive configuration must not replay into a server with another —
// the adapt records' meaning depends on the quantum length, and a
// non-adaptive server would silently ignore them.
func TestServeAdaptiveJournalFingerprint(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "adapt.jsonl")
	base := Config{Workers: 1, QueueDepth: 64, AdaptAfter: 2, JournalPath: jp}
	s, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, 3} {
		cfg := base
		cfg.AdaptAfter = bad
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Errorf("AdaptAfter=%d reopened an adapt=2 journal: err=%v", bad, err)
		}
	}
}

// TestRecoverThreadedJobOnInterpreter recovers testdata/
// two_tier_journal.jsonl, written with AdaptAfter 1 by a server that
// still had the closure-threaded tier. Job j1 (engine "interp") is done
// and swapped its compile-affinity key to an adapted layout; j2, the
// same request with engine "threaded", was accepted but never finished.
// The recovered server must restore the adaptation under the key j2
// now maps to, keep j1's status, and run j2 on the interpreter to the
// JobResult that the same request with engine "interp" yields — which
// is also the result the two-tier server journaled for j1.
func TestRecoverThreadedJobOnInterpreter(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "two_tier_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(jp, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 64, AdaptAfter: 1, JournalPath: jp, Metrics: reg})
	if n := reg.Counter("serve.adapt.recovered"); n != 1 {
		t.Fatalf("recovered %d adaptation epochs, want 1", n)
	}
	j1, j2 := s.lookup("j1"), s.lookup("j2")
	if j1 == nil || j2 == nil || j2.req.Options.Engine != "threaded" {
		t.Fatalf("fixture did not recover jobs j1 and threaded j2: %v %v", j1, j2)
	}
	select {
	case <-j2.done:
	case <-time.After(60 * time.Second):
		t.Fatal("recovered threaded job never finished")
	}
	st := j2.snapshot()
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("recovered threaded job: %+v, want done with a result", st)
	}
	if n := reg.Counter("serve.adapt.profiled"); n != 0 {
		t.Errorf("recovered threaded job re-profiled (%d); it must find the restored adaptation", n)
	}
	got := resultJSON(t, st.Result)
	req := j2.req
	req.Options.Engine = "interp"
	if want := resultJSON(t, submitWait(t, ts, req).Result); got != want {
		t.Errorf("recovered threaded job diverged from engine interp\nthreaded: %s\ninterp:   %s", got, want)
	}
	if journaled := resultJSON(t, j1.snapshot().Result); got != journaled {
		t.Errorf("recovered threaded job diverged from the journaled interp result\nthreaded:  %s\njournaled: %s", got, journaled)
	}
}

// TestProfileWindowEvicts: one push past profileWindow drops the oldest
// profile, subtracts its counts from windowSum, and deletes a member
// only that profile carried instead of leaving it at zero.
func TestProfileWindowEvicts(t *testing.T) {
	var st keyAdaptState
	st.pushWindow(map[string]uint64{"evicted": 5, "shared": 100})
	for i := 1; i <= profileWindow; i++ {
		st.pushWindow(map[string]uint64{"shared": uint64(i)})
	}
	if len(st.window) != profileWindow {
		t.Fatalf("window holds %d profiles, want %d", len(st.window), profileWindow)
	}
	if got, want := st.windowSum["shared"], uint64(profileWindow*(profileWindow+1)/2); got != want {
		t.Fatalf("windowSum[shared] = %d, want %d (the sum of the last %d pushes)", got, want, profileWindow)
	}
	if n, ok := st.windowSum["evicted"]; ok {
		t.Fatalf("member of the evicted profile still in windowSum (%d)", n)
	}
}
