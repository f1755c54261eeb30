package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// loopMIR spins ~20M instructions: long enough that a 1ms deadline
// reliably fires at the VM's clock-check cadence, short enough not to
// drag the suite.
const loopMIR = `
func main(nparams=0, nregs=2) {
b0:
  r0 = const 20000000
  r1 = const 1
  br b1
b1:
  r0 = sub r0, r1
  condbr r0 ? b1 : b2
b2:
  ret r0
}
`

// trapMIR stores far outside any mapped region.
const trapMIR = `
func main(nparams=0, nregs=1) {
b0:
  r0 = const 281474976710656
  store.8 [r0] = 1
  ret r0
}
`

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req any, query string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// TestSubmitWaitDeterministic: a job runs to done with a deterministic
// result — submitting the identical request again yields an identical
// result (virtual time, no wall-clock in the body).
func TestSubmitWaitDeterministic(t *testing.T) {
	_, ts := startServer(t, Config{})
	req := JobRequest{Tenant: "alice", Workload: "memcached", Bug: "uaf", Analysis: "uaf"}

	var results [2]*JobResult
	for i := range results {
		code, b := postJob(t, ts, req, "?wait=1")
		if code != http.StatusOK {
			t.Fatalf("run %d: code %d, body %s", i, code, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Result == nil {
			t.Fatalf("run %d: status %+v", i, st)
		}
		results[i] = st.Result
	}
	a, _ := json.Marshal(results[0])
	b, _ := json.Marshal(results[1])
	if !bytes.Equal(a, b) {
		t.Fatalf("same request, different results:\n%s\n%s", a, b)
	}
	if len(results[0].Reports) == 0 {
		t.Fatal("uaf bug produced no reports")
	}
	if results[0].Virtual != results[0].Steps+16*results[0].HookCalls {
		t.Fatal("virtual time formula broken")
	}
}

// TestSubmitAsyncAndPoll: 202 with a queued/running status, then GET
// ?wait=1 returns the terminal status.
func TestSubmitAsyncAndPoll(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, b := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "msan"}, "")
	if code != http.StatusAccepted {
		t.Fatalf("code %d, body %s", code, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Terminal() {
		t.Fatalf("202 status %+v, want a non-terminal job with an ID", st)
	}
	code, b = getBody(t, ts, "/v1/jobs/"+st.ID+"?wait=1")
	if code != http.StatusOK {
		t.Fatalf("poll code %d", code)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("final state %q, body %s", st.State, b)
	}
}

// TestBadRequests: malformed submissions are 400 with a typed error,
// never accepted and never a 500.
func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []any{
		JobRequest{Analysis: "uaf"},                                     // no program
		JobRequest{Workload: "sort", MIR: trapMIR, Analysis: "uaf"},     /* both */
		JobRequest{Workload: "sort"},                                    // no analysis
		JobRequest{Workload: "sort", Analysis: "nope"},                  // unknown analysis
		JobRequest{Workload: "nope", Analysis: "uaf"},                   // unknown workload
		JobRequest{Workload: "sort", Analysis: "uaf", Size: "galactic"}, // unknown size
		JobRequest{MIR: "func main(", Analysis: "uaf"},                  // unparsable MIR
		JobRequest{MIR: trapMIR, Bug: "uaf", Analysis: "uaf"},           // bug needs a workload
		JobRequest{Workload: "sort", Analysis: "uaf",
			Options: JobOptions{Engine: "quantum"}}, // unknown engine
		"not json at all",
	}
	for i, c := range cases {
		code, b := postJob(t, ts, c, "")
		if code != http.StatusBadRequest {
			t.Errorf("case %d: code %d, body %s", i, code, b)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error == nil || eb.Error.Kind != "BadRequest" {
			t.Errorf("case %d: body %s not a typed BadRequest", i, b)
		}
	}
}

// TestReplayEngineRejectedAtAdmission: "replay" is not an engine (a
// replayed run needs a recorded trace, which no job carries) and
// "threaded" names the removed closure-threaded tier, so either submit
// is a 400 at admission and never reaches the journal.
func TestReplayEngineRejectedAtAdmission(t *testing.T) {
	jp := filepath.Join(t.TempDir(), "j.jsonl")
	_, ts := startServer(t, Config{JournalPath: jp})
	for _, eng := range []string{"replay", "threaded"} {
		code, b := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf",
			Options: JobOptions{Engine: eng}}, "?wait=1")
		var eb errorBody
		if code != http.StatusBadRequest || json.Unmarshal(b, &eb) != nil || eb.Error == nil || eb.Error.Kind != "BadRequest" {
			t.Fatalf("engine %q: code %d, body %s, want a typed 400 BadRequest", eng, code, b)
		}
	}
	lines, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Type != "hdr" {
			t.Fatalf("journal holds %q after a rejected submit, want only the header", line)
		}
	}
}

// TestGetUnknownJob: 404 with the typed envelope.
func TestGetUnknownJob(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, b := getBody(t, ts, "/v1/jobs/j999")
	if code != http.StatusNotFound || !bytes.Contains(b, []byte(`"NotFound"`)) {
		t.Fatalf("code %d body %s", code, b)
	}
}

// TestQueueFullBackpressure: with every shard token held, admission is
// an immediate 429 QueueFull with Retry-After — the queue is bounded
// and overload never blocks or 500s.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := startServer(t, Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 1})
	sh := s.shards[0]
	n := 0
	for { // hold every token so admission cannot win one
		select {
		case sh.tokens <- struct{}{}:
			n++
			continue
		default:
		}
		break
	}
	defer func() {
		for ; n > 0; n-- {
			<-sh.tokens
		}
	}()

	body, _ := json.Marshal(JobRequest{Workload: "sort", Analysis: "uaf"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("code %d, body %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Kind != "QueueFull" || !eb.Error.Retryable {
		t.Fatalf("body %s, want retryable QueueFull", b)
	}
}

// TestTenantInflightCap: one tenant at its cap is 429 TenantBusy while
// another tenant still gets through — per-tenant isolation at
// admission.
func TestTenantInflightCap(t *testing.T) {
	s, ts := startServer(t, Config{TenantInflight: 2})
	s.mu.Lock()
	s.tenants["greedy"] = 2 // simulate two in-flight jobs
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.tenants, "greedy")
		s.mu.Unlock()
	}()

	code, b := postJob(t, ts, JobRequest{Tenant: "greedy", Workload: "sort", Analysis: "uaf"}, "")
	var eb errorBody
	if code != http.StatusTooManyRequests || json.Unmarshal(b, &eb) != nil || eb.Error.Kind != "TenantBusy" {
		t.Fatalf("greedy tenant: code %d body %s, want 429 TenantBusy", code, b)
	}
	code, _ = postJob(t, ts, JobRequest{Tenant: "modest", Workload: "sort", Analysis: "uaf"}, "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("modest tenant blocked by greedy's cap: code %d", code)
	}
}

// TestErrorKindJSONPinned pins the degraded-response contract: every
// vm.RunError kind plus the recovered-panic and build-failure service
// kinds surfaces as state "failed" with exactly {kind, message,
// retryable} — never a 500, and retryable only for Deadline. Each job
// names the engine explicitly, as "interp".
func TestErrorKindJSONPinned(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []struct {
		name      string
		kind      string
		retryable bool
		req       JobRequest
	}{
		{"trap", "Trap", false,
			JobRequest{MIR: trapMIR, Analysis: "uaf"}},
		{"handler-panic-trap", "Trap", false,
			JobRequest{Workload: "sort", Analysis: "uaf", Options: JobOptions{FaultPanicNth: 1}}},
		{"steplimit", "StepLimit", false,
			JobRequest{Workload: "sort", Analysis: "uaf", Options: JobOptions{MaxSteps: 100}}},
		{"heaplimit", "HeapLimit", false,
			JobRequest{Workload: "sort", Analysis: "uaf", Options: JobOptions{MaxHeapBytes: 512}}},
		{"deadline", "Deadline", true,
			JobRequest{MIR: loopMIR, Analysis: "uaf", Options: JobOptions{DeadlineMS: 1}}},
		{"libfault", "LibFault", false,
			JobRequest{Workload: "sort", Analysis: "uaf", Options: JobOptions{FaultMallocNth: 1}}},
	}
	for _, tc := range cases {
		t.Run("interp/"+tc.name, func(t *testing.T) {
			req := tc.req
			req.Options.Engine = "interp"
			code, b := postJob(t, ts, req, "?wait=1")
			if code != http.StatusOK {
				t.Fatalf("code %d, body %s", code, b)
			}
			var st JobStatus
			if err := json.Unmarshal(b, &st); err != nil {
				t.Fatal(err)
			}
			if st.State != StateFailed || st.Result != nil || st.Error == nil {
				t.Fatalf("status %s, want failed with error only", b)
			}
			if st.Error.Kind != tc.kind {
				t.Fatalf("kind %q (msg %q), want %q", st.Error.Kind, st.Error.Message, tc.kind)
			}
			if st.Error.Retryable != tc.retryable {
				t.Fatalf("retryable = %v, want %v", st.Error.Retryable, tc.retryable)
			}
			if st.Error.Message == "" {
				t.Fatal("empty error message")
			}
			// Pin the wire shape: exactly kind/message/retryable.
			var raw map[string]json.RawMessage
			if err := json.Unmarshal(b, &raw); err != nil {
				t.Fatal(err)
			}
			var errObj map[string]json.RawMessage
			if err := json.Unmarshal(raw["error"], &errObj); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"kind", "message", "retryable"} {
				if _, ok := errObj[k]; !ok {
					t.Fatalf("error body %s missing %q", b, k)
				}
			}
			if len(errObj) != 3 {
				t.Fatalf("error body %s has extra fields", b)
			}
		})
	}
}

// TestGracefulDrain: Shutdown finishes queued jobs, flips /readyz to
// 503, and post-drain submissions are 503 Draining.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		code, b := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
		var st JobStatus
		json.Unmarshal(b, &st)
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st := s.lookup(id).snapshot()
		if !st.Terminal() {
			t.Fatalf("job %s not terminal after drain: %+v", id, st)
		}
	}
	if code, b := getBody(t, ts, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(string(b), "draining") {
		t.Fatalf("readyz after drain: %d %s", code, b)
	}
	if code, b := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, ""); code != http.StatusServiceUnavailable || !bytes.Contains(b, []byte(`"Draining"`)) {
		t.Fatalf("submit after drain: %d %s", code, b)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second drain not idempotent: %v", err)
	}
}

// TestCrashRecoveryByteIdentity is the durability acceptance test: a
// journal missing some done records (the crash ate them) replays into a
// server whose per-job terminal statuses are byte-identical to the
// uninterrupted reference run.
func TestCrashRecoveryByteIdentity(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")

	// Reference run: six jobs (successes and typed failures), drained
	// cleanly so the journal holds every accept and every done.
	ref, err := New(Config{JournalPath: refPath})
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	reqs := []JobRequest{
		{Tenant: "a", Workload: "memcached", Bug: "uaf", Analysis: "uaf"},
		{Tenant: "a", Workload: "sort", Analysis: "msan"},
		{Tenant: "b", Workload: "sort", Analysis: "uaf", Options: JobOptions{MaxSteps: 100}},
		{Tenant: "b", MIR: trapMIR, Analysis: "uaf"},
		{Tenant: "c", Workload: "sort", Analysis: "uaf", Options: JobOptions{Engine: "interp"}},
		{Tenant: "c", Workload: "sort", Analysis: "uaf", Options: JobOptions{FaultMallocNth: 1}},
	}
	want := map[string][]byte{} // id -> terminal status JSON
	for i, r := range reqs {
		code, b := postJob(t, tsRef, r, "?wait=1")
		if code != http.StatusOK {
			t.Fatalf("ref submit %d: code %d body %s", i, code, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		canon, _ := json.Marshal(st)
		want[st.ID] = canon
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ref.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	tsRef.Close()

	// Forge the crashed journal: all accepts, done records for only two
	// jobs, and a torn trailing line (the write the crash interrupted).
	refLines, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	keepDone := map[string]bool{"j2": true, "j4": true}
	var crashed []string
	for _, line := range strings.Split(strings.TrimRight(string(refLines), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("ref journal line %q: %v", line, err)
		}
		if rec.Type == "done" && !keepDone[rec.Status.ID] {
			continue
		}
		crashed = append(crashed, line)
	}
	crashed = append(crashed, `{"type":"done","status":{"id":"j5","st`)
	crashPath := filepath.Join(dir, "crash.jsonl")
	if err := os.WriteFile(crashPath, []byte(strings.Join(crashed, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart against the crashed journal: the four unfinished jobs
	// re-run; every terminal status must match the reference bytes.
	s2, err := New(Config{JournalPath: crashPath})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Shutdown(ctx) }()
	if got := s2.reg.Counter("serve.jobs.recovered"); got != 4 {
		t.Fatalf("recovered counter = %d, want 4", got)
	}
	for id, wantJSON := range want {
		j := s2.lookup(id)
		if j == nil {
			t.Fatalf("job %s lost in the crash", id)
		}
		select {
		case <-j.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s never finished after recovery", id)
		}
		st := j.snapshot()
		got, _ := json.Marshal(st)
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("job %s diverged after crash recovery:\n ref: %s\n got: %s", id, wantJSON, got)
		}
	}

	// New submissions must not collide with journaled IDs.
	tsCrash := httptest.NewServer(s2.Handler())
	defer tsCrash.Close()
	code, b := postJob(t, tsCrash, JobRequest{Workload: "sort", Analysis: "uaf"}, "")
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d", code)
	}
	var st JobStatus
	json.Unmarshal(b, &st)
	if _, taken := want[st.ID]; taken {
		t.Fatalf("post-recovery job reused journaled ID %s", st.ID)
	}
}

// TestConcurrentSubmitSoak: eight goroutines hammer a small server with
// mixed jobs. Every response is a typed outcome (202/400/429 — never a
// 500), every accepted job reaches a terminal state, and the books
// balance. Run with -race this doubles as the concurrency soak.
func TestConcurrentSubmitSoak(t *testing.T) {
	s, ts := startServer(t, Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 4, TenantInflight: 8})
	const goroutines = 8
	const perG = 12
	var mu sync.Mutex
	var accepted []string
	var rejected, failed400 int

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := JobRequest{
					Tenant:   fmt.Sprintf("t%d", g%3),
					Workload: "sort",
					Analysis: []string{"uaf", "msan", "uaf+msan"}[i%3],
				}
				if i%4 == 3 {
					req.Options.Engine = "interp"
				}
				if i%5 == 4 {
					req.Analysis = "nope" // exercise the 400 path concurrently
				}
				if i%6 == 5 {
					req.Options.FaultSeed = int64(g*perG + i + 1) // seeded VM faults in the mix
				}
				code, b := postJob(t, ts, req, "")
				mu.Lock()
				switch code {
				case http.StatusAccepted:
					var st JobStatus
					json.Unmarshal(b, &st)
					accepted = append(accepted, st.ID)
				case http.StatusTooManyRequests:
					rejected++
				case http.StatusBadRequest:
					failed400++
				default:
					t.Errorf("unexpected code %d: %s", code, b)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(accepted)+rejected+failed400 != goroutines*perG {
		t.Fatalf("books don't balance: %d + %d + %d != %d", len(accepted), rejected, failed400, goroutines*perG)
	}
	if len(accepted) == 0 {
		t.Fatal("soak accepted nothing")
	}
	for _, id := range accepted {
		j := s.lookup(id)
		select {
		case <-j.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("accepted job %s never finished", id)
		}
	}
	done := s.reg.Counter("serve.jobs.completed")
	var nFailed uint64
	for name, v := range s.reg.Export(false).Counters {
		if strings.HasPrefix(name, "serve.jobs.failed.") {
			nFailed += v
		}
	}
	if done+nFailed != uint64(len(accepted)) {
		t.Fatalf("terminal counters %d+%d != accepted %d", done, nFailed, len(accepted))
	}
}

// TestMetricsEndpoint: /metrics serves the registry including service
// counters and the compile-cache deltas.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{})
	if code, _ := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, "?wait=1"); code != http.StatusOK {
		t.Fatalf("job code %d", code)
	}
	code, b := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics code %d", code)
	}
	var exp struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, b)
	}
	if exp.Counters["serve.jobs.accepted"] != 1 || exp.Counters["serve.jobs.completed"] != 1 {
		t.Fatalf("service counters wrong: %s", b)
	}
	if code, b := getBody(t, ts, "/healthz"); code != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, b)
	}
	if code, b := getBody(t, ts, "/readyz"); code != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("readyz: %d %q", code, b)
	}
}
