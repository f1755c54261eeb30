package serve

// Tests for the live observability layer: trace identity, span
// determinism, Prometheus exposition, the flight recorder and SLO
// accounting.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// chainKey renders one trace's deterministic structure: the ordered
// stage names with their virtual costs.
func chainKey(te obs.TraceExport) string {
	var b strings.Builder
	for i, st := range te.Stages {
		if i > 0 {
			b.WriteByte('>')
		}
		fmt.Fprintf(&b, "%s:%d", st.Stage, st.Virtual)
	}
	return b.String()
}

// spanChains reduces a span snapshot to a sorted multiset of stage
// chains — the schedule-independent shape two runs must share.
func spanChains(spans []obs.TraceExport) []string {
	out := make([]string, 0, len(spans))
	for _, te := range spans {
		out = append(out, chainKey(te))
	}
	sort.Strings(out)
	return out
}

// TestTraceIDEndToEnd: every job response carries a trace ID, in the
// body and the X-Alda-Trace-Id header, stable from submit to terminal
// GET, and distinct across jobs.
func TestTraceIDEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(JobRequest{Workload: "sort", Analysis: "uaf"})
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		hdr := resp.Header.Get("X-Alda-Trace-Id")
		if st.TraceID == "" || hdr != st.TraceID {
			t.Fatalf("trace identity broken: body %q header %q", st.TraceID, hdr)
		}
		if seen[st.TraceID] {
			t.Fatalf("trace ID %q reused", st.TraceID)
		}
		seen[st.TraceID] = true

		// The terminal GET carries the same identity.
		code, b := getBody(t, ts, "/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("get: code %d", code)
		}
		var st2 JobStatus
		json.Unmarshal(b, &st2)
		if st2.TraceID != st.TraceID {
			t.Fatalf("GET trace %q != submit trace %q", st2.TraceID, st.TraceID)
		}
	}
}

// TestSpanStructureSerialVsParallel is the span determinism soak: the
// same job mix run on a serial server (1 worker, sequential submits)
// and a parallel one (8 workers, 8 submitter goroutines) must yield the
// identical multiset of stage chains, with unique trace IDs throughout.
func TestSpanStructureSerialVsParallel(t *testing.T) {
	mix := []JobRequest{
		{Workload: "sort", Analysis: "uaf"},
		{Workload: "memcached", Bug: "uaf", Analysis: "uaf"},
		{MIR: trapMIR, Analysis: "uaf"},
		{Workload: "sort", Analysis: "msan", Options: JobOptions{Engine: "interp"}},
	}
	const perReq = 4 // 16 jobs total

	run := func(cfg Config, submitters int) []string {
		cfg.TenantInflight = -1
		cfg.JournalPath = filepath.Join(t.TempDir(), "j.jsonl")
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		jobs := make(chan JobRequest, len(mix)*perReq)
		for _, r := range mix {
			for i := 0; i < perReq; i++ {
				jobs <- r
			}
		}
		close(jobs)
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range jobs {
					code, b := postJob(t, ts, r, "?wait=1")
					if code != http.StatusOK {
						t.Errorf("submit: code %d body %s", code, b)
					}
				}
			}()
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		ts.Close()

		spans := s.Spans(false)
		ids := map[string]bool{}
		for _, te := range spans {
			if ids[te.Trace] {
				t.Fatalf("duplicate trace %q in span store", te.Trace)
			}
			ids[te.Trace] = true
			for _, st := range te.Stages {
				if st.WallUS != 0 {
					t.Fatalf("wall time leaked into deterministic snapshot: %+v", te)
				}
			}
		}
		return spanChains(spans)
	}

	serial := run(Config{Workers: 1, QueueDepth: 64}, 1)
	parallel := run(Config{Workers: 8, QueueDepth: 256}, 8)
	if len(serial) != len(mix)*perReq {
		t.Fatalf("serial run recorded %d traces, want %d", len(serial), len(mix)*perReq)
	}
	a := strings.Join(serial, "\n")
	b := strings.Join(parallel, "\n")
	if a != b {
		t.Fatalf("span structure differs serial vs parallel:\n--- serial\n%s\n--- parallel\n%s", a, b)
	}
	// Every successful chain passed through the full pipeline.
	if !strings.Contains(a, "accepted:0>queued:0>compiled:0>executed:") {
		t.Fatalf("expected full pipeline chains, got:\n%s", a)
	}
}

// TestRecoverySpansAndTraceIdentity extends the crash-recovery story to
// observability: after a forged crash, recovered jobs keep their trace
// IDs, their span chains restart with a "recovered" stage, and the
// recovered structure is deterministic across two independent
// recoveries of the same journal.
func TestRecoverySpansAndTraceIdentity(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	ref, err := New(Config{JournalPath: refPath})
	if err != nil {
		t.Fatal(err)
	}
	tsRef := httptest.NewServer(ref.Handler())
	traces := map[string]string{} // id -> trace
	for _, r := range []JobRequest{
		{Workload: "sort", Analysis: "uaf"},
		{MIR: trapMIR, Analysis: "uaf"},
		{Workload: "memcached", Bug: "uaf", Analysis: "uaf"},
	} {
		code, b := postJob(t, tsRef, r, "?wait=1")
		if code != http.StatusOK {
			t.Fatalf("ref submit: code %d body %s", code, b)
		}
		var st JobStatus
		json.Unmarshal(b, &st)
		traces[st.ID] = st.TraceID
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ref.Shutdown(ctx)
	tsRef.Close()

	// Forge the crash: drop every done record, so all three re-run.
	refLines, _ := os.ReadFile(refPath)
	var crashed []string
	for _, line := range strings.Split(strings.TrimRight(string(refLines), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == "done" {
			continue
		}
		crashed = append(crashed, line)
	}
	forged := strings.Join(crashed, "\n") + "\n"

	recover := func() (map[string]string, []string) {
		crashPath := filepath.Join(t.TempDir(), "crash.jsonl")
		if err := os.WriteFile(crashPath, []byte(forged), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := New(Config{JournalPath: crashPath})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for id := range traces {
			j := s2.lookup(id)
			if j == nil {
				t.Fatalf("job %s lost", id)
			}
			select {
			case <-j.done:
			case <-time.After(60 * time.Second):
				t.Fatalf("job %s never finished", id)
			}
			got[id] = j.snapshot().TraceID
		}
		s2.Shutdown(ctx)
		return got, spanChains(s2.Spans(false))
	}

	got1, chains1 := recover()
	for id, want := range traces {
		if got1[id] != want {
			t.Errorf("job %s: recovered trace %q, want original %q", id, got1[id], want)
		}
	}
	for _, c := range chains1 {
		if !strings.HasPrefix(c, "recovered:0>queued:0>") {
			t.Errorf("recovered chain does not restart with recovered>queued: %s", c)
		}
	}
	_, chains2 := recover()
	if strings.Join(chains1, "\n") != strings.Join(chains2, "\n") {
		t.Fatalf("recovery span structure not deterministic:\n%v\n%v", chains1, chains2)
	}
}

// TestMetricsContentNegotiation: the default scrape stays JSON (wire
// compatibility with every existing script), Accept: text/plain or
// ?format=prom switches to a valid Prometheus exposition carrying the
// labeled families the acceptance criteria name.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := startServer(t, Config{})
	// One success, one StepLimit failure, to populate labeled counters.
	if code, b := postJob(t, ts, JobRequest{Tenant: "alice", Workload: "sort", Analysis: "uaf"}, "?wait=1"); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, b)
	}
	if code, _ := postJob(t, ts, JobRequest{Tenant: "bob", Workload: "sort", Analysis: "uaf", Options: JobOptions{MaxSteps: 100}}, "?wait=1"); code != http.StatusOK {
		t.Fatalf("steplimit submit: %d", code)
	}

	// Default: JSON, exactly as before.
	code, b := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var exp obs.Export
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatalf("default /metrics is not the JSON export: %v", err)
	}
	if exp.Counters["serve.jobs.accepted"] != 2 {
		t.Fatalf("accepted = %d, want 2", exp.Counters["serve.jobs.accepted"])
	}

	// Accept: text/plain → Prometheus, strictly valid.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	promBody := new(bytes.Buffer)
	promBody.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("prom content type %q", ct)
	}
	n, err := obs.ValidatePromText(promBody.Bytes())
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, promBody.String())
	}
	if n == 0 {
		t.Fatal("empty exposition")
	}
	out := promBody.String()
	for _, want := range []string{
		`alda_serve_jobs_failed_total{kind="StepLimit"} 1`,
		`alda_serve_jobs_by_analysis_total{analysis="uaf"} 2`,
		`alda_serve_tenant_wall_us_count{tenant="alice"}`,
		`alda_serve_stage_wall_us_bucket{stage="executed",le="+Inf"}`,
		`alda_serve_endpoint_wall_us_count{endpoint="submit"}`,
		"serve_queue_depth 0",
		"serve_jobs_accepted 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// ?format=prom forces it without the header; ?format=json forces
	// JSON even with the header.
	code, b = getBody(t, ts, "/metrics?format=prom")
	if code != http.StatusOK || !strings.HasPrefix(string(b), "# TYPE") {
		t.Fatalf("format=prom: %d %q", code, string(b[:min(40, len(b))]))
	}
	req2, _ := http.NewRequest("GET", ts.URL+"/metrics?format=json", nil)
	req2.Header.Set("Accept", "text/plain")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&exp); err != nil {
		t.Fatalf("format=json override broken: %v", err)
	}
}

// TestDebugFlightEndpoint: the ring dump is live JSON holding the job
// and control rings, with the job's stage events in the job ring.
func TestDebugFlightEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, QueueDepth: 128})
	code, b := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	var st JobStatus
	json.Unmarshal(b, &st)

	code, b = getBody(t, ts, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("flight: %d", code)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("flight dump is not JSON: %v", err)
	}
	if len(snap.Rings) != 2 { // jobs + control
		t.Fatalf("flight rings = %d, want 2", len(snap.Rings))
	}
	found := false
	for _, r := range snap.Rings {
		for _, ev := range r.Events {
			if ev.Trace == st.TraceID && ev.Stage == "executed" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("job trace %s has no executed event in flight dump:\n%s", st.TraceID, b)
	}

	// The span dump endpoint serves the same trace.
	code, b = getBody(t, ts, "/debug/spans")
	if code != http.StatusOK || !strings.Contains(string(b), st.TraceID) {
		t.Fatalf("/debug/spans missing trace: %d %s", code, b)
	}
}

// TestSpanRetentionIndependentOfMix: with one FlightRing value, 60
// sequential jobs of one analysis and 60 spread over four analyses keep
// the same number of whole chains in the span view, because every job
// records into the one job ring whatever its analysis.
func TestSpanRetentionIndependentOfMix(t *testing.T) {
	const ring, jobs, stages = 100, 60, 5 // no journal: five stages per chain
	whole := func(analyses ...string) int {
		s, ts := startServer(t, Config{FlightRing: ring})
		for i := 0; i < jobs; i++ {
			req := JobRequest{Workload: "sort", Analysis: analyses[i%len(analyses)]}
			if code, b := postJob(t, ts, req, "?wait=1"); code != http.StatusOK {
				t.Fatalf("%s: code %d, body %s", req.Analysis, code, b)
			}
		}
		n := 0
		for _, te := range s.Spans(false) {
			if len(te.Stages) == stages && te.Stages[0].Stage == "accepted" && te.Stages[stages-1].Stage == "done" {
				n++
			}
		}
		return n
	}
	one := whole("msan")
	mix := whole("uaf", "msan", "eraser", "strictalias")
	if one != ring/stages || mix != one {
		t.Fatalf("whole chains kept: %d for one analysis, %d for four, want %d for both", one, mix, ring/stages)
	}
}

// TestSameAnalysisJobsOverlap: two jobs of one analysis run at once on a
// two-worker server. The first spins until its deadline, and the second
// compiles while it runs, so the second job's "compiled" event lands in
// the job ring before the first job's terminal event.
func TestSameAnalysisJobsOverlap(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2, Limits: spinLimits})
	code, b := postJob(t, ts, JobRequest{MIR: spinMIR, Analysis: "uaf", Options: JobOptions{DeadlineMS: 500}}, "")
	var first, second JobStatus
	if code != http.StatusAccepted || json.Unmarshal(b, &first) != nil {
		t.Fatalf("spinning job: code %d, body %s", code, b)
	}
	code, b = postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, "?wait=1")
	if code != http.StatusOK || json.Unmarshal(b, &second) != nil || second.State != StateDone {
		t.Fatalf("second job: code %d, body %s", code, b)
	}
	if code, b = getBody(t, ts, "/v1/jobs/"+first.ID+"?wait=1"); code != http.StatusOK || json.Unmarshal(b, &first) != nil || first.State != StateFailed {
		t.Fatalf("spinning job: code %d, body %s, want failed at its deadline", code, b)
	}
	seq := map[string]uint64{}
	for _, ev := range s.FlightSnapshot("test").Rings[obs.JobRing].Events {
		seq[ev.Trace+"/"+ev.Stage] = ev.Seq
	}
	compiled, ok1 := seq[second.TraceID+"/compiled"]
	ended, ok2 := seq[first.TraceID+"/error"]
	if !ok1 || !ok2 || compiled > ended {
		t.Fatalf("second job compiled at seq %d (%v), first job ended at seq %d (%v): the jobs did not overlap", compiled, ok1, ended, ok2)
	}
}

// TestFlightAutoSnapshotOnJournalFault: a chaos-injected journal fault
// degrades the journal AND leaves a flight snapshot file behind — the
// post-mortem the soak suites read instead of print-debugging.
func TestFlightAutoSnapshotOnJournalFault(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "flight.json")
	_, ts := startServer(t, Config{
		JournalPath:        filepath.Join(dir, "j.jsonl"),
		JournalFaults:      JournalFaults{FailWriteNth: 2}, // the first done record
		FlightSnapshotPath: snapPath,
	})
	if code, _ := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, "?wait=1"); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("auto snapshot not written: %v", err)
	}
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if snap.Reason != "journal-degraded" {
		t.Fatalf("snapshot reason %q", snap.Reason)
	}
}

// TestMetricsScrapeRace is the satellite -race test for the cache-delta
// fix: concurrent scrapes racing concurrent compiles must neither trip
// the race detector nor lose delta increments across epochs. The final
// quiesced scrape totals must equal the process-global stats delta
// observed across the test.
func TestMetricsScrapeRace(t *testing.T) {
	s, ts := startServer(t, Config{TenantInflight: -1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, "?wait=1")
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				getBody(t, ts, "/metrics")
			}
		}()
	}
	wg.Wait()
	// Quiesced: one more scrape folds any tail, then the volatile
	// counters must be internally consistent (sum of deltas == the
	// last-snapshot state the server holds).
	getBody(t, ts, "/metrics")
	_, b := getBody(t, ts, "/metrics")
	var exp obs.Export
	if err := json.Unmarshal(b, &exp); err != nil {
		t.Fatal(err)
	}
	s.cacheMu.Lock()
	wantAppends := s.lastJournalAppends
	s.cacheMu.Unlock()
	if exp.Volatile["serve.journal.appends"] != wantAppends {
		t.Fatalf("journal append deltas lost: exported %d, snapshot state %d",
			exp.Volatile["serve.journal.appends"], wantAppends)
	}
}

// TestSLOAndLatencyHistograms: jobs slower than the configured SLO
// count into the over-deadline counter, and the wall/virtual latency
// histograms populate with quantiles available.
func TestSLOAndLatencyHistograms(t *testing.T) {
	s, ts := startServer(t, Config{SLOWall: time.Nanosecond}) // everything misses
	if code, _ := postJob(t, ts, JobRequest{Workload: "sort", Analysis: "uaf"}, "?wait=1"); code != http.StatusOK {
		t.Fatal("submit failed")
	}
	_, b := getBody(t, ts, "/metrics")
	var exp obs.Export
	json.Unmarshal(b, &exp)
	if exp.Volatile["serve.slo.jobs_over_deadline_total"] == 0 {
		t.Fatal("SLO miss not counted")
	}
	if exp.VolatileHistograms["serve.latency.wall_us.job"].Count == 0 {
		t.Fatal("job wall histogram empty")
	}
	if exp.Histograms["serve.latency.virtual.job"].Count == 0 {
		t.Fatal("virtual latency histogram empty")
	}
	if _, ok := s.reg.Quantile("serve.latency.wall_us.job", 0.95); !ok {
		t.Fatal("p95 unavailable")
	}
}
