package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testReq(workload string) *JobRequest {
	return &JobRequest{Tenant: "t0", Workload: workload, Analysis: "uaf"}
}

// TestJournalRoundTrip: accepts and dones written before a close are
// all recovered, unfinished = accepts lacking a done, and MaxSeq is the
// high-water mark new IDs must clear.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, rec, err := OpenJournal(path, "fp1", JournalFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Done) != 0 || len(rec.Unfinished) != 0 || rec.MaxSeq != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.AppendAccept(seq, jobID(seq), "", testReq("sort")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendDone(&JobStatus{ID: "j2", State: StateDone, Result: &JobResult{Exit: 7}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err = OpenJournal(path, "fp1", JournalFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Done); got != 1 || rec.Done["j2"].Result.Exit != 7 {
		t.Fatalf("done recovered wrong: %d entries, %+v", got, rec.Done["j2"])
	}
	if len(rec.Unfinished) != 2 || rec.Unfinished[0].ID != "j1" || rec.Unfinished[1].ID != "j3" {
		t.Fatalf("unfinished recovered wrong: %+v", rec.Unfinished)
	}
	if rec.MaxSeq != 3 {
		t.Fatalf("MaxSeq = %d, want 3", rec.MaxSeq)
	}
}

func jobID(seq uint64) string { return "j" + string(rune('0'+seq)) }

// TestJournalTornTrailingLine: a partial final line — the kill -9
// arrived mid-write — must not poison recovery of the complete records
// before it.
func TestJournalTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, "fp1", JournalFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAccept(1, "j1", "", testReq("sort")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"done","status":{"id":"j1","sta`) // torn
	f.Close()

	_, rec, err := OpenJournal(path, "fp1", JournalFaults{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Unfinished) != 1 || rec.Unfinished[0].ID != "j1" {
		t.Fatalf("torn line broke recovery: %+v", rec)
	}
}

// TestJournalFingerprintMismatch: a journal written under different
// server limits must refuse to replay — the results would not be
// comparable. So must one whose header adds " adapt=N", written by a
// server that ran the adaptive profile loop.
func TestJournalFingerprintMismatch(t *testing.T) {
	for _, journalFp := range []string{"fp1", "fp2 adapt=1"} {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		j, _, err := OpenJournal(path, journalFp, JournalFaults{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, _, err := OpenJournal(path, "fp2", JournalFaults{}); err == nil ||
			!strings.Contains(err.Error(), "fingerprint mismatch") {
			t.Fatalf("journal %q: err = %v, want fingerprint mismatch", journalFp, err)
		}
	}
}

// TestJournalInjectedFaultsDegrade: the Nth write / Nth sync failing
// flips the journal to degraded and counts an error, but later appends
// keep working — availability over durability.
func TestJournalInjectedFaultsDegrade(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults JournalFaults
	}{
		{"write", JournalFaults{FailWriteNth: 2}},
		{"sync", JournalFaults{FailSyncNth: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.jsonl")
			j, _, err := OpenJournal(path, "fp1", tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendAccept(1, "j1", "", testReq("sort")); err != nil {
				t.Fatalf("append 1: %v", err)
			}
			if j.Degraded() {
				t.Fatal("degraded before the injected ordinal")
			}
			if err := j.AppendAccept(2, "j2", "", testReq("sort")); !errors.Is(err, errInjected) {
				t.Fatalf("append 2: err = %v, want injected fault", err)
			}
			if !j.Degraded() {
				t.Fatal("injected fault did not flip degraded")
			}
			if err := j.AppendAccept(3, "j3", "", testReq("sort")); err != nil {
				t.Fatalf("append after fault: %v (faults must fire once)", err)
			}
			_, errs := j.Stats()
			if errs != 1 {
				t.Fatalf("errs = %d, want 1", errs)
			}
			j.Close()
		})
	}
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

// TestRecoverThreadedJobOnInterpreter recovers testdata/
// two_tier_journal.jsonl, written by a server that still had the
// closure-threaded tier and the adaptive profile loop: it holds an
// adapt record. Job j1 (engine "interp") is done; j2, the same request
// with engine "threaded", was accepted but never finished. The
// recovered server must accept the header, skip the adapt record, keep
// j1's status, and
// run j2 on the interpreter to the JobResult that the same request
// with engine "interp" yields — which is also the result the two-tier
// server journaled for j1.
func TestRecoverThreadedJobOnInterpreter(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "two_tier_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(jp, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 64, JournalPath: jp})
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
