package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestMintTraceIDDeterministicAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for seq := uint64(0); seq < 10000; seq++ {
		id := MintTraceID(seq)
		if !strings.HasPrefix(id, "t-") || len(id) != 18 {
			t.Fatalf("malformed trace id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q at seq %d", id, seq)
		}
		seen[id] = true
		if id != MintTraceID(seq) {
			t.Fatalf("MintTraceID(%d) unstable", seq)
		}
	}
}

// recordChain records one job's three-stage chain into a ring, the way
// aldaserve records a job into the job ring.
func recordChain(f *FlightRecorder, ring Ring, job int) {
	tid := MintTraceID(uint64(job))
	f.Record(ring, FlightEvent{Trace: tid, Stage: "accepted", WallUS: int64(job) * 3})
	f.Record(ring, FlightEvent{Trace: tid, Stage: "executed", Virtual: uint64(100 + job), WallUS: int64(job) * 7})
	f.Record(ring, FlightEvent{Trace: tid, Stage: "done", WallUS: 1})
}

func TestTraceViewDeterministicAcrossOrder(t *testing.T) {
	view := func(order []int) []byte {
		f := NewFlightRecorder(64)
		for _, job := range order {
			recordChain(f, Ring(job%2), job)
		}
		f.Record(ControlRing, FlightEvent{Stage: "journal-degraded"}) // no trace
		b, err := json.Marshal(f.Traces(false))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := view([]int{0, 1, 2, 3, 4})
	b := view([]int{4, 2, 0, 3, 1})
	if !bytes.Equal(a, b) {
		t.Fatalf("span view depends on recording order:\n%s\n---\n%s", a, b)
	}
	var got []TraceExport
	if err := json.Unmarshal(a, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("view holds %d traces, want 5 (traceless events left out)", len(got))
	}
	for _, te := range got {
		if len(te.Stages) != 3 || te.Stages[0].Stage != "accepted" || te.Stages[2].Stage != "done" {
			t.Fatalf("chain out of recording order: %+v", te)
		}
	}
}

func TestTraceViewVolatileKeepsWallTimes(t *testing.T) {
	f := NewFlightRecorder(16)
	recordChain(f, JobRing, 14)
	if det := f.Traces(false); det[0].Stages[0].WallUS != 0 || det[0].Stages[1].WallUS != 0 {
		t.Fatalf("deterministic view leaked wall time: %+v", det)
	}
	vol := f.Traces(true)
	if vol[0].Stages[0].WallUS != 42 || vol[0].Stages[1].WallUS != 98 || vol[0].Stages[1].Virtual != 114 {
		t.Fatalf("volatile view lost a field: %+v", vol)
	}
}

func TestTraceViewAfterWrap(t *testing.T) {
	const ring, jobs = 16, 100
	f := NewFlightRecorder(ring)
	for job := 0; job < jobs; job++ {
		recordChain(f, JobRing, job)
	}
	view := map[string][]SpanStage{}
	for _, te := range f.Traces(false) {
		view[te.Trace] = te.Stages
	}
	// The ring holds events 284..299: the last event of job 94, then
	// jobs 95..99 whole.
	for job := 95; job < jobs; job++ {
		if st := view[MintTraceID(uint64(job))]; len(st) != 3 || st[0].Stage != "accepted" || st[2].Stage != "done" {
			t.Fatalf("job %d chain not whole after the wrap: %+v", job, st)
		}
	}
	if st := view[MintTraceID(94)]; len(st) != 1 || st[0].Stage != "done" {
		t.Fatalf("job 94 should keep only its last event: %+v", st)
	}
	for job := 0; job < 94; job++ {
		if st, ok := view[MintTraceID(uint64(job))]; ok {
			t.Fatalf("evicted job %d still in the view: %+v", job, st)
		}
	}
	if len(view) != 6 {
		t.Fatalf("view holds %d traces, want 6", len(view))
	}
}

func TestTraceViewConcurrent(t *testing.T) {
	f := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				recordChain(f, Ring(g%2), g*1000+i)
				_ = f.Traces(g%2 == 0)
				_ = f.LiveTraces()
			}
		}(g)
	}
	wg.Wait()
	// Quiesced, every chain in the view is a suffix of its three events:
	// whole, or cut at its ring's oldest end by the wrap.
	view := f.Traces(false)
	for _, te := range view {
		if n := len(te.Stages); n == 0 || n > 3 || te.Stages[n-1].Stage != "done" {
			t.Fatalf("chain torn or out of order: %+v", te)
		}
	}
	if n := f.LiveTraces(); n != len(view) {
		t.Fatalf("LiveTraces = %d after concurrent records, span view holds %d", n, len(view))
	}
}

// TestWriteFileAtomic: the atomic whole-file write lands complete
// contents and replaces an existing file in one step.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "two" {
		t.Fatalf("contents = %q, want %q", b, "two")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1 (no temp litter)", len(entries))
	}
}

func TestFlightRecorderRingAndDrop(t *testing.T) {
	f := NewFlightRecorder(16)
	for i := 0; i < 50; i++ {
		f.Record(JobRing, FlightEvent{Stage: "executed", Detail: fmt.Sprintf("job%d", i)})
	}
	f.Record(ControlRing, FlightEvent{Stage: "recovery"})
	f.Record(ControlRing, FlightEvent{Stage: "journal-degraded"})

	snap := f.Snapshot("test")
	if len(snap.Rings) != 2 || snap.Rings[0].Ring != "jobs" || snap.Rings[1].Ring != "control" {
		t.Fatalf("want the jobs and control rings, got %+v", snap.Rings)
	}
	s0 := snap.Rings[JobRing]
	if s0.Total != 50 || s0.Dropped != 34 || len(s0.Events) != 16 {
		t.Fatalf("job ring: total=%d dropped=%d events=%d", s0.Total, s0.Dropped, len(s0.Events))
	}
	// Oldest-to-newest order, and the newest event is job49.
	if s0.Events[0].Detail != "job34" || s0.Events[15].Detail != "job49" {
		t.Fatalf("ring order wrong: first=%q last=%q", s0.Events[0].Detail, s0.Events[15].Detail)
	}
	for i := 1; i < len(s0.Events); i++ {
		if s0.Events[i].Seq != s0.Events[i-1].Seq+1 {
			t.Fatal("ring seq not monotone")
		}
	}
	ctl := snap.Rings[ControlRing]
	if len(ctl.Events) != 2 || ctl.Events[1].Stage != "journal-degraded" {
		t.Fatalf("control ring wrong: %+v", ctl.Events)
	}
}

// TestFlightRecorderDefaultPrealloc: the control ring holds 16 events,
// and the default rings preallocate 443,520 bytes (6,160 events of 72
// bytes).
func TestFlightRecorderDefaultPrealloc(t *testing.T) {
	f := NewFlightRecorder(DefaultFlightRing)
	jobs, ctl := len(f.rings[JobRing].buf), len(f.rings[ControlRing].buf)
	if jobs != DefaultFlightRing || ctl != 16 {
		t.Fatalf("rings hold %d and %d events, want %d and 16", jobs, ctl, DefaultFlightRing)
	}
	if b := uintptr(jobs+ctl) * unsafe.Sizeof(FlightEvent{}); b > 443520 {
		t.Fatalf("default rings preallocate %d bytes, want at most 443,520", b)
	}
}

func TestFlightRecorderSnapshotToFile(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Record(JobRing, FlightEvent{Trace: "t-1", Stage: "done"})
	path := t.TempDir() + "/flight.json"
	if err := f.SnapshotToFile(path, "unit"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf, "unit"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"reason": "unit"`) || !strings.Contains(buf.String(), `"t-1"`) {
		t.Fatalf("snapshot content wrong:\n%s", buf.String())
	}
	var snap FlightSnapshot
	if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &snap) != nil {
		t.Fatalf("snapshot file unreadable: %v\n%s", err, b)
	}
	if snap.Reason != "unit" || snap.Rings[JobRing].Events[0].Trace != "t-1" {
		t.Fatalf("snapshot file content wrong: %+v", snap)
	}
}

func TestFlightRecordZeroAlloc(t *testing.T) {
	f := NewFlightRecorder(64)
	ev := FlightEvent{Trace: "t-0000000000000000", Stage: "executed", Virtual: 123}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(JobRing, ev)
	})
	if allocs != 0 {
		t.Fatalf("FlightRecorder.Record allocates %v times per call, want 0", allocs)
	}

	// Churn: distinct traces through the wrapped ring insert and delete
	// a trace count on every record. Each run records 8,192 events, so
	// even one allocation in the whole run fails.
	ids := make([]string, 1000)
	for i := range ids {
		ids[i] = MintTraceID(uint64(i))
	}
	i := 0
	allocs = testing.AllocsPerRun(20, func() {
		for range 8192 {
			f.Record(JobRing, FlightEvent{Trace: ids[i%len(ids)], Stage: "accepted"})
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("FlightRecorder.Record under trace churn allocates %v times per 8,192 calls, want 0", allocs)
	}
}

// TestLiveTracesMatchesView: the counts Record keeps give the span
// view's length after every record, as wraps cut chains in both rings
// and events without a trace pass through.
func TestLiveTracesMatchesView(t *testing.T) {
	f := NewFlightRecorder(16)
	for job := 0; job < 60; job++ {
		tid := MintTraceID(uint64(job))
		ring := Ring(job % 3 / 2) // two jobs in the job ring, one in the control ring
		for _, stage := range []string{"accepted", "queued", "executed", "done"}[:1+job%4] {
			f.Record(ring, FlightEvent{Trace: tid, Stage: stage})
			if job%5 == 0 {
				f.Record(ring, FlightEvent{Stage: "journal-degraded"})
			}
			if got, want := f.LiveTraces(), len(f.Traces(false)); got != want {
				t.Fatalf("job %d %s: LiveTraces = %d, span view holds %d", job, stage, got, want)
			}
		}
	}
	partial := 0
	for _, te := range f.Traces(false) {
		if te.Stages[0].Stage != "accepted" {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no chain was cut by a wrap; the test does not cover partial chains")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(Ring(g%2), FlightEvent{Stage: "executed", Virtual: uint64(i)})
			}
			_ = f.Snapshot("race")
		}(g)
	}
	wg.Wait()
}
