package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryMergeOrderIndependent pins the property the harness
// depends on: merging the same shards in any order, from any number of
// goroutines, yields the same deterministic export, and the volatile
// counters recorded alongside never reach it.
func TestRegistryMergeOrderIndependent(t *testing.T) {
	mkShards := func() []*Shard {
		var out []*Shard
		for i := 0; i < 8; i++ {
			s := NewShard()
			s.Add("vm.steps", uint64(100*i+1))
			s.Add("vm.hook.onLoad.calls", uint64(i))
			out = append(out, s)
		}
		return out
	}
	export := func(shards []*Shard, parallel bool) string {
		r := NewRegistry()
		if parallel {
			var wg sync.WaitGroup
			for i, s := range shards {
				wg.Add(1)
				go func(i int, s *Shard) {
					defer wg.Done()
					r.MergeShard(s)
					r.AddVolatile("harness.cell_wall_ns", uint64(1000*i))
				}(i, s)
			}
			wg.Wait()
		} else {
			for i := len(shards) - 1; i >= 0; i-- {
				r.MergeShard(shards[i])
				r.AddVolatile("harness.cell_wall_ns", uint64(1000*i))
			}
		}
		var b bytes.Buffer
		if err := r.WriteJSON(&b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := export(mkShards(), false)
	par := export(mkShards(), true)
	if serial != par {
		t.Fatalf("merge order changed deterministic export:\n%s\nvs\n%s", serial, par)
	}
	if !strings.Contains(serial, "\"vm.steps\": 2808") {
		t.Fatalf("unexpected merged total:\n%s", serial)
	}
	if strings.Contains(serial, "cell_wall_ns") {
		t.Fatalf("volatile counter leaked into deterministic export:\n%s", serial)
	}
}

func TestShardReset(t *testing.T) {
	s := NewShard()
	s.Add("a", 3)
	s.Add("b", 4)
	s.Reset()
	if len(s.Counts) != 0 {
		t.Fatalf("reset left counters: %v", s.Counts)
	}
	var nilShard *Shard
	nilShard.Reset() // must not panic
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	for _, v := range []uint64{0, 1, 2, 3, 1024} {
		r.Observe("h", v)
	}
	e := r.Export(false)
	h, ok := e.Histograms["h"]
	if !ok {
		t.Fatal("histogram missing from export")
	}
	if h.Count != 5 || h.Sum != 1030 {
		t.Fatalf("count=%d sum=%d", h.Count, h.Sum)
	}
	// 0 → bucket le_2^00, 1 → le_2^01, 2..3 → le_2^02, 1024 → le_2^11.
	want := map[string]uint64{"le_2^00": 1, "le_2^01": 1, "le_2^02": 2, "le_2^11": 1}
	for k, v := range want {
		if h.Buckets[k] != v {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", k, h.Buckets[k], v, h.Buckets)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	start := time.Now()
	tr.Span("vm", "quantum", 3, start, 42*time.Microsecond, "tid", "0", "steps", "97")
	tr.Instant("vm", "fault.malloc_null", 3)
	tr.Span("harness", `cell "quoted/odd"`, 1, start, time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	n, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace does not parse: %v\n%s", err, buf.String())
	}
	if n != 3 {
		t.Fatalf("got %d events, want 3", n)
	}
	if !strings.Contains(buf.String(), `"steps":"97"`) {
		t.Fatalf("span args missing:\n%s", buf.String())
	}
}

// TestTraceCapReportsDrops: the caps bound quantum spans alone. Past
// them, quanta are counted, not written, while the harness cells,
// compile stages and fault instants interleaved with them are all
// written, and the closing trace.dropped instant counts only the
// dropped quanta. Tid 1 runs first and stops at the per-tid cap, so
// tid 2, which runs after it, still gets quanta until the trace's cap.
func TestTraceCapReportsDrops(t *testing.T) {
	const capQuanta, perTID, extra = 4, 3, 3
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	tr.max, tr.maxPerTID = capQuanta, perTID
	start := time.Now()
	for i := 0; i < capQuanta+extra; i++ {
		tr.Quantum(1, start, time.Microsecond, "steps", "64")
		tr.Span("harness", fmt.Sprintf("fig4/cell%d", i), int64(i), start, time.Millisecond)
		tr.Span("compiler", "layout", 0, start, time.Microsecond)
	}
	for i := 0; i < capQuanta+extra; i++ {
		tr.Quantum(2, start, time.Microsecond, "steps", "64")
	}
	tr.Instant("vm", "fault.malloc_null", 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Cat  string            `json:"cat"`
		Name string            `json:"name"`
		Tid  int64             `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("capped trace does not parse: %v", err)
	}
	byCat := map[string]int{}
	quantaByTID := map[int64]int{}
	dropped := ""
	for _, e := range events {
		byCat[e.Cat]++
		switch e.Name {
		case "quantum":
			quantaByTID[e.Tid]++
		case "trace.dropped":
			dropped = e.Args["dropped"]
		}
	}
	want := map[string]int{"vm": capQuanta + 1, "harness": capQuanta + extra, "compiler": capQuanta + extra, "trace": 1}
	for cat, n := range want {
		if byCat[cat] != n {
			t.Errorf("%s events = %d, want %d (all: %v)", cat, byCat[cat], n, byCat)
		}
	}
	if quantaByTID[1] != perTID || quantaByTID[2] != capQuanta-perTID {
		t.Errorf("quanta per tid = %v, want %d on tid 1 and %d on tid 2", quantaByTID, perTID, capQuanta-perTID)
	}
	if dropped != strconv.Itoa(2*(capQuanta+extra)-capQuanta) {
		t.Fatalf("trace.dropped = %q, want %d", dropped, 2*(capQuanta+extra)-capQuanta)
	}
}

// SetQuantumCap lowers a trace's quantum cap for the tests outside the
// package (vm_cap_test.go).
func (t *Trace) SetQuantumCap(n int) { t.max = n }

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Span("a", "b", 0, time.Now(), 0)
	tr.Instant("a", "b", 0)
}
