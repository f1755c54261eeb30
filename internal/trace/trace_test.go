package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// genEvent is one event fed to the writer and expected back from the
// cursor (the writer's run-length folding must be invisible).
type genEvent struct {
	kind EvKind
	a, v uint64
}

// genTrace writes a pseudo-random but structured event stream (strided
// loads/stores so rep runs actually occur, plus every other event kind)
// and returns the encoded bytes with the expected per-batch events.
func genTrace(t *testing.T, seed int64, batches int) ([]byte, [][]genEvent, []Rec) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w := NewWriter(&buf, 0xfeedface, seed, 64)
	var wantEvents [][]genEvent
	var wantRecs []Rec
	addr := uint64(0x10000)
	for b := 0; b < batches; b++ {
		var evs []genEvent
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			switch rng.Intn(9) {
			case 0, 1, 2: // strided loads: mostly predictable
				for j := 0; j < 1+rng.Intn(6); j++ {
					addr += 8
					val := addr * 3
					w.Load(addr, val)
					evs = append(evs, genEvent{EvLoad, addr, val})
				}
			case 3, 4: // strided stores
				for j := 0; j < 1+rng.Intn(6); j++ {
					addr += 16
					w.Store(addr)
					evs = append(evs, genEvent{EvStore, addr, 0})
				}
			case 5:
				r := rng.Uint64()
				w.Lib(r)
				evs = append(evs, genEvent{EvLib, 0, r})
			case 6:
				l := uint64(0x2000 + rng.Intn(4)*8)
				if rng.Intn(2) == 0 {
					w.Lock(l)
					evs = append(evs, genEvent{EvLock, l, 0})
				} else {
					w.Unlock(l)
					evs = append(evs, genEvent{EvUnlock, l, 0})
				}
			case 7:
				a, sz := uint64(0x40000+rng.Intn(1024)*16), uint64(rng.Intn(256))
				w.Alloc(a, sz)
				evs = append(evs, genEvent{EvAlloc, a, sz})
				if rng.Intn(2) == 0 {
					w.Free(a)
					evs = append(evs, genEvent{EvFree, a, 0})
				}
			case 8:
				tid := uint64(rng.Intn(8))
				if rng.Intn(2) == 0 {
					w.Spawn(tid)
					evs = append(evs, genEvent{EvSpawn, 0, tid})
				} else {
					w.Join(tid)
					evs = append(evs, genEvent{EvJoin, 0, tid})
				}
			}
		}
		tid := rng.Intn(4)
		psteps, thooks := uint64(1+rng.Intn(64)), uint64(rng.Intn(3))
		w.EndBatch(tid, psteps, thooks)
		wantEvents = append(wantEvents, evs)
		wantRecs = append(wantRecs, Rec{Kind: RecBatch, Tid: tid, PSteps: psteps, THooks: thooks})
	}
	if seed%2 == 0 {
		w.End(42)
		wantRecs = append(wantRecs, Rec{Kind: RecEnd, Exit: 42})
	} else {
		w.Fail("heaplimit", "heap budget 64 bytes exceeded")
		wantRecs = append(wantRecs, Rec{Kind: RecFail, FailKind: "heaplimit", FailMsg: "heap budget 64 bytes exceeded"})
	}
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	return buf.Bytes(), wantEvents, wantRecs
}

// TestRoundTrip is the encode→decode property: for many seeds, the
// cursor yields exactly the event sequence the writer was fed, in
// order, with identical operands — through rep-run folding, predictor
// resets, and batch boundaries.
func TestRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data, wantEvents, wantRecs := genTrace(t, seed, 1+int(seed)%7)
		tr, err := Decode(data)
		if err != nil {
			t.Fatalf("seed %d: Decode: %v", seed, err)
		}
		if tr.ProgFP != 0xfeedface || tr.Seed != seed || tr.Quantum != 64 {
			t.Fatalf("seed %d: header mismatch: %+v", seed, tr)
		}
		c := tr.Cursor()
		for bi, want := range wantEvents {
			rec, err := c.NextRecord()
			if err != nil {
				t.Fatalf("seed %d batch %d: NextRecord: %v", seed, bi, err)
			}
			if rec != wantRecs[bi] {
				t.Fatalf("seed %d batch %d: rec %+v, want %+v", seed, bi, rec, wantRecs[bi])
			}
			for ei, we := range want {
				ev, err := c.Next()
				if err != nil {
					t.Fatalf("seed %d batch %d event %d: %v", seed, bi, ei, err)
				}
				if ev.Kind != we.kind || ev.Addr != we.a || ev.Val != we.v {
					t.Fatalf("seed %d batch %d event %d: got %+v, want %+v", seed, bi, ei, ev, we)
				}
			}
			if _, err := c.Next(); err != ErrBatchDrained {
				t.Fatalf("seed %d batch %d: expected drain, got %v", seed, bi, err)
			}
		}
		rec, err := c.NextRecord()
		if err != nil {
			t.Fatalf("seed %d: terminal: %v", seed, err)
		}
		if rec != wantRecs[len(wantRecs)-1] {
			t.Fatalf("seed %d: terminal %+v, want %+v", seed, rec, wantRecs[len(wantRecs)-1])
		}
		if _, err := c.NextRecord(); !errors.Is(err, io.EOF) {
			t.Fatalf("seed %d: expected EOF after terminal, got %v", seed, err)
		}
	}
}

// TestRecordSkipsUnconsumedEvents pins NextRecord's skip semantics:
// advancing past a batch without consuming its events, or in the middle
// of a run, leaves later batches intact.
func TestRecordSkipsUnconsumedEvents(t *testing.T) {
	data, wantEvents, _ := genTrace(t, 4, 3)
	tr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Read k events of batch 1, for every k, then check batch 2 whole.
	for k := 0; k <= len(wantEvents[1]); k++ {
		c := tr.Cursor()
		for i := 0; i < 2; i++ { // batch 0 skipped, batch 1 partly read
			if _, err := c.NextRecord(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.NextRecord(); err != nil {
			t.Fatal(err)
		}
		for ei, we := range wantEvents[2] {
			ev, err := c.Next()
			if err != nil {
				t.Fatalf("k=%d event %d: %v", k, ei, err)
			}
			if ev.Kind != we.kind || ev.Addr != we.a || ev.Val != we.v {
				t.Fatalf("k=%d event %d after skip: got %+v, want %+v", k, ei, ev, we)
			}
		}
	}
}

// TestCompression asserts the encoding actually compresses the strided
// streams it was designed for.
func TestCompression(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1, 1, 64)
	for i := 0; i < 1000; i++ { // strided scan: rep runs collapse it
		w.Load(uint64(0x1000+i*8), uint64(i))
	}
	for i := 0; i < 1000; i++ {
		w.Store(uint64(0x9000 + i*8))
	}
	w.EndBatch(0, 2000, 0)
	w.End(0)
	tr, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Loads != 1000 || st.Stores != 1000 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Ratio() < 50 {
		t.Fatalf("strided stream should compress >50x, got %.1fx (%d bytes, %d raw)", st.Ratio(), st.Bytes, st.RawBytes)
	}
	if st.RepRuns == 0 {
		t.Fatal("expected rep runs on a perfectly strided stream")
	}

	// Alternating load/store flushes the rep run each switch but the
	// residuals are still zero-adjacent varints: delta encoding alone
	// must beat fixed-width by a wide margin.
	buf.Reset()
	w = NewWriter(&buf, 1, 1, 64)
	for i := 0; i < 1000; i++ {
		a := uint64(0x1000 + i*8)
		w.Load(a, uint64(i))
		w.Store(a)
	}
	w.EndBatch(0, 2000, 0)
	w.End(0)
	tr, err = Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.Stats().Ratio(); r < 4 {
		t.Fatalf("alternating stream should compress >4x, got %.1fx", r)
	}
}

// TestDecodeErrors pins the typed-error contract on malformed inputs.
func TestDecodeErrors(t *testing.T) {
	valid, _, _ := genTrace(t, 2, 2)
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("NOTATRACE"),
		"header only":   valid[:len(Magic)+1],
		"torn batch":    valid[:len(valid)-3],
		"no terminal":   valid[:len(valid)-2],
		"trailing junk": append(append([]byte{}, valid...), 0xff, 0xff),
	}
	for name, data := range cases {
		_, err := Decode(data)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: want *DecodeError, got %v", name, err)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

// TestHugeLengthField pins the pre-allocation cap: a batch claiming a
// payload far larger than the data must fail without allocating it.
func TestHugeLengthField(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1, 1, 64)
	w.Load(1, 2)
	w.EndBatch(0, 1, 0)
	w.End(0)
	data := buf.Bytes()
	// Rewrite the batch payload length to a huge varint by crafting a
	// fresh record stream: header + batch with absurd length.
	hdr := data[:bytes.IndexByte(data, recBatch)]
	crafted := append(append([]byte{}, hdr...), recBatch, 0 /*Δtid*/, 1 /*psteps*/, 0 /*thooks*/)
	crafted = append(crafted, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // ~9e18 payload length
	var de *DecodeError
	if _, err := Decode(crafted); !errors.As(err, &de) {
		t.Fatalf("want *DecodeError for huge payload length, got %v", err)
	}
}

// hugeRunTrace is a 33-byte trace whose only batch holds one repload
// record claiming 2^40 loads.
func hugeRunTrace() []byte {
	var buf bytes.Buffer
	NewWriter(&buf, 1, 1, 64)
	data := append(buf.Bytes(), recBatch, 0 /*Δtid*/, 1 /*psteps*/, 0 /*thooks*/, 7 /*payload length*/, byte(evRepLoad))
	data = binary.AppendUvarint(data, 1<<40)
	return append(data, recEnd, 0)
}

// TestHugeRunCount pins O(1) run handling: a run-length record that
// claims 2^40 loads decodes promptly into three entries, with no
// allocation sized by the count, and NextRecord skips the batch without
// expanding the run.
func TestHugeRunCount(t *testing.T) {
	data := hugeRunTrace()
	if len(data) != 33 {
		t.Fatalf("crafted trace is %d bytes, want 33", len(data))
	}
	var tr *Trace
	var err error
	var alloc uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err = Decode(data)
		runtime.ReadMemStats(&after)
		alloc = after.TotalAlloc - before.TotalAlloc
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Decode still running after 5s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if alloc >= 64<<10 {
		t.Fatalf("Decode allocated %d bytes, want < 64 KiB", alloc)
	}
	if s := tr.Stats(); s.Loads != 1<<40 || s.Events != 1<<40 || s.RepRuns != 1 {
		t.Fatalf("stats: %+v", s)
	}
	c := tr.Cursor()
	if rec, err := c.NextRecord(); err != nil || rec.Kind != RecBatch {
		t.Fatalf("first record: %+v, %v", rec, err)
	}
	if ev, err := c.Next(); err != nil || ev.Kind != EvLoad {
		t.Fatalf("first event: %+v, %v", ev, err)
	}
	if rec, err := c.NextRecord(); err != nil || rec.Kind != RecEnd {
		t.Fatalf("record after the skipped batch: %+v, %v", rec, err)
	}
	if _, err := c.NextRecord(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after the terminal, got %v", err)
	}
}

// TestConcurrentCursors verifies a decoded Trace is safely shared: many
// cursors walking the same Trace in parallel see identical streams.
// Run under -race this is the trace-layer half of the concurrent-replay
// guarantee.
func TestConcurrentCursors(t *testing.T) {
	data, _, _ := genTrace(t, 6, 5)
	tr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	walk := func() []Event {
		var out []Event
		c := tr.Cursor()
		for {
			rec, err := c.NextRecord()
			if errors.Is(err, io.EOF) || rec.Kind != RecBatch {
				return out
			}
			if err != nil {
				t.Error(err)
				return out
			}
			for {
				ev, err := c.Next()
				if err == ErrBatchDrained {
					break
				}
				if err != nil {
					t.Error(err)
					return out
				}
				out = append(out, ev)
			}
		}
	}
	ref := walk()
	done := make(chan []Event, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- walk() }()
	}
	for i := 0; i < 8; i++ {
		got := <-done
		if len(got) != len(ref) {
			t.Fatalf("concurrent walk saw %d events, want %d", len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("concurrent walk diverged at event %d: %+v vs %+v", j, got[j], ref[j])
			}
		}
	}
}
