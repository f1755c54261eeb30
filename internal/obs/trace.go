package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Trace emits Chrome trace_event JSON — a JSON array of event objects,
// one per line, loadable in chrome://tracing or Perfetto. Spans are
// "X" (complete) events with microsecond ts/dur relative to the trace
// start; instants are thread-scoped "i" events. Safe for concurrent
// use; the event line is built in a reused buffer under the lock, so a
// span costs O(1) amortized allocation on the emitting path.
//
// Only the VM's per-quantum spans are bounded. They are the one stream
// that grows with run length (a traced fig4 sweep at size small emits
// 2.4M of them), while harness cells, compile stages and fault instants
// number in the hundreds and are always written. A trace writes at most
// DefaultMaxEvents quanta in all and quantaPerTID on any one tid, so
// the first cells of a sweep (the harness gives each cell its own tid)
// cannot use up the whole budget. Quanta past either cap are counted,
// not written, and Close appends a trace.dropped instant carrying the
// count — a truncated trace says so instead of looking complete, and
// keeps every span that explains it.
type Trace struct {
	mu        sync.Mutex
	w         *bufio.Writer
	f         *os.File // owned file when created via CreateTrace
	start     time.Time
	n         int           // events written
	quanta    int           // quantum spans written
	max       int           // quantum spans allowed
	maxPerTID int           // quantum spans allowed per tid
	perTID    map[int64]int // quantum spans written per tid
	dropped   uint64
	buf       []byte
	err       error
	closed    bool
}

// DefaultMaxEvents bounds a trace's quantum spans (~120 MB of JSON).
const DefaultMaxEvents = 1 << 20

// quantaPerTID bounds one tid's quantum spans: 1/64 of the trace's, so
// a sweep of up to 64 cells keeps quanta for every cell.
const quantaPerTID = DefaultMaxEvents / 64

// NewTrace starts a trace writing to w.
func NewTrace(w io.Writer) *Trace {
	t := &Trace{w: bufio.NewWriterSize(w, 1<<16), start: time.Now(),
		max: DefaultMaxEvents, maxPerTID: quantaPerTID, perTID: map[int64]int{}}
	_, t.err = t.w.WriteString("[")
	return t
}

// CreateTrace starts a trace writing to a new file at path.
func CreateTrace(path string) (*Trace, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := NewTrace(f)
	t.f = f
	return t, nil
}

// micros renders d as microseconds with fractional part.
func (t *Trace) appendMicros(d time.Duration) {
	t.buf = strconv.AppendFloat(t.buf, float64(d.Nanoseconds())/1e3, 'f', 3, 64)
}

// event writes one line. kv pairs land under "args" as quoted strings.
// A quantum span past the cap is counted instead.
func (t *Trace) event(ph byte, cat, name string, tid int64, start time.Time, dur time.Duration, kv []string, quantum bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	if quantum {
		if t.quanta >= t.max || t.perTID[tid] >= t.maxPerTID {
			t.dropped++
			return
		}
		t.quanta++
		t.perTID[tid]++
	}
	t.writeEventLocked(ph, cat, name, tid, start, dur, kv)
}

func (t *Trace) writeEventLocked(ph byte, cat, name string, tid int64, start time.Time, dur time.Duration, kv []string) {
	b := t.buf[:0]
	if t.n > 0 {
		b = append(b, ',')
	}
	b = append(b, "\n{\"ph\":\""...)
	b = append(b, ph)
	b = append(b, "\",\"pid\":1,\"tid\":"...)
	b = strconv.AppendInt(b, tid, 10)
	b = append(b, ",\"ts\":"...)
	t.buf = b
	ts := start.Sub(t.start)
	if ts < 0 {
		ts = 0
	}
	t.appendMicros(ts)
	b = t.buf
	if ph == 'X' {
		b = append(b, ",\"dur\":"...)
		t.buf = b
		t.appendMicros(dur)
		b = t.buf
	}
	if ph == 'i' {
		b = append(b, ",\"s\":\"t\""...)
	}
	b = append(b, ",\"cat\":"...)
	b = strconv.AppendQuote(b, cat)
	b = append(b, ",\"name\":"...)
	b = strconv.AppendQuote(b, name)
	if len(kv) >= 2 {
		b = append(b, ",\"args\":{"...)
		for i := 0; i+1 < len(kv); i += 2 {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, kv[i])
			b = append(b, ':')
			b = strconv.AppendQuote(b, kv[i+1])
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	t.buf = b
	_, err := t.w.Write(b)
	if err != nil {
		t.err = err
		return
	}
	t.n++
}

// Span emits a complete ("X") event covering [start, start+dur].
func (t *Trace) Span(cat, name string, tid int64, start time.Time, dur time.Duration, kv ...string) {
	if t == nil {
		return
	}
	t.event('X', cat, name, tid, start, dur, kv, false)
}

// Quantum emits the "vm"/"quantum" span of one scheduler quantum, the
// one event kind the caps apply to.
func (t *Trace) Quantum(tid int64, start time.Time, dur time.Duration, kv ...string) {
	if t == nil {
		return
	}
	t.event('X', "vm", "quantum", tid, start, dur, kv, true)
}

// Instant emits a thread-scoped instant ("i") event at now.
func (t *Trace) Instant(cat, name string, tid int64, kv ...string) {
	if t == nil {
		return
	}
	t.event('i', cat, name, tid, time.Now(), 0, kv, false)
}

// Close terminates the JSON array (appending a trace.dropped instant
// first if the quantum cap was hit) and flushes/closes the destination.
func (t *Trace) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.dropped > 0 && t.err == nil {
		t.writeEventLocked('i', "trace", "trace.dropped", 0, time.Now(), 0,
			[]string{"dropped", strconv.FormatUint(t.dropped, 10)})
	}
	if t.err == nil {
		_, t.err = t.w.WriteString("\n]\n")
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.f != nil {
		if err := t.f.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// ValidateTrace parses a trace produced by Close and returns its event
// count — the self-check behind aldabench -trace and the CI smoke step.
func ValidateTrace(r io.Reader) (int, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		return 0, fmt.Errorf("obs: trace is not a JSON event array: %w", err)
	}
	for i, e := range events {
		if _, ok := e["ph"].(string); !ok {
			return 0, fmt.Errorf("obs: trace event %d has no ph field", i)
		}
	}
	return len(events), nil
}

// ValidateTraceFile is ValidateTrace over a file path.
func ValidateTraceFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ValidateTrace(f)
}
