package obs

// FlightRecorder is the serving tier's one in-memory event log: two
// fixed-size rings of recent events, one for jobs and one for the
// server's control events, always on, O(1) and allocation-free to
// record into. Two views read it. The flight dump (GET /debug/flight,
// and a file written automatically when the journal degrades, a chaos
// fault fires, or the process takes SIGQUIT) shows each ring as
// recorded, so a failed chaos/soak run leaves behind the last events
// instead of nothing. The span view (Traces, GET /debug/spans) groups
// the same events by trace: a trace is a job's identity across its
// whole life — minted at admission, returned to the client, written
// into the journal, preserved across crash recovery — and its chain is
// the ordered pipeline stages the job passed through (accepted →
// queued → compiled → executed → journaled → done/error).
//
// The span view follows the deterministic/volatile split: chain
// structure (trace IDs, stage names, stage order, virtual costs) is a
// pure function of the submitted work and therefore byte-identical
// across serial, parallel and recovered runs; wall-clock stage timings
// are volatile and appear only in the includeVolatile view.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// MintTraceID derives a job's trace ID from its admission sequence
// number. The mapping is the splitmix64 finalizer — bijective on
// uint64, so distinct sequence numbers always yield distinct IDs — and
// deterministic, so a recovered job re-admitted at the same sequence
// number reclaims the same identity even from a journal predating the
// tid field.
func MintTraceID(seq uint64) string {
	z := seq ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fmt.Sprintf("t-%016x", z)
}

// FlightEvent is one ring record. Seq is a per-ring monotonic
// sequence number, so a dump shows how much history the ring dropped.
type FlightEvent struct {
	Seq     uint64 `json:"seq"`
	Trace   string `json:"trace,omitempty"`
	Stage   string `json:"stage"`
	Detail  string `json:"detail,omitempty"`
	Virtual uint64 `json:"virtual,omitempty"`
	WallUS  int64  `json:"wall_us,omitempty"`
}

// flightRing is one fixed ring with its own lock, so control events
// never wait on the job ring.
type flightRing struct {
	mu     sync.Mutex
	buf    []FlightEvent
	next   uint64            // total records ever written; buf index is next % len
	traces map[string]uint32 // events in buf per trace; no zero counts
}

// init sizes the ring to n events. The trace counts are pre-sized too:
// a ring never holds more traces than events, so Record's inserts and
// deletes never grow the map.
func (r *flightRing) init(n int) {
	r.buf = make([]FlightEvent, n)
	r.traces = make(map[string]uint32, n)
}

// live copies the ring's events oldest to newest and returns them with
// the number of records ever written.
func (r *flightRing) live() (events []FlightEvent, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.next, uint64(len(r.buf)))
	events = make([]FlightEvent, 0, n)
	for s := r.next - n; s < r.next; s++ {
		events = append(events, r.buf[s%uint64(len(r.buf))])
	}
	return events, r.next
}

// Ring selects one of the recorder's two rings: JobRing holds every
// job's admission, recovery and pipeline stages, ControlRing the
// server-level events (journal degradation).
type Ring int

const (
	JobRing Ring = iota
	ControlRing
)

// ringNames label the rings in a dump.
var ringNames = [...]string{JobRing: "jobs", ControlRing: "control"}

// DefaultFlightRing is the default job-ring capacity: 1,024 six-stage
// job chains. The two rings' events then preallocate 443,520 bytes, and
// their pre-sized trace counts about 220 KB more.
const DefaultFlightRing = 6144

// FlightRecorder holds the job ring and the control ring.
type FlightRecorder struct {
	rings [2]flightRing
}

// FlightSnapshot is the dump shape: per-ring event lists in
// oldest-to-newest order, plus how many records each ring dropped.
type FlightSnapshot struct {
	TakenAt string           `json:"taken_at,omitempty"`
	Reason  string           `json:"reason,omitempty"`
	Rings   []FlightRingDump `json:"rings"`
}

// FlightRingDump is one ring's dump.
type FlightRingDump struct {
	Ring    string        `json:"ring"`
	Total   uint64        `json:"total"`
	Dropped uint64        `json:"dropped"`
	Events  []FlightEvent `json:"events"`
}

// NewFlightRecorder builds a recorder whose job ring holds jobEvents
// events (minimum 16) and whose control ring holds 16: its one writer
// records an event per journal error.
func NewFlightRecorder(jobEvents int) *FlightRecorder {
	f := &FlightRecorder{}
	f.rings[JobRing].init(max(jobEvents, 16))
	f.rings[ControlRing].init(16)
	return f
}

// Record appends one event to a ring — O(1), no allocation beyond the
// strings the caller already holds. It keeps the ring's per-trace event
// counts: the new event's trace gains one, the overwritten event's
// trace loses one and leaves the map at zero.
func (f *FlightRecorder) Record(ring Ring, ev FlightEvent) {
	r := &f.rings[ring]
	r.mu.Lock()
	ev.Seq = r.next
	slot := &r.buf[r.next%uint64(len(r.buf))]
	if old := slot.Trace; old != "" {
		if n := r.traces[old]; n > 1 {
			r.traces[old] = n - 1
		} else {
			delete(r.traces, old)
		}
	}
	if ev.Trace != "" {
		r.traces[ev.Trace]++
	}
	*slot = ev
	r.next++
	r.mu.Unlock()
}

// LiveTraces is the number of traces in the span view, len(Traces(…)),
// read from the counts Record keeps instead of building the view. A
// trace's events sit in one ring (jobs in the job ring, server events
// in the control ring), so the rings' counts add up.
func (f *FlightRecorder) LiveTraces() int {
	n := 0
	for i := range f.rings {
		r := &f.rings[i]
		r.mu.Lock()
		n += len(r.traces)
		r.mu.Unlock()
	}
	return n
}

// SpanStage is one pipeline stage within a trace. Wall microseconds are
// volatile; everything else is deterministic structure.
type SpanStage struct {
	Stage   string `json:"stage"`
	Virtual uint64 `json:"virtual,omitempty"`
	WallUS  int64  `json:"wall_us,omitempty"`
}

// TraceExport is one trace's exported span chain.
type TraceExport struct {
	Trace  string      `json:"trace"`
	Stages []SpanStage `json:"stages"`
}

// Traces is the span view: the rings' events grouped by trace, each
// chain in recording order, traces sorted by ID. Events without a
// trace are left out. With includeVolatile false the wall-clock fields
// are zeroed, leaving only the deterministic structure — the form the
// determinism tests compare across serial and parallel runs. A trace
// recorded into one ring keeps its chain whole until the ring wraps
// past it; a trace whose oldest events were overwritten shows the
// events that remain.
func (f *FlightRecorder) Traces(includeVolatile bool) []TraceExport {
	out := []TraceExport{}
	index := map[string]int{}
	for i := range f.rings {
		events, _ := f.rings[i].live()
		for _, ev := range events {
			if ev.Trace == "" {
				continue
			}
			k, ok := index[ev.Trace]
			if !ok {
				k = len(out)
				index[ev.Trace] = k
				out = append(out, TraceExport{Trace: ev.Trace})
			}
			st := SpanStage{Stage: ev.Stage, Virtual: ev.Virtual}
			if includeVolatile {
				st.WallUS = ev.WallUS
			}
			out[k].Stages = append(out[k].Stages, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace < out[j].Trace })
	return out
}

// Snapshot copies both rings in oldest-to-newest order.
func (f *FlightRecorder) Snapshot(reason string) FlightSnapshot {
	snap := FlightSnapshot{
		TakenAt: time.Now().UTC().Format(time.RFC3339Nano),
		Reason:  reason,
		Rings:   make([]FlightRingDump, len(f.rings)),
	}
	for i := range f.rings {
		events, total := f.rings[i].live()
		snap.Rings[i] = FlightRingDump{Ring: ringNames[i], Total: total, Dropped: total - uint64(len(events)), Events: events}
	}
	return snap
}

// WriteSnapshot writes a snapshot as indented JSON.
func (f *FlightRecorder) WriteSnapshot(w io.Writer, reason string) error {
	b, err := json.MarshalIndent(f.Snapshot(reason), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// SnapshotToFile dumps the rings to path with WriteFileAtomic, so a
// crash mid-dump never leaves a torn file.
func (f *FlightRecorder) SnapshotToFile(path, reason string) error {
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf, reason); err != nil {
		return err
	}
	return WriteFileAtomic(path, buf.Bytes(), 0o644)
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place — a crash leaves
// either the old file or the complete new one, never a torn prefix.
// It serves whole-file artifacts (flight snapshots, recorded replay
// traces, journal headers) whose readers cannot tolerate partial
// contents the way the JSONL record streams can.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, path)
}
