// Package trace defines the compressed binary event-stream format a
// recording VM run emits, and decodes it for replay. A trace captures
// everything about one execution that is not recomputable from the
// program text and the thread interleaving: load values, library-call
// results, and the scheduler's quantum decisions. Register arithmetic,
// branches, lock state and stack layout are deterministic given those
// inputs, so a replaying VM re-derives them instead of storing them —
// that is what makes the stream small.
//
// Layout (all integers varint unless noted):
//
//	header:  "ALDATRC1" | uvarint version | fixed64 LE program fingerprint
//	         | svarint scheduler seed | uvarint quantum
//	records: 0x01 batch  svarint Δtid, uvarint psteps, uvarint thooks,
//	                     uvarint len(payload), payload
//	         0x02 end    uvarint exit            (exactly one terminal,
//	         0x03 fail   string kind, string msg  as the final record)
//
// A batch is one scheduler quantum: psteps non-hook instructions retired
// plus thooks trailing hook dispatches after the last non-hook step —
// together they pin the quantum boundary exactly without referencing
// the instrumentation schema, so a trace recorded from the plain
// program replays into any instrumented clone of it.
//
// Payload events use stride predictors à la SD3: each load/store
// address (and each load value) is encoded as the signed residual
// against a {last, stride} predictor, and runs of perfectly predicted
// accesses collapse into a single run-length record. Predictor state
// persists across batches; the Writer and Decode run identical copies.
//
//	0x10 load    svarint addr-resid, svarint val-resid
//	0x11 store   svarint addr-resid
//	0x12 repload uvarint n   (n loads, all residuals zero)
//	0x13 repstore uvarint n
//	0x14 lib     svarint Δret
//	0x15 lock    svarint Δaddr      0x16 unlock  svarint Δaddr
//	0x17 join    uvarint target     0x18 spawn   uvarint tid
//	0x19 alloc   svarint Δaddr, uvarint size
//	0x1a free    svarint Δaddr
//
// Decode is the only decoder. Its one pass validates the stream and
// keeps every record and event with absolute operands, so a Cursor
// replays the Trace without parsing bytes or running predictors. It is
// hardened against adversarial input: every length field is validated
// against the bytes actually present before use, and a run-length
// record stays three entries whatever count it claims, so a corrupt
// trace yields a typed *DecodeError, never a panic, and decoded memory
// stays proportional to the input's size.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic begins every trace file.
const Magic = "ALDATRC1"

// Version is the current format version.
const Version = 1

// Record tags.
const (
	recBatch = 0x01
	recEnd   = 0x02
	recFail  = 0x03
)

// EvKind identifies one replayable event.
type EvKind uint8

// Event kinds as surfaced by Cursor.Next (run-length records are
// materialized back into their individual loads/stores).
const (
	EvLoad EvKind = 0x10 + iota
	EvStore
	evRepLoad  // internal: expanded by the cursor
	evRepStore // internal: expanded by the cursor
	EvLib
	EvLock
	EvUnlock
	EvJoin
	EvSpawn
	EvAlloc
	EvFree
)

func (k EvKind) String() string {
	switch k {
	case EvLoad:
		return "load"
	case EvStore:
		return "store"
	case EvLib:
		return "lib"
	case EvLock:
		return "lock"
	case EvUnlock:
		return "unlock"
	case EvJoin:
		return "join"
	case EvSpawn:
		return "spawn"
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	}
	return fmt.Sprintf("ev(%#x)", uint8(k))
}

// DecodeError is the typed failure every malformed input maps to.
type DecodeError struct {
	Off int    // byte offset the decoder stopped at
	Msg string // what was wrong
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("trace: corrupt at offset %d: %s", e.Off, e.Msg)
}

// ErrBatchDrained reports that the current batch has no more events;
// the caller then advances to the next record. It is the only error
// Cursor.Next returns: Decode has already validated every event.
var ErrBatchDrained = errors.New("trace: batch drained")

// failStringCap bounds the kind/msg strings of a fail record; real
// RunError messages are far below it, and it stops a crafted length
// field from forcing a giant allocation.
const failStringCap = 1 << 16

// pred is one stride predictor. predict() guesses last+stride; observe
// folds the true value in. Writer and Decode run identical copies.
type pred struct{ last, stride uint64 }

func (p *pred) predict() uint64  { return p.last + p.stride }
func (p *pred) observe(x uint64) { p.stride = x - p.last; p.last = x }

// preds is the full predictor state threaded through a stream.
type preds struct {
	loadA, loadV pred   // load address / load value
	storeA       pred   // store address
	lastSync     uint64 // lock/unlock address delta chain
	lastRet      uint64 // library return-value delta chain
	lastAlloc    uint64 // alloc/free address delta chain
}

// Stats summarizes one trace for the observability surface.
type Stats struct {
	ProgFP  uint64
	Seed    int64
	Quantum int

	Batches uint64 // scheduler quanta recorded
	Events  uint64 // individual events (rep runs expanded)
	Loads   uint64
	Stores  uint64
	RepRuns uint64 // run-length records emitted
	Libs    uint64
	Locks   uint64
	Unlocks uint64
	Joins   uint64
	Spawns  uint64
	Allocs  uint64
	Frees   uint64

	Bytes    uint64 // encoded size including header
	RawBytes uint64 // fixed-width encoding of the same events (ratio denominator)
}

// Ratio returns RawBytes/Bytes — the compression the stride/varint
// encoding achieved over a naive fixed-width event stream.
func (s Stats) Ratio() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.Bytes)
}

// rawCost is the fixed-width byte cost an event contributes to
// RawBytes: 1 tag byte plus 8 bytes per operand.
func rawCost(kind EvKind) uint64 {
	switch kind {
	case EvLoad, EvAlloc:
		return 17
	default:
		return 9
	}
}

const rawBatchCost = 1 + 8 + 8 + 8 // tag + tid + psteps + thooks, fixed width

// count adds n events of kind to s.
func (s *Stats) count(kind EvKind, n uint64) {
	s.Events += n
	s.RawBytes += n * rawCost(kind)
	switch kind {
	case EvLoad:
		s.Loads += n
	case EvStore:
		s.Stores += n
	case EvLib:
		s.Libs += n
	case EvLock:
		s.Locks += n
	case EvUnlock:
		s.Unlocks += n
	case EvJoin:
		s.Joins += n
	case EvSpawn:
		s.Spawns += n
	case EvAlloc:
		s.Allocs += n
	case EvFree:
		s.Frees += n
	}
}

// ---------------------------------------------------------------------------
// Writer

// Writer encodes a trace onto a sink. Errors are sticky: the first
// write failure latches and every later call is a no-op, so the VM's
// hot path records without per-event error plumbing and checks Err
// once at the end.
type Writer struct {
	sink io.Writer
	err  error

	p       preds
	payload []byte // current batch, flushed by EndBatch
	repKind EvKind // evRepLoad/evRepStore while a run is open, else 0
	repN    uint64
	lastTid int64

	scratch [8 * binary.MaxVarintLen64]byte // batch header: tag + 4 varints
	stats   Stats
	done    bool
}

// NewWriter starts a trace on sink, writing the header immediately.
// progFP is the program fingerprint replay validates against; seed and
// quantum are recorded for provenance and stats.
func NewWriter(sink io.Writer, progFP uint64, seed int64, quantum int) *Writer {
	w := &Writer{sink: sink}
	w.stats.ProgFP = progFP
	w.stats.Seed = seed
	w.stats.Quantum = quantum
	var hdr []byte
	hdr = append(hdr, Magic...)
	hdr = binary.AppendUvarint(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, progFP)
	hdr = binary.AppendVarint(hdr, seed)
	hdr = binary.AppendUvarint(hdr, uint64(quantum))
	w.write(hdr)
	w.stats.RawBytes += uint64(len(hdr))
	return w
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.sink.Write(b); err != nil {
		w.err = err
	}
	w.stats.Bytes += uint64(len(b))
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return w.err }

// Stats returns the running statistics of the stream so far.
func (w *Writer) Stats() Stats { return w.stats }

func (w *Writer) flushRep() {
	if w.repN == 0 {
		return
	}
	w.payload = append(w.payload, byte(w.repKind))
	w.payload = binary.AppendUvarint(w.payload, w.repN)
	w.stats.RepRuns++
	w.repN, w.repKind = 0, 0
}

func (w *Writer) event(kind EvKind) {
	w.flushRep()
	w.payload = append(w.payload, byte(kind))
	w.stats.Events++
	w.stats.RawBytes += rawCost(kind)
}

// Load records one memory read: its address and the value produced.
func (w *Writer) Load(addr, val uint64) {
	pa, pv := w.p.loadA.predict(), w.p.loadV.predict()
	w.stats.Loads++
	if addr == pa && val == pv {
		if w.repKind != evRepLoad {
			w.flushRep()
			w.repKind = evRepLoad
		}
		w.repN++
		w.stats.Events++
		w.stats.RawBytes += rawCost(EvLoad)
	} else {
		w.event(EvLoad)
		w.payload = binary.AppendVarint(w.payload, int64(addr-pa))
		w.payload = binary.AppendVarint(w.payload, int64(val-pv))
	}
	w.p.loadA.observe(addr)
	w.p.loadV.observe(val)
}

// Store records one memory write's address (the value is recomputed at
// replay; only loads need their data).
func (w *Writer) Store(addr uint64) {
	pa := w.p.storeA.predict()
	w.stats.Stores++
	if addr == pa {
		if w.repKind != evRepStore {
			w.flushRep()
			w.repKind = evRepStore
		}
		w.repN++
		w.stats.Events++
		w.stats.RawBytes += rawCost(EvStore)
	} else {
		w.event(EvStore)
		w.payload = binary.AppendVarint(w.payload, int64(addr-pa))
	}
	w.p.storeA.observe(addr)
}

// Lib records a library call's return value; replay skips the model
// body and substitutes this.
func (w *Writer) Lib(ret uint64) {
	w.event(EvLib)
	w.payload = binary.AppendVarint(w.payload, int64(ret-w.p.lastRet))
	w.p.lastRet = ret
	w.stats.Libs++
}

func (w *Writer) sync(kind EvKind, addr uint64) {
	w.event(kind)
	w.payload = binary.AppendVarint(w.payload, int64(addr-w.p.lastSync))
	w.p.lastSync = addr
}

// Lock records a lock-acquire attempt (including ones that block).
func (w *Writer) Lock(addr uint64) { w.sync(EvLock, addr); w.stats.Locks++ }

// Unlock records a lock release.
func (w *Writer) Unlock(addr uint64) { w.sync(EvUnlock, addr); w.stats.Unlocks++ }

// Join records a join attempt on a thread handle.
func (w *Writer) Join(target uint64) {
	w.event(EvJoin)
	w.payload = binary.AppendUvarint(w.payload, target)
	w.stats.Joins++
}

// Spawn records a successful thread spawn and the new thread's id.
func (w *Writer) Spawn(tid uint64) {
	w.event(EvSpawn)
	w.payload = binary.AppendUvarint(w.payload, tid)
	w.stats.Spawns++
}

// Alloc records a heap allocation (address and requested size).
func (w *Writer) Alloc(addr, size uint64) {
	w.event(EvAlloc)
	w.payload = binary.AppendVarint(w.payload, int64(addr-w.p.lastAlloc))
	w.payload = binary.AppendUvarint(w.payload, size)
	w.p.lastAlloc = addr
	w.stats.Allocs++
}

// Free records a heap release.
func (w *Writer) Free(addr uint64) {
	w.event(EvFree)
	w.payload = binary.AppendVarint(w.payload, int64(addr-w.p.lastAlloc))
	w.p.lastAlloc = addr
	w.stats.Frees++
}

// EndBatch closes the current scheduler quantum: tid ran psteps
// non-hook instructions with thooks trailing hook dispatches, emitting
// the accumulated payload.
func (w *Writer) EndBatch(tid int, psteps, thooks uint64) {
	w.flushRep()
	b := w.scratch[:0]
	b = append(b, recBatch)
	b = binary.AppendVarint(b, int64(tid)-w.lastTid)
	w.lastTid = int64(tid)
	b = binary.AppendUvarint(b, psteps)
	b = binary.AppendUvarint(b, thooks)
	b = binary.AppendUvarint(b, uint64(len(w.payload)))
	w.write(b)
	w.write(w.payload)
	w.payload = w.payload[:0]
	w.stats.Batches++
	w.stats.RawBytes += rawBatchCost
}

// End writes the success terminal (the program's exit value) and
// returns the sticky error state. A Writer is single-terminal: later
// terminal calls are no-ops.
func (w *Writer) End(exit uint64) error {
	if w.done {
		return w.err
	}
	w.done = true
	var b []byte
	b = append(b, recEnd)
	b = binary.AppendUvarint(b, exit)
	w.write(b)
	w.stats.RawBytes += 9
	return w.err
}

// Fail writes the failure terminal: the run ended with a typed error of
// the given kind and message, which replay reproduces verbatim.
func (w *Writer) Fail(kind, msg string) error {
	if w.done {
		return w.err
	}
	w.done = true
	var b []byte
	b = append(b, recFail)
	b = binary.AppendUvarint(b, uint64(len(kind)))
	b = append(b, kind...)
	b = binary.AppendUvarint(b, uint64(len(msg)))
	b = append(b, msg...)
	w.write(b)
	w.stats.RawBytes += uint64(9 + len(kind) + len(msg))
	return w.err
}

// ---------------------------------------------------------------------------
// Trace + Decode

// Trace is a decoded, validated trace: Decode keeps every record and
// every batch event it decodes, with absolute operands, so replay never
// parses the bytes again. A Trace is read-only after Decode: any number
// of Cursors may replay it concurrently.
type Trace struct {
	ProgFP  uint64
	Seed    int64
	Quantum int
	stats   Stats

	// chunks hold the batches in stream order, each batch inside one
	// chunk: an entry {psteps, thooks}, an entry {tid, count of event
	// entries}, then the event entries. A run-length record is three
	// event entries: {its tag, its count}, its first access, and the
	// stride each later access adds.
	chunks [][]Event
	term   Rec // the terminal record, which follows the last batch
}

// chunkLen is the entry count of a chunk, unless one batch needs more
// or the whole input could need less.
const chunkLen = 1 << 15

// Stats returns the aggregate statistics computed during Decode.
func (t *Trace) Stats() Stats { return t.stats }

// decoder is Decode's single pass: the bytes, the read offset, the
// predictors the writer ran, the Trace it fills, and the first error.
type decoder struct {
	data []byte
	pos  int
	p    preds
	t    *Trace
	err  error
}

// Decode validates data as a complete trace — header, every record,
// every event, exactly one terminal — and returns it decoded, ready for
// replay. Decode does not retain data, and the Trace takes memory
// proportional to len(data): a run-length record stays three entries
// whatever count it claims.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, &DecodeError{Off: 0, Msg: "bad magic"}
	}
	t := &Trace{}
	d := &decoder{data: data, pos: len(Magic), t: t}
	end := len(data)
	if ver := d.uvarint(end, "version"); d.err == nil && ver != Version {
		d.fail(len(Magic), fmt.Sprintf("unsupported version %d", ver))
	}
	if d.err == nil && end-d.pos < 8 {
		d.fail(d.pos, "truncated fingerprint")
	}
	if d.err != nil {
		return nil, d.err
	}
	t.ProgFP = binary.LittleEndian.Uint64(data[d.pos:])
	d.pos += 8
	t.Seed = d.svarint(end, "seed")
	if q := d.uvarint(end, "quantum"); q > 1<<30 {
		d.fail(d.pos, "implausible quantum")
	} else {
		t.Quantum = int(q)
	}
	t.stats = Stats{ProgFP: t.ProgFP, Seed: t.Seed, Quantum: t.Quantum, Bytes: uint64(end), RawBytes: uint64(d.pos)}

	var tid int64
	for d.err == nil && d.pos < end {
		tag := data[d.pos]
		d.pos++
		switch tag {
		case recBatch:
			if tid += d.svarint(end, "batch tid"); d.err == nil && (tid < 0 || tid > 1<<20) {
				d.fail(d.pos, "implausible batch tid")
			}
			psteps := d.uvarint(end, "batch psteps")
			thooks := d.uvarint(end, "batch thooks")
			if plen := d.uvarint(end, "batch payload length"); d.err == nil && plen > uint64(end-d.pos) {
				d.fail(d.pos, fmt.Sprintf("batch payload length %d exceeds remaining %d bytes", plen, end-d.pos))
			} else if d.err == nil {
				d.batch(tid, psteps, thooks, d.pos+int(plen))
			}
		case recEnd:
			t.term = Rec{Kind: RecEnd, Exit: d.uvarint(end, "exit value")}
			return d.terminal()
		case recFail:
			t.term = Rec{Kind: RecFail, FailKind: d.str(end, "fail kind")}
			t.term.FailMsg = d.str(end, "fail message")
			t.stats.RawBytes += uint64(len(t.term.FailKind) + len(t.term.FailMsg))
			return d.terminal()
		default:
			d.fail(d.pos-1, fmt.Sprintf("unknown record tag %#x", tag))
		}
	}
	if d.err == nil {
		d.fail(d.pos, "missing terminal record (torn trace)")
	}
	return nil, d.err
}

// terminal finishes Decode once the terminal record is read: it must be
// the final record.
func (d *decoder) terminal() (*Trace, error) {
	if d.err == nil && d.pos < len(d.data) {
		d.fail(d.pos, "data after terminal record")
	}
	if d.err != nil {
		return nil, d.err
	}
	d.t.stats.RawBytes += 9
	return d.t, nil
}

// fail records the first error; the reads after it return zeros and
// Decode returns it at its next check.
func (d *decoder) fail(off int, msg string) {
	if d.err == nil {
		d.err = &DecodeError{Off: off, Msg: msg}
	}
}

func (d *decoder) uvarint(limit int, what string) uint64 {
	v, n := binary.Uvarint(d.data[d.pos:limit])
	if n <= 0 {
		d.fail(d.pos, "truncated "+what)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) svarint(limit int, what string) int64 {
	v, n := binary.Varint(d.data[d.pos:limit])
	if n <= 0 {
		d.fail(d.pos, "truncated "+what)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) str(limit int, what string) string {
	n := d.uvarint(limit, what+" length")
	if d.err != nil {
		return ""
	}
	if n > failStringCap || n > uint64(limit-d.pos) {
		d.fail(d.pos, fmt.Sprintf("%s length %d exceeds available data", what, n))
		return ""
	}
	d.pos += int(n)
	return string(d.data[d.pos-int(n) : d.pos])
}

// batch decodes one batch, whose payload ends at byte offset limit,
// onto the last chunk, and counts its events. A payload byte pair
// decodes to at most three entries, so the batch is known to fit before
// it is decoded.
func (d *decoder) batch(tid int64, psteps, thooks uint64, limit int) {
	t, p, st := d.t, &d.p, &d.t.stats
	need := 2 + 3*(limit-d.pos)/2
	if n := len(t.chunks); n == 0 || cap(t.chunks[n-1])-len(t.chunks[n-1]) < need {
		t.chunks = append(t.chunks, make([]Event, 0, max(need, min(chunkLen, 3*len(d.data)/2))))
	}
	out := t.chunks[len(t.chunks)-1]
	out = append(out, Event{Addr: psteps, Val: thooks}, Event{Addr: uint64(tid)})
	hdr := len(out) - 1
	for d.err == nil && d.pos < limit {
		tag := EvKind(d.data[d.pos])
		d.pos++
		ev := Event{Kind: tag}
		switch tag {
		case EvLoad:
			ev.Addr = p.loadA.predict() + uint64(d.svarint(limit, "load address residual"))
			ev.Val = p.loadV.predict() + uint64(d.svarint(limit, "load value residual"))
			p.loadA.observe(ev.Addr)
			p.loadV.observe(ev.Val)
		case EvStore:
			ev.Addr = p.storeA.predict() + uint64(d.svarint(limit, "store address residual"))
			p.storeA.observe(ev.Addr)
		case evRepLoad, evRepStore:
			n := d.uvarint(limit, "rep count")
			if n == 0 { // or unreadable, which already failed
				d.fail(d.pos, "empty rep run")
				continue
			}
			// Every access of a run is predicted, so the stride holds
			// and the predictors end n strides on.
			first, a, v := Event{Kind: EvStore}, &p.storeA, &pred{}
			if tag == evRepLoad {
				first.Kind, a, v = EvLoad, &p.loadA, &p.loadV
			}
			first.Addr, first.Val = a.predict(), v.predict()
			out = append(out, Event{Kind: tag, Addr: n}, first, Event{Addr: a.stride, Val: v.stride})
			a.last += n * a.stride
			v.last += n * v.stride
			st.count(first.Kind, n)
			st.RepRuns++
			continue
		case EvLib:
			p.lastRet += uint64(d.svarint(limit, "lib return delta"))
			ev.Val = p.lastRet
		case EvLock, EvUnlock:
			p.lastSync += uint64(d.svarint(limit, "sync address delta"))
			ev.Addr = p.lastSync
		case EvJoin:
			ev.Val = d.uvarint(limit, "join target")
		case EvSpawn:
			ev.Val = d.uvarint(limit, "spawn tid")
		case EvAlloc, EvFree:
			p.lastAlloc += uint64(d.svarint(limit, tag.String()+" address delta"))
			ev.Addr = p.lastAlloc
			if tag == EvAlloc {
				ev.Val = d.uvarint(limit, "alloc size")
			}
		default:
			d.fail(d.pos-1, fmt.Sprintf("unknown event tag %#x", uint8(tag)))
		}
		out = append(out, ev)
		st.count(tag, 1)
	}
	out[hdr].Val = uint64(len(out) - hdr - 1)
	t.chunks[len(t.chunks)-1] = out
	st.Batches++
	st.RawBytes += rawBatchCost
}

// ---------------------------------------------------------------------------
// Cursor

// RecKind identifies a record surfaced by Cursor.NextRecord.
type RecKind uint8

// Record kinds.
const (
	RecBatch RecKind = iota
	RecEnd
	RecFail
)

// Rec is one decoded record.
type Rec struct {
	Kind     RecKind
	Tid      int    // RecBatch: thread granted the quantum
	PSteps   uint64 // RecBatch: non-hook instructions retired
	THooks   uint64 // RecBatch: trailing hook dispatches
	Exit     uint64 // RecEnd
	FailKind string // RecFail
	FailMsg  string // RecFail
}

// Event is one decoded batch event. Field use per kind: load
// {Addr,Val}; store/lock/unlock/free {Addr}; lib {Val=ret}; join
// {Val=target}; spawn {Val=tid}; alloc {Addr, Val=size}.
type Event struct {
	Kind EvKind
	Addr uint64
	Val  uint64
}

// Cursor walks a Trace record by record. It holds only positions into
// the decoded Trace, so concurrent replays of one Trace are safe.
type Cursor struct {
	t      *Trace
	chunks [][]Event // chunks not yet entered
	evs    []Event   // the current chunk
	i, end int       // next entry in evs, and the end of the current batch
	next   Event     // the open run's next access
	stride Event     // what each access of the open run adds to the last
	left   uint64    // accesses left in the open run
	done   bool      // the terminal has been returned
}

// Cursor returns a fresh cursor positioned at the first record.
func (t *Trace) Cursor() *Cursor { return &Cursor{t: t, chunks: t.chunks} }

// NextRecord advances to the next record, skipping whatever the current
// batch has not yet returned. Returns io.EOF after the terminal.
func (c *Cursor) NextRecord() (Rec, error) {
	c.i, c.left = c.end, 0
	if c.i == len(c.evs) {
		if len(c.chunks) == 0 {
			if c.done {
				return Rec{}, io.EOF
			}
			c.done = true
			return c.t.term, nil
		}
		c.evs, c.chunks, c.i = c.chunks[0], c.chunks[1:], 0
	}
	h, x := c.evs[c.i], c.evs[c.i+1]
	c.i += 2
	c.end = c.i + int(x.Val)
	return Rec{Kind: RecBatch, Tid: int(x.Addr), PSteps: h.Addr, THooks: h.Val}, nil
}

// Next returns the next event of the current batch, expanding run-length
// records into their individual loads/stores. Returns ErrBatchDrained
// when the batch is exhausted.
func (c *Cursor) Next() (Event, error) {
	if c.left == 0 {
		if c.i == c.end {
			return Event{}, ErrBatchDrained
		}
		ev := c.evs[c.i]
		c.i++
		if ev.Kind != evRepLoad && ev.Kind != evRepStore {
			return ev, nil
		}
		c.left, c.next, c.stride = ev.Addr, c.evs[c.i], c.evs[c.i+1]
		c.i += 2
	}
	c.left--
	ev := c.next
	c.next.Addr += c.stride.Addr
	c.next.Val += c.stride.Val
	return ev, nil
}
