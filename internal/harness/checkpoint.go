package harness

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/vm"
)

// Cell checkpointing: every completed measurement cell appends one
// JSONL record, so a killed sweep loses at most the cells in flight.
// Records carry a config fingerprint; -resume replays only records
// whose grid, cell and fingerprint match, restoring the measured wall
// and overhead (or the degraded error) verbatim. Under -virtual the
// restored values equal what a re-measurement would produce, so a
// resumed sweep renders byte-identical to an uninterrupted one.

// checkpointRecord is one completed cell.
type checkpointRecord struct {
	Grid   string `json:"grid"`
	Cell   string `json:"cell"` // "<program>/<column>"
	Fp     string `json:"fp"`
	WallNS int64  `json:"wall_ns"`
	// Overhead is the cell's ratio to its row's plain cell, as the
	// table renders it; the plain cell's is 0.
	Overhead float64 `json:"overhead,omitempty"`
	ErrKind  string  `json:"err_kind,omitempty"`
	ErrMsg   string  `json:"err_msg,omitempty"`
	// Metrics carries the cell's deterministic observability counters
	// when the sweep ran with Config.Metrics, so a resumed sweep merges
	// the identical counts a re-measurement would have produced.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// fingerprint ties checkpoint records to the measurement parameters
// that determine their cells' values; a stale checkpoint from a
// different configuration is ignored rather than poisoning the resumed
// table.
func (c Config) fingerprint() string {
	// metrics participates because it changes what a record must carry:
	// a checkpoint written without counters cannot resume a metrics
	// sweep (the resumed cells would silently contribute nothing). The
	// estimator is named so that cells measured another way (such as
	// the minimum of repeated runs) never resume into a paired table.
	fp := fmt.Sprintf("size=%s reps=%d seed=%d virtual=%v metrics=%v estimator=paired-median",
		c.Size, c.Reps, c.Opt.Seed, c.Virtual, c.Metrics != nil)
	if c.TraceDir != "" {
		// Replay cells measure whatever stream is on disk: bind the
		// checkpoint to the trace bytes so a regenerated or mutated
		// trace invalidates cells recorded against the old one.
		fp += fmt.Sprintf(" trace=%016x", c.traceHash())
	}
	return fp
}

// checkpointSyncEvery batches fsync: every Nth appended record forces
// the file to stable storage. Between syncs a power loss can drop at
// most the unsynced tail — each record is still a single write, so the
// surviving prefix plus at most one torn line is all a reader ever
// sees, and loadCheckpoint tolerates the torn line.
const checkpointSyncEvery = 8

// checkpointWriter appends records to the checkpoint file; safe for the
// concurrent cell workers. Writes are durable: appended records are
// fsynced in small batches and on close, so a machine crash (not just a
// process kill) loses at most the last few cells.
type checkpointWriter struct {
	mu      sync.Mutex
	f       *os.File
	pending int // records appended since the last sync
}

func newCheckpointWriter(path string) (*checkpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &checkpointWriter{f: f}, nil
}

func (w *checkpointWriter) append(rec checkpointRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(b); err != nil { // one line per write: a kill never tears a record
		return err
	}
	w.pending++
	if w.pending >= checkpointSyncEvery {
		w.pending = 0
		return w.f.Sync()
	}
	return nil
}

// sync flushes any unsynced records to stable storage.
func (w *checkpointWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending == 0 {
		return nil
	}
	w.pending = 0
	return w.f.Sync()
}

func (w *checkpointWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending > 0 {
		w.pending = 0
		w.f.Sync()
	}
	return w.f.Close()
}

// loadCheckpoint reads the records of path that match the grid and
// fingerprint, keyed by cell. A missing file is an empty resume, not an
// error (first run with -resume -checkpoint is legal); a torn trailing
// line (the kill arrived mid-write) is skipped.
func loadCheckpoint(path, grid, fp string) (map[string]checkpointRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]checkpointRecord{}, nil
		}
		return nil, err
	}
	defer f.Close()
	out := map[string]checkpointRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec checkpointRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn or foreign line
		}
		if rec.Grid == grid && rec.Fp == fp {
			out[rec.Cell] = rec
		}
	}
	return out, sc.Err()
}

// restoreErr rehydrates a checkpointed degraded cell into an error that
// renders with the same kind label as the live failure did.
func restoreErr(rec checkpointRecord) error {
	if rec.ErrKind == "" {
		return nil
	}
	if k, ok := vm.ParseKind(rec.ErrKind); ok {
		return &vm.RunError{Kind: k, Msg: rec.ErrMsg}
	}
	return &cellFailure{kind: rec.ErrKind, msg: rec.ErrMsg}
}

// cellFailure is a non-VM cell error (builder failure, handler panic
// outside the VM) with the kind label it renders under.
type cellFailure struct {
	kind string
	msg  string
}

func (e *cellFailure) Error() string { return e.msg }

// errKindLabel maps a cell error to its degraded-cell label: the
// RunError kind name, a preserved checkpoint label, or "fail" for
// untyped errors (build failures and the like).
func errKindLabel(err error) string {
	var re *vm.RunError
	if errors.As(err, &re) {
		return re.Kind.String()
	}
	var cf *cellFailure
	if errors.As(err, &cf) {
		return cf.kind
	}
	return "fail"
}
