package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/harness"
)

// The job journal is a JSONL write-ahead log, the server's durability
// layer — the same discipline as the harness's cell checkpoints
// (fingerprint-guarded records, one line per write, torn trailing line
// tolerated) applied to jobs. Two record types matter:
//
//	{"type":"accept","seq":N,"id":"jN","req":{...}}   before a 202
//	{"type":"done","status":{...}}                    at terminal state
//
// plus a header line written atomically (temp file + rename) when the
// journal is created. Recovery reads the journal back: accepts without
// a matching done are exactly the jobs a crash interrupted, and because
// jobs are deterministic, re-running them yields results byte-identical
// to the run the crash stole.

const journalVersion = 1

// journalRecord is one JSONL line.
type journalRecord struct {
	Type string `json:"type"` // "hdr" | "accept" | "done" | "adapt"
	// Header fields.
	V  int    `json:"v,omitempty"`
	Fp string `json:"fp,omitempty"`
	// Accept fields. Tid is the trace ID minted at admission; journals
	// predating the field recover it by re-minting from Seq (the mint is
	// a pure function of the sequence number, so the identity is stable
	// either way).
	Seq uint64      `json:"seq,omitempty"`
	ID  string      `json:"id,omitempty"`
	Tid string      `json:"tid,omitempty"`
	Req *JobRequest `json:"req,omitempty"`
	// Done fields.
	Status *JobStatus `json:"status,omitempty"`
	// Adapt fields (adaptive-PGO epoch, see adapt.go): the merged
	// profile counts the adapted options re-derive from on recovery.
	// Journals written while the VM had two execution tiers also carry
	// an "eng" field; it named the tier and is ignored.
	Key    string            `json:"key,omitempty"`
	Epoch  int               `json:"epoch,omitempty"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// JournalFaults injects deterministic I/O failures for the chaos
// layer: the Nth append write (1-based) or the Nth fsync fails once
// with an injected error. Zero fields inject nothing.
type JournalFaults struct {
	FailWriteNth uint64
	FailSyncNth  uint64
}

// errInjected marks a chaos-injected journal failure.
var errInjected = errors.New("injected journal fault")

// Journal is the append side of the WAL; safe for concurrent workers.
// Appends are fsynced per record by default (SyncEvery 1): an accept
// must be on stable storage before the client sees its 202, or "zero
// lost accepted jobs" after kill -9 would be a lie.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	syncEvery int
	pending   int
	writes    uint64 // appends attempted, for fault ordinals
	syncs     uint64
	faults    JournalFaults
	degraded  atomic.Bool
	appends   atomic.Uint64
	errs      atomic.Uint64
}

// Recovered is what reading a journal back yields: terminal statuses
// by ID, unfinished accepted jobs in acceptance order, and the highest
// sequence number ever issued (so new IDs never collide with journaled
// ones).
type Recovered struct {
	Done       map[string]*JobStatus
	Unfinished []journalRecord          // accept records lacking a done, in seq order
	Adapt      map[string]journalRecord // last adaptation epoch per compile-affinity key
	MaxSeq     uint64
}

// OpenJournal opens (or creates) the journal at path and replays its
// contents. The fingerprint guards against resuming with a server
// configuration whose results would differ: a mismatch is an error,
// not silent corruption. A torn trailing line — the crash arrived
// mid-write — is tolerated exactly like the harness checkpoints
// tolerate it.
func OpenJournal(path, fp string, syncEvery int, faults JournalFaults) (*Journal, *Recovered, error) {
	if syncEvery <= 0 {
		syncEvery = 1
	}
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		// Atomic header write: the journal either exists with a complete
		// header line or not at all — a crash during creation cannot
		// leave a headerless file that a restart would misread.
		hdr, err := json.Marshal(journalRecord{Type: "hdr", V: journalVersion, Fp: fp})
		if err != nil {
			return nil, nil, err
		}
		if err := harness.WriteFileAtomic(path, append(hdr, '\n'), 0o644); err != nil {
			return nil, nil, err
		}
	}
	rec, err := readJournal(path, fp)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, path: path, syncEvery: syncEvery, faults: faults}, rec, nil
}

// readJournal parses the journal, verifying the header fingerprint.
func readJournal(path, fp string) (*Recovered, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := &Recovered{Done: map[string]*JobStatus{}, Adapt: map[string]journalRecord{}}
	var accepts []journalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	first := true
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn or foreign line (kill arrived mid-write)
		}
		if first {
			first = false
			if rec.Type != "hdr" {
				return nil, fmt.Errorf("journal %s: missing header", path)
			}
			if rec.Fp != fp {
				return nil, fmt.Errorf("journal %s: fingerprint mismatch: journal %q, server %q", path, rec.Fp, fp)
			}
			if rec.V != journalVersion {
				return nil, fmt.Errorf("journal %s: version %d, want %d", path, rec.V, journalVersion)
			}
			continue
		}
		switch rec.Type {
		case "accept":
			if rec.Req != nil && rec.ID != "" {
				accepts = append(accepts, rec)
				if rec.Seq > out.MaxSeq {
					out.MaxSeq = rec.Seq
				}
			}
		case "done":
			if rec.Status != nil && rec.Status.ID != "" {
				out.Done[rec.Status.ID] = rec.Status
			}
		case "adapt":
			// Last epoch per key wins: appended in epoch order, so a
			// plain overwrite replays to the final pre-crash state.
			if rec.Key != "" {
				out.Adapt[rec.Key] = rec
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, a := range accepts {
		if _, ok := out.Done[a.ID]; !ok {
			out.Unfinished = append(out.Unfinished, a)
		}
	}
	return out, nil
}

// append writes one record, honoring the batched-sync discipline and
// the injected fault schedule. On failure the journal flips to
// degraded: the server keeps serving (availability over durability —
// accepted work still completes, results just stop being crash-safe)
// and /readyz reports the degradation.
func (j *Journal) append(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writes++
	if j.faults.FailWriteNth != 0 && j.writes == j.faults.FailWriteNth {
		j.degraded.Store(true)
		j.errs.Add(1)
		return fmt.Errorf("append %d: %w", j.writes, errInjected)
	}
	if _, err := j.f.Write(b); err != nil { // one line per write: no torn records from the writer side
		j.degraded.Store(true)
		j.errs.Add(1)
		return err
	}
	j.appends.Add(1)
	j.pending++
	if j.pending >= j.syncEvery {
		j.pending = 0
		j.syncs++
		if j.faults.FailSyncNth != 0 && j.syncs == j.faults.FailSyncNth {
			j.degraded.Store(true)
			j.errs.Add(1)
			return fmt.Errorf("sync %d: %w", j.syncs, errInjected)
		}
		if err := j.f.Sync(); err != nil {
			j.degraded.Store(true)
			j.errs.Add(1)
			return err
		}
	}
	return nil
}

// AppendAccept journals an accepted job before its 202 is sent.
func (j *Journal) AppendAccept(seq uint64, id, tid string, req *JobRequest) error {
	return j.append(journalRecord{Type: "accept", Seq: seq, ID: id, Tid: tid, Req: req})
}

// AppendDone journals a job's terminal status.
func (j *Journal) AppendDone(status *JobStatus) error {
	return j.append(journalRecord{Type: "done", Status: status})
}

// AppendAdapt journals an adaptation epoch: the compile-affinity key
// that swapped and the merged profile that drove the swap. Recovery
// replays the record through the same pure AdaptOptions pass and lands
// on the identical analysis.
func (j *Journal) AppendAdapt(key string, epoch int, counts map[string]uint64) error {
	return j.append(journalRecord{Type: "adapt", Key: key, Epoch: epoch, Counts: counts})
}

// Degraded reports whether a journal write has failed; the server
// surfaces it on /readyz.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Stats reports appends that reached the file and append errors
// (injected or real).
func (j *Journal) Stats() (appends, errs uint64) { return j.appends.Load(), j.errs.Load() }

// Close flushes and closes the journal (part of graceful drain).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending > 0 {
		j.pending = 0
		j.f.Sync()
	}
	return j.f.Close()
}
