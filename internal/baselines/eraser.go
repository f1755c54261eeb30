package baselines

import (
	"sync"

	"repro/internal/compiler"
	"repro/internal/lang/ast"
	"repro/internal/meta"
	"repro/internal/vm"
)

// Eraser is the hand-tuned Eraser of §6.2: "we optimized Eraser with
// hash-based locking operations, static tables to represent state
// transformations, and careful data-structure selection."
//
//   - Lock identifiers are interned through a hash table into dense ids
//     so locksets are 4-word bit-vectors (256 locks).
//   - Per-address metadata is one 6-word entry (4-word candidate
//     lockset, 64-thread bit-vector, status) in the page table ALDA's
//     Eraser also runs on (meta.NewPageTableMap) — one lookup per access.
//   - The Virgin/Exclusive/Shared/Shared-Modified transitions come from
//     static tables indexed by the current status.
type Eraser struct {
	mu sync.Mutex // the analysis-global lock ("address := pointer : sync")

	lockIDs map[uint64]uint64 // hash-based lock interning
	// Per-thread locksets (all locks + write locks).
	threadLock  [64][4]uint64
	threadWLock [64][4]uint64

	shadow *meta.ChunkMap // per 8-byte granule: eLocks, eThreads, eStatus
}

const (
	eVirgin = iota
	eExclusive
	eShared
	eSharedModified
)

// Static state-transition tables: next status for a load / store by a
// new thread, and for a store by a known thread.
var (
	eraserLoadNewThread  = [4]uint8{eVirgin, eShared, eShared, eSharedModified}
	eraserStoreNewThread = [4]uint8{eExclusive, eSharedModified, eSharedModified, eSharedModified}
	eraserStoreKnown     = [4]uint8{eVirgin, eExclusive, eSharedModified, eSharedModified}
)

// Entry word offsets: the candidate lockset in words 0–3.
const (
	eLocks   = 0
	eThreads = 4
	eStatus  = 5
)

// NewEraser returns a fresh hand-tuned Eraser for one run. An address's
// candidate lockset starts as the universe.
func NewEraser() *Eraser {
	tmpl := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), 0, eVirgin}
	return &Eraser{
		lockIDs: make(map[uint64]uint64),
		shadow:  meta.NewPageTableMap(vm.AddrSpace>>3, 6, tmpl),
	}
}

// Name identifies the baseline.
func (e *Eraser) Name() string { return "eraser-hand" }

// NeedShadow reports that Eraser does not use register metadata.
func (e *Eraser) NeedShadow() bool { return false }

// Footprint returns the page-table storage plus the lock-interning and
// per-thread tables.
func (e *Eraser) Footprint() uint64 {
	n := e.shadow.Bytes()
	n += uint64(len(e.lockIDs)) * 48
	n += uint64(len(e.threadLock)+len(e.threadWLock)) * 32
	return n
}

func (e *Eraser) internLock(l uint64) uint64 {
	if id, ok := e.lockIDs[l]; ok {
		return id
	}
	id := uint64(len(e.lockIDs)) & 255
	e.lockIDs[l] = id
	return id
}

func lsEmpty(ls *[4]uint64) bool {
	return ls[0]|ls[1]|ls[2]|ls[3] == 0
}

func lsAnd(dst, src *[4]uint64) {
	dst[0] &= src[0]
	dst[1] &= src[1]
	dst[2] &= src[2]
	dst[3] &= src[3]
}

// Handler table indices.
const (
	eraserLock = iota
	eraserUnlock
	eraserLoad
	eraserStore
	eraserHN
)

// Handlers returns the hook table.
func (e *Eraser) Handlers() []vm.HandlerFn {
	h := make([]vm.HandlerFn, eraserHN)
	h[eraserLock] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		e.mu.Lock()
		id := e.internLock(a[0])
		t := a[1] & 63
		e.threadLock[t][id/64] |= 1 << (id % 64)
		e.threadWLock[t][id/64] |= 1 << (id % 64)
		e.mu.Unlock()
		return 0
	}
	h[eraserUnlock] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		e.mu.Lock()
		id := e.internLock(a[0])
		t := a[1] & 63
		e.threadLock[t][id/64] &^= 1 << (id % 64)
		e.threadWLock[t][id/64] &^= 1 << (id % 64)
		e.mu.Unlock()
		return 0
	}
	h[eraserLoad] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		e.mu.Lock()
		ent := e.shadow.Entry(a[0] >> 3)
		t := a[1] & 63
		bit := uint64(1) << (t % 64)
		if ent[eThreads]&bit == 0 && ent[eStatus] != eVirgin {
			ent[eStatus] = uint64(eraserLoadNewThread[ent[eStatus]])
			ent[eThreads] |= bit
		}
		if ent[eStatus] > eExclusive {
			locks := (*[4]uint64)(ent[eLocks:])
			lsAnd(locks, &e.threadLock[t])
			if ent[eStatus] == eSharedModified && lsEmpty(locks) {
				m.Report("eraser-hand", "data race: unprotected read", 1, 0)
			}
		}
		e.mu.Unlock()
		return 0
	}
	h[eraserStore] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		e.mu.Lock()
		ent := e.shadow.Entry(a[0] >> 3)
		t := a[1] & 63
		bit := uint64(1) << (t % 64)
		if ent[eThreads]&bit == 0 {
			ent[eThreads] |= bit
			ent[eStatus] = uint64(eraserStoreNewThread[ent[eStatus]])
		} else {
			ent[eStatus] = uint64(eraserStoreKnown[ent[eStatus]])
		}
		if ent[eStatus] > eExclusive {
			locks := (*[4]uint64)(ent[eLocks:])
			lsAnd(locks, &e.threadWLock[t])
			if ent[eStatus] == eSharedModified && lsEmpty(locks) {
				m.Report("eraser-hand", "data race: unprotected write", 1, 0)
			}
		}
		e.mu.Unlock()
		return 0
	}
	return h
}

// Rules returns the insertion rules (the same four points Listing 1
// instruments).
func (e *Eraser) Rules() []compiler.Rule {
	return []compiler.Rule{
		{Kind: compiler.MatchLock, After: true, HandlerID: eraserLock,
			HandlerName: "eraserLock", Args: []ast.CallArg{opArg(1), tidArg()}},
		{Kind: compiler.MatchUnlock, After: false, HandlerID: eraserUnlock,
			HandlerName: "eraserUnlock", Args: []ast.CallArg{opArg(1), tidArg()}},
		{Kind: compiler.MatchLoad, After: true, HandlerID: eraserLoad,
			HandlerName: "eraserLoad", Args: []ast.CallArg{opArg(1), tidArg()}},
		{Kind: compiler.MatchStore, After: true, HandlerID: eraserStore,
			HandlerName: "eraserStore", Args: []ast.CallArg{opArg(2), tidArg()}},
	}
}
