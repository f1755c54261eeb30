package compiler

import (
	"fmt"
	"sync"

	"repro/internal/meta"
	"repro/internal/vm"
)

// ExternalFn implements an ALDA external function call (escape hatch,
// §5.6.2) in Go.
type ExternalFn func(m *vm.Machine, args []uint64) uint64

// Runtime is the per-run instantiation of a compiled analysis: fresh
// containers, tree arena and handler closures. Create one per Machine
// with Analysis.NewRuntime and install Handlers on the machine.
type Runtime struct {
	A      *Analysis
	groups []*groupState
	trees  []*meta.TreeSet

	handlers []vm.HandlerFn

	externals []ExternalFn

	// interns maps bounded lockid type names to value→dense-id tables —
	// the "hash-based locking operations" of hand-tuned Eraser (§6.2),
	// automated: programs generate lock ids from an unbounded space
	// (addresses), the analysis declares a bounded domain, the runtime
	// interns.
	interns map[string]map[uint64]uint64

	// memberCounts holds per-member access counters when the analysis
	// was compiled with ProfileCollect.
	memberCounts []uint64

	stats RuntimeStats
}

// RuntimeStats accumulates cheap counters for the explain tool and
// tests.
type RuntimeStats struct {
	Asserts        uint64
	AssertFailures uint64
}

type groupState struct {
	g      *Group
	c      meta.Container
	c2     *meta.HashMap2
	global []uint64
	mu     sync.Mutex
}

// NewRuntime instantiates containers and the handler table: the staged
// handlers when the analysis has a staged entry (see HandlerBackend),
// closures otherwise. External functions referenced by the analysis
// must have been supplied via Analysis.Externals.
func (a *Analysis) NewRuntime() (*Runtime, error) {
	rt := &Runtime{A: a}
	for _, g := range a.Layout.Groups {
		gs := &groupState{g: g}
		switch g.Impl {
		case ImplGlobal:
			gs.global = make([]uint64, g.EntryWords)
			copy(gs.global, g.Template)
		case ImplArray:
			gs.c = meta.NewArrayMap(g.KeyType.Domain, g.EntryWords, g.Template)
		case ImplShadow:
			gs.c = meta.NewShadowMap(g.MaxKeys, g.EntryWords, g.Template)
		case ImplPageTable:
			gs.c = meta.NewPageTableMap(g.EntryWords, g.Template)
		case ImplHash:
			gs.c = meta.NewHashMap(g.EntryWords, g.Template)
		case ImplHash2:
			gs.c2 = meta.NewHashMap2(g.EntryWords, g.Template)
		}
		rt.groups = append(rt.groups, gs)
	}

	if a.Opts.ProfileCollect {
		rt.memberCounts = make([]uint64, len(a.Info.MetaOrder))
	}

	rt.externals = make([]ExternalFn, len(a.Info.Externals))
	for i, name := range a.Info.Externals {
		fn, ok := a.Externals[name]
		if !ok {
			return nil, fmt.Errorf("compiler: external function %q has no implementation", name)
		}
		rt.externals[i] = fn
	}

	if a.staged != nil {
		rt.handlers = a.staged(rt)
		return rt, nil
	}
	if err := rt.buildClosures(); err != nil {
		return nil, err
	}
	return rt, nil
}

// Handlers returns the handler table to install on a vm.Machine; indices
// match the HandlerID fields in the analysis's insertion rules.
func (rt *Runtime) Handlers() []vm.HandlerFn { return rt.handlers }

// Stats returns runtime counters.
func (rt *Runtime) Stats() RuntimeStats { return rt.stats }

// MetadataBytes sums the analysis's current metadata storage: container
// backing plus the tree arena — §6.2's memory-footprint quantity.
func (rt *Runtime) MetadataBytes() uint64 {
	var n uint64
	for _, gs := range rt.groups {
		if gs.c != nil {
			n += gs.c.Bytes()
		}
		if gs.c2 != nil {
			n += gs.c2.Bytes()
		}
		n += uint64(len(gs.global)) * 8
	}
	for _, t := range rt.trees {
		if t != nil {
			n += uint64(t.Size()+2) * 40 // nodes + header, complement sets count exclusions
			if t.Complement {
				n += uint64(len(t.Elems())) * 40
			}
		}
	}
	return n
}

// ContainerLookups sums per-container lookup counters (explain tool,
// ablation tests).
func (rt *Runtime) ContainerLookups() uint64 {
	var n uint64
	for _, gs := range rt.groups {
		if gs.c != nil {
			n += gs.c.Lookups()
		}
		if gs.c2 != nil {
			n += gs.c2.Lookups()
		}
	}
	return n
}

// tree returns the arena tree for a handle (1-based).
func (rt *Runtime) tree(handle uint64) *meta.TreeSet { return rt.trees[handle-1] }

// newTree arena-allocates a tree and returns its handle.
func (rt *Runtime) newTree(t *meta.TreeSet) uint64 {
	rt.trees = append(rt.trees, t)
	return uint64(len(rt.trees))
}

// internTable returns the interning table of a lock-id type (see
// interned), creating it on first use.
func (rt *Runtime) internTable(typeName string) map[uint64]uint64 {
	if rt.interns == nil {
		rt.interns = make(map[string]map[uint64]uint64)
	}
	tbl, ok := rt.interns[typeName]
	if !ok {
		tbl = make(map[uint64]uint64)
		rt.interns[typeName] = tbl
	}
	return tbl
}

// internValue maps a raw value to its dense id, assigning ids
// first-come. Beyond the declared domain ids wrap, the documented
// ThreadSanitizer-style limitation (§3.1.2).
func internValue(tbl map[uint64]uint64, domain int64, v uint64) uint64 {
	if id, ok := tbl[v]; ok {
		return id
	}
	id := uint64(len(tbl)) % uint64(domain)
	tbl[v] = id
	return id
}

// getTree materializes the tree slot of a member within an entry.
func (rt *Runtime) getTree(entry []uint64, wordOff int, universe bool) *meta.TreeSet {
	h := entry[wordOff]
	if h == 0 {
		var t *meta.TreeSet
		if universe {
			t = meta.NewUniverseTreeSet()
		} else {
			t = meta.NewTreeSet()
		}
		entry[wordOff] = rt.newTree(t)
		return t
	}
	return rt.tree(h)
}

// setTree stores t as the tree of the member slot at wordOff, reusing
// the slot's arena handle when it has one.
func (rt *Runtime) setTree(entry []uint64, wordOff int, t *meta.TreeSet) {
	if h := entry[wordOff]; h != 0 {
		rt.trees[h-1] = t
	} else {
		entry[wordOff] = rt.newTree(t)
	}
}
