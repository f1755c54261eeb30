package meta

import (
	"sort"
	"testing"
)

// Differential test: drive the same operation sequence through the
// fixed-domain bit-vector set, the tree set, and a plain-map oracle and
// assert identical observable behavior (membership, cardinality,
// emptiness, iteration order of Elems). The compiler picks between
// these representations per analysis (§5.3), so they must be
// behaviorally interchangeable on a shared domain.

const diffDomain = 193 // odd, spans four 64-bit words with a ragged tail

type diffOracle map[uint64]bool

func (o diffOracle) elems() []uint64 {
	out := make([]uint64, 0, len(o))
	for e := range o {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// applyOp decodes one (op, element) pair and applies it to all three
// sets, failing on any observable divergence.
func applyOp(t *testing.T, step int, op, raw uint64, bits []uint64, tree *TreeSet, oracle diffOracle) {
	t.Helper()
	e := raw % diffDomain
	switch op % 4 {
	case 0: // insert
		BitAdd(bits, e)
		tree.Add(e)
		oracle[e] = true
	case 1: // remove
		BitRemove(bits, e)
		tree.Remove(e)
		delete(oracle, e)
	case 2: // contains
		want := oracle[e]
		if got := BitFind(bits, e); got != want {
			t.Fatalf("step %d: bitset Find(%d) = %v, oracle %v", step, e, got, want)
		}
		if got := tree.Find(e); got != want {
			t.Fatalf("step %d: treeset Find(%d) = %v, oracle %v", step, e, got, want)
		}
	default: // iterate + aggregate queries
		want := oracle.elems()
		gotBits := BitElems(nil, bits)
		if len(gotBits) != len(want) {
			t.Fatalf("step %d: bitset has %d elems, oracle %d", step, len(gotBits), len(want))
		}
		gotTree := tree.Elems()
		if len(gotTree) != len(want) {
			t.Fatalf("step %d: treeset has %d elems, oracle %d", step, len(gotTree), len(want))
		}
		for i := range want {
			if gotBits[i] != want[i] || gotTree[i] != want[i] {
				t.Fatalf("step %d: elems diverge at %d: bitset=%d treeset=%d oracle=%d",
					step, i, gotBits[i], gotTree[i], want[i])
			}
		}
		if BitCount(bits) != len(want) || tree.Size() != len(want) {
			t.Fatalf("step %d: counts diverge: bitset=%d treeset=%d oracle=%d",
				step, BitCount(bits), tree.Size(), len(want))
		}
		if BitEmpty(bits) != (len(want) == 0) || tree.Empty() != (len(want) == 0) {
			t.Fatalf("step %d: emptiness diverges", step)
		}
	}
}

// applyHashOps drives the same (op, key) byte stream through a one-word
// and a pair HashMap and plain-map oracles: insert, overwrite, delete
// (backward-shift), growth well past the initial capacity, and
// order-insensitive iteration. Entry views are used
// immediately and never retained across operations — the container
// contract after the flat-arena rewrite (rehashes detach old views).
func applyHashOps(t *testing.T, ops []byte) {
	t.Helper()
	hm := NewHashMap(2, []uint64{7, 0})
	h2 := NewHashMap2(1, nil)
	oracle := map[uint64]uint64{}
	oracle2 := map[[2]uint64]uint64{}
	for i := 0; i+1 < len(ops); i += 2 {
		op, raw := ops[i], uint64(ops[i+1])
		// Spread raw bytes over sparse 64-bit keys so probe sequences
		// collide only via the real hash, and growth is exercised (256
		// distinct keys cross several doublings from 8 slots).
		key := raw * 0x9E3779B97F4A7C15
		k2 := raw & 3
		val := uint64(i)*2654435761 + 1
		switch op % 4 {
		case 0: // insert or overwrite
			e := hm.Entry(key)
			if oracle[key] == 0 && e[0] != 7 {
				t.Fatalf("step %d: fresh entry not template-filled: %v", i/2, e)
			}
			StoreField(e, 0, 64, val)
			oracle[key] = val
			StoreField(h2.Entry2(key, k2), 0, 64, val)
			oracle2[[2]uint64{key, k2}] = val
		case 1: // delete
			hm.Remove(key)
			delete(oracle, key)
		case 2: // lookup
			e := hm.Peek(key)
			want, ok := oracle[key]
			if ok != (e != nil) {
				t.Fatalf("step %d: Peek(%#x) present=%v, oracle %v", i/2, key, e != nil, ok)
			}
			if ok && LoadField(e, 0, 64) != want {
				t.Fatalf("step %d: Peek(%#x) = %d, oracle %d", i/2, key, LoadField(e, 0, 64), want)
			}
			e2 := h2.Peek2(key, k2)
			want2, ok2 := oracle2[[2]uint64{key, k2}]
			if ok2 != (e2 != nil) || (ok2 && e2[0] != want2) {
				t.Fatalf("step %d: pair Peek2 diverges from oracle", i/2)
			}
		default: // iterate, order-insensitive
			if hm.Len() != len(oracle) {
				t.Fatalf("step %d: Len %d, oracle %d", i/2, hm.Len(), len(oracle))
			}
			seen := map[uint64]uint64{}
			hm.ForEach(func(k uint64, e []uint64) { seen[k] = LoadField(e, 0, 64) })
			if len(seen) != len(oracle) {
				t.Fatalf("step %d: ForEach visited %d entries, oracle %d", i/2, len(seen), len(oracle))
			}
			for k, v := range oracle {
				if seen[k] != v {
					t.Fatalf("step %d: ForEach[%#x] = %d, oracle %d", i/2, k, seen[k], v)
				}
			}
			if h2.Len() != len(oracle2) {
				t.Fatalf("step %d: pair Len %d, oracle %d", i/2, h2.Len(), len(oracle2))
			}
		}
	}
	// Every surviving key must still be reachable with its last value.
	for k, v := range oracle {
		e := hm.Peek(k)
		if e == nil || LoadField(e, 0, 64) != v {
			t.Fatalf("final: key %#x lost or corrupted after op sequence", k)
		}
	}
	seen2 := map[[2]uint64]uint64{}
	h2.ForEach2(func(a, b uint64, e []uint64) { seen2[[2]uint64{a, b}] = e[0] })
	if len(seen2) != len(oracle2) {
		t.Fatalf("final: pair ForEach2 visited %d, oracle %d", len(seen2), len(oracle2))
	}
	for k, v := range oracle2 {
		if seen2[k] != v {
			t.Fatalf("final: pair %v lost or corrupted", k)
		}
	}
}

func TestDifferentialHashContainers(t *testing.T) {
	for _, seed := range []uint64{1, 0xdeadbeef, 42, 7777777} {
		rng := seed*0x9E3779B97F4A7C15 | 1
		ops := make([]byte, 8192)
		for i := range ops {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			ops[i] = byte(rng)
		}
		applyHashOps(t, ops)
	}
}

// TestHashMapGrowthAndDrain pins the edges the random streams can miss:
// monotone growth across many doublings, then a full drain through
// backward-shift deletion back to empty.
func TestHashMapGrowthAndDrain(t *testing.T) {
	hm := NewHashMap(1, nil)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		StoreField(hm.Entry(i*0x9E3779B97F4A7C15), 0, 64, i+1)
	}
	if hm.Len() != n {
		t.Fatalf("Len = %d after %d inserts", hm.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		e := hm.Peek(i * 0x9E3779B97F4A7C15)
		if e == nil || e[0] != i+1 {
			t.Fatalf("key %d lost across growth", i)
		}
	}
	gen := hm.Gen()
	if gen == 0 {
		t.Fatal("growth did not advance the rehash generation")
	}
	for i := uint64(0); i < n; i++ {
		hm.Remove(i * 0x9E3779B97F4A7C15)
	}
	if hm.Len() != 0 {
		t.Fatalf("Len = %d after full drain", hm.Len())
	}
	hm.ForEach(func(k uint64, _ []uint64) { t.Fatalf("drained map still visits key %#x", k) })
	if hm.Gen() <= gen {
		t.Fatal("removal did not advance the rehash generation")
	}
}

func TestDifferentialSetContainers(t *testing.T) {
	for _, seed := range []uint64{1, 0xdeadbeef, 42, 7777777} {
		bits := make([]uint64, BitWords(diffDomain))
		tree := NewTreeSet()
		oracle := diffOracle{}
		rng := seed*0x9E3779B97F4A7C15 | 1
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for step := 0; step < 5000; step++ {
			applyOp(t, step, next(), next(), bits, tree, oracle)
		}
		// Final drain: remove everything and confirm all three agree on
		// the empty set.
		for _, e := range oracle.elems() {
			BitRemove(bits, e)
			tree.Remove(e)
		}
		if !BitEmpty(bits) || tree.Size() != 0 {
			t.Fatalf("seed %d: drain left bitset empty=%v treeset size=%d", seed, BitEmpty(bits), tree.Size())
		}
	}
}

// FuzzSetContainers feeds arbitrary byte strings as op sequences: each
// pair of bytes is one (op, element) instruction. The same stream
// drives both the set representations (bitset/treeset/map-oracle) and
// the open-addressing hash tables (one-word and pair vs map oracles).
func FuzzSetContainers(f *testing.F) {
	f.Add([]byte{0, 5, 2, 5, 1, 5, 2, 5, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 1, 2, 3, 0})
	// Hash-table-shaped seeds: grow-then-drain, overwrite churn on one
	// probe chain, delete/reinsert alternation (backward-shift stress).
	f.Add([]byte{
		0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10,
		1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 3, 0, 2, 6, 2, 1,
	})
	f.Add([]byte{0, 11, 0, 11, 0, 11, 2, 11, 1, 11, 2, 11, 0, 11, 3, 0})
	f.Add([]byte{0, 0xff, 1, 0xff, 0, 0xff, 1, 0xff, 0, 0xfe, 1, 0xfe, 3, 0, 2, 0xff})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		bits := make([]uint64, BitWords(diffDomain))
		tree := NewTreeSet()
		oracle := diffOracle{}
		for i := 0; i+1 < len(ops); i += 2 {
			applyOp(t, i/2, uint64(ops[i]), uint64(ops[i+1]), bits, tree, oracle)
		}
		applyHashOps(t, ops)
	})
}
