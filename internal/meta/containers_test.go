package meta

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

func TestFieldsRoundTrip(t *testing.T) {
	words := make([]uint64, 4)
	StoreField(words, 0, 8, 0xAB)
	StoreField(words, 8, 8, 0xCD)
	StoreField(words, 16, 16, 0xBEEF)
	StoreField(words, 64, 64, ^uint64(0))
	StoreField(words, 130, 2, 3)
	if got := LoadField(words, 0, 8); got != 0xAB {
		t.Errorf("field@0 = %#x", got)
	}
	if got := LoadField(words, 8, 8); got != 0xCD {
		t.Errorf("field@8 = %#x", got)
	}
	if got := LoadField(words, 16, 16); got != 0xBEEF {
		t.Errorf("field@16 = %#x", got)
	}
	if got := LoadField(words, 64, 64); got != ^uint64(0) {
		t.Errorf("field@64 = %#x", got)
	}
	if got := LoadField(words, 130, 2); got != 3 {
		t.Errorf("field@130 = %#x", got)
	}
	// Overwrite must not disturb neighbors.
	StoreField(words, 8, 8, 0x11)
	if LoadField(words, 0, 8) != 0xAB || LoadField(words, 16, 16) != 0xBEEF {
		t.Error("store disturbed neighboring fields")
	}
}

func TestSignExtendTruncate(t *testing.T) {
	if got := SignExtend(0xFF, 8); int64(got) != -1 {
		t.Errorf("SignExtend(0xFF, 8) = %d", int64(got))
	}
	if got := SignExtend(0x7F, 8); got != 127 {
		t.Errorf("SignExtend(0x7F, 8) = %d", got)
	}
	if got := SignExtend(5, 64); got != 5 {
		t.Errorf("SignExtend(5, 64) = %d", got)
	}
	if got := Truncate(0x1FF, 8); got != 0xFF {
		t.Errorf("Truncate = %#x", got)
	}
	if got := Truncate(^uint64(0), 64); got != ^uint64(0) {
		t.Errorf("Truncate 64 = %#x", got)
	}
}

// refContainer is the oracle: a map of key -> entry copy.
type refContainer struct {
	m    map[uint64][]uint64
	ew   int
	tmpl []uint64
}

func newRef(ew int, tmpl []uint64) *refContainer {
	return &refContainer{m: make(map[uint64][]uint64), ew: ew, tmpl: tmpl}
}

func (r *refContainer) entry(key uint64) []uint64 {
	e, ok := r.m[key]
	if !ok {
		e = make([]uint64, r.ew)
		copy(e, r.tmpl)
		r.m[key] = e
	}
	return e
}

func (r *refContainer) fill(key, n uint64, off, width uint, v uint64) {
	for i := uint64(0); i < n; i++ {
		StoreField(r.entry(key+i), off, width, v)
	}
}

func (r *refContainer) rangeOr(key, n uint64, off, width uint) uint64 {
	var acc uint64
	tv := uint64(0)
	if r.tmpl != nil {
		tv = LoadField(r.tmpl, off, width)
	}
	for i := uint64(0); i < n; i++ {
		if e, ok := r.m[key+i]; ok {
			acc |= LoadField(e, off, width)
		} else {
			acc |= tv
		}
	}
	return acc
}

// containersUnderTest builds all four implementations over the same
// parameters (keys are confined to [0, maxKey)).
func containersUnderTest(ew int, tmpl []uint64, maxKey uint64) map[string]Container {
	return map[string]Container{
		"array":     NewArrayMap(int64(maxKey), ew, tmpl),
		"shadow":    NewShadowMap(maxKey, ew, tmpl),
		"pagetable": NewPageTableMap(maxKey, ew, tmpl),
		"hash":      NewHashMap(ew, tmpl),
	}
}

// containerShape is one container configuration the reference model is
// checked against: entry width, template and key range [0, maxKey).
type containerShape struct {
	name   string
	ew     int
	tmpl   []uint64
	maxKey uint64
}

// referenceShapes are TestContainersAgainstReference's configurations
// and FuzzContainers' seeds. The -chunks shapes span six 4,096-entry
// chunks with non-zero templates, so long Fill/RangeOr runs cross chunk
// boundaries and chunks never materialized. The -leaves shape spans
// four page-table leaves of four chunks each, so they also cross leaves
// never made.
var referenceShapes = []containerShape{
	{"1word-zero", 1, nil, 1 << 14},
	{"2word-universe", 2, []uint64{^uint64(0), 0x00FF}, 1 << 14},
	{"3word-zero", 3, []uint64{0, 0, 0}, 1 << 14},
	{"2word-universe-chunks", 2, []uint64{^uint64(0), 0x00FF}, 6 << 12},
	{"3word-mixed-chunks", 3, []uint64{0x0F, 0, 1 << 63}, 6 << 12},
	{"1word-mixed-leaves", 1, []uint64{0xF0F0}, 16 << 12},
}

// containerOp is one step of a container/reference-model run.
type containerOp struct {
	kind       byte // 0 Entry write, 1 Entry read, 2 Fill, 3 RangeOr, 4 Remove
	key, n     uint64
	off, width uint
	v          uint64
}

const opBytes = 6

// decodeOps reads one op from every opBytes bytes of stream. One range
// op in sixteen is a long run of up to three 4,096-entry chunks; runs
// are clipped to the key range.
func decodeOps(stream []byte, sh containerShape) []containerOp {
	var ops []containerOp
	for ; len(stream) >= opBytes; stream = stream[opBytes:] {
		b := stream
		op := containerOp{
			kind:  b[0] % 5,
			key:   (uint64(b[1])<<8 | uint64(b[2])) * sh.maxKey >> 16,
			off:   uint(int(b[4])%sh.ew) * 64,
			width: 8 << (b[4] >> 4 & 3), // 8, 16, 32, 64
			v:     uint64(b[5]) * hashMul,
		}
		if b[3] < 240 {
			op.n = 1 + uint64(b[3])%80
		} else {
			op.n = 1 + uint64(b[3]-240)*768
		}
		if op.key+op.n > sh.maxKey {
			op.n = sh.maxKey - op.key
		}
		ops = append(ops, op)
	}
	return ops
}

// applyOp runs op on c and on its reference model, failing on any
// observable divergence.
func (r *refContainer) applyOp(t *testing.T, name string, c Container, op containerOp) {
	t.Helper()
	switch op.kind {
	case 0:
		StoreField(c.Entry(op.key), op.off, op.width, op.v)
		StoreField(r.entry(op.key), op.off, op.width, op.v)
	case 1:
		got := LoadField(c.Entry(op.key), op.off, op.width)
		want := LoadField(r.entry(op.key), op.off, op.width)
		if got != want {
			t.Fatalf("%s: entry read at %d: got %#x want %#x", name, op.key, got, want)
		}
	case 2:
		c.Fill(op.key, op.n, op.off, op.width, op.v)
		r.fill(op.key, op.n, op.off, op.width, op.v)
	case 3:
		got := c.RangeOr(op.key, op.n, op.off, op.width)
		want := r.rangeOr(op.key, op.n, op.off, op.width)
		if got != want {
			t.Fatalf("%s: rangeOr(%d,%d) off %d width %d: got %#x want %#x",
				name, op.key, op.n, op.off, op.width, got, want)
		}
	case 4:
		c.Remove(op.key)
		if e, ok := r.m[op.key]; ok {
			copy(e, r.tmpl)
			for j := len(r.tmpl); j < r.ew; j++ {
				e[j] = 0
			}
		}
	}
}

// pairKeys splits a reference-model key into a pair-table key. Eight
// consecutive keys share the first word and every eighth key shares the
// second, so pairs collide in either word, and (a, b) and (b, a) both
// occur.
func pairKeys(key uint64) (uint64, uint64) { return key >> 3, key & 7 }

// applyPairOp runs op on a pair table (NewHashMap2) and its reference
// model, the key split by pairKeys. Entry ops go through Entry2, Fill
// writes key by key through Entry2, and RangeOr reads key by key through
// Peek2, which must report exactly the pairs the model holds. A pair
// table has no Remove, so op 4 is a Peek2 of its key.
func (r *refContainer) applyPairOp(t *testing.T, m *HashMap, op containerOp) {
	t.Helper()
	switch op.kind {
	case 0:
		StoreField(m.Entry2(pairKeys(op.key)), op.off, op.width, op.v)
		StoreField(r.entry(op.key), op.off, op.width, op.v)
	case 1:
		got := LoadField(m.Entry2(pairKeys(op.key)), op.off, op.width)
		want := LoadField(r.entry(op.key), op.off, op.width)
		if got != want {
			t.Fatalf("pair: entry read at %d: got %#x want %#x", op.key, got, want)
		}
	case 2:
		for k := op.key; k < op.key+op.n; k++ {
			StoreField(m.Entry2(pairKeys(k)), op.off, op.width, op.v)
		}
		r.fill(op.key, op.n, op.off, op.width, op.v)
	case 3, 4:
		n := op.n
		if op.kind == 4 {
			n = 1
		}
		for k := op.key; k < op.key+n; k++ {
			if e, want := m.Peek2(pairKeys(k)), r.m[k]; !slices.Equal(e, want) {
				t.Fatalf("pair: peek at %d: got %v want %v", k, e, want)
			}
		}
	}
}

// checkPairs checks that ForEach2 visits exactly the model's pairs.
func (r *refContainer) checkPairs(t *testing.T, m *HashMap) {
	t.Helper()
	seen := 0
	m.ForEach2(func(k1, k2 uint64, e []uint64) {
		if want := r.m[k1<<3|k2]; !slices.Equal(e, want) {
			t.Fatalf("pair: ForEach2 at (%d, %d): got %v want %v", k1, k2, e, want)
		}
		seen++
	})
	if seen != len(r.m) || m.Len() != len(r.m) {
		t.Fatalf("pair: ForEach2 visited %d and Len is %d, model holds %d", seen, m.Len(), len(r.m))
	}
}

// runContainerOps drives every container built for sh, and a pair
// table, each beside its own reference model, through ops. The pair
// table's iteration is checked after every doubling and at the end, and
// the table is returned.
func runContainerOps(t *testing.T, sh containerShape, ops []containerOp) *HashMap {
	t.Helper()
	for name, c := range containersUnderTest(sh.ew, sh.tmpl, sh.maxKey) {
		ref := newRef(sh.ew, sh.tmpl)
		for _, op := range ops {
			ref.applyOp(t, name, c, op)
		}
	}
	pair, ref := NewHashMap2(sh.ew, sh.tmpl), newRef(sh.ew, sh.tmpl)
	for _, op := range ops {
		grown := pair.Stats().Rehashes
		ref.applyPairOp(t, pair, op)
		if pair.Stats().Rehashes != grown {
			ref.checkPairs(t, pair)
		}
	}
	ref.checkPairs(t, pair)
	return pair
}

// chunkGapOps writes the ends of units 0 and 2, reads ranges across the
// never-materialized unit 1 between them, then fills across it. A unit
// is c keys: a chunk, or a page-table leaf. The writes store 0 into a
// field the template sets, so a range read that drops unit 1's template
// contribution reads 0.
func chunkGapOps(sh containerShape, c uint64) []containerOp {
	off := uint(0)
	for i, w := range sh.tmpl {
		if w != 0 {
			off = uint(i) * 64
			break
		}
	}
	op := func(kind byte, key, n, v uint64) containerOp {
		return containerOp{kind: kind, key: key, n: n, off: off, width: 64, v: v}
	}
	return []containerOp{
		op(2, c-8, 8, 0),
		op(2, 2*c, 8, 0),
		op(3, c-8, 8, 0),
		op(3, 2*c, 8, 0),
		op(3, c-8, c+16, 0),
		op(3, c-1, 2, 0),
		op(3, 2*c-1, 2, 0),
		op(2, c-4, c+8, 7),
		op(3, c-8, c+16, 0),
		op(1, c-1, 1, 0),
		op(1, c, 1, 0),
		op(1, 2*c-1, 1, 0),
		op(1, 2*c, 1, 0),
	}
}

// pageTableLeafKeys is the number of keys one leaf of a page table over
// maxKey keys covers.
func pageTableLeafKeys(maxKey uint64) uint64 {
	return (NewPageTableMap(maxKey, 1, nil).leafMask + 1) << chunkBits
}

// Property: every container implementation agrees with the reference
// model under random mixed operations, with both zero and non-zero
// (universe-style) templates, and across chunk and page-table leaf
// boundaries. The leaf-gap ops run on fresh containers, so the leaf
// they cross was never made. The pair table grows through several
// doublings on the way.
func TestContainersAgainstReference(t *testing.T) {
	for _, sh := range referenceShapes {
		t.Run(sh.name, func(t *testing.T) {
			var ops []containerOp
			if sh.maxKey >= 3*chunkSize {
				ops = chunkGapOps(sh, chunkSize)
			}
			stream := make([]byte, 3000*opBytes)
			rand.New(rand.NewSource(42)).Read(stream)
			pair := runContainerOps(t, sh, append(ops, decodeOps(stream, sh)...))
			if r := pair.Stats().Rehashes; r < 3 {
				t.Errorf("pair table doubled %d times, want at least 3", r)
			}
			if leaf := pageTableLeafKeys(sh.maxKey); sh.maxKey >= 3*leaf {
				runContainerOps(t, sh, chunkGapOps(sh, leaf))
			}
		})
	}
}

// FuzzContainers drives Entry/Fill/RangeOr/Remove sequences through all
// four containers and the reference model, and the same ops through a
// pair table (applyPairOp). The first byte picks the entry width (1–3
// words) and a key range of 1–8 4,096-entry chunks, the next 8 bytes
// per entry word the template, and every further opBytes bytes one op
// (decodeOps). A shape wider than eight chunks seeds the eight-chunk
// range.
func FuzzContainers(f *testing.F) {
	for _, sh := range referenceShapes {
		seed := []byte{byte(sh.ew-1) + 3*byte(min(sh.maxKey>>12, 8)-1)}
		for i := 0; i < sh.ew; i++ {
			var w uint64
			if sh.tmpl != nil {
				w = sh.tmpl[i]
			}
			seed = binary.LittleEndian.AppendUint64(seed, w)
		}
		ops := make([]byte, 48*opBytes)
		rand.New(rand.NewSource(42)).Read(ops)
		f.Add(append(seed, ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := containerShape{ew: 1 + int(data[0]%3), maxKey: uint64(data[0]/3%8+1) << 12}
		data = data[1:]
		if len(data) < 8*sh.ew {
			return
		}
		sh.tmpl = make([]uint64, sh.ew)
		for i := range sh.tmpl {
			sh.tmpl[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		data = data[8*sh.ew:]
		if len(data) > 64*opBytes {
			data = data[:64*opBytes]
		}
		runContainerOps(t, sh, decodeOps(data, sh))
	})
}

// TestShadowMaterializesTouchedChunkOnly pins the shadow's footprint for
// one store near the top of a thread-stack region (the VM's default
// 256 MiB address space and 512 KiB stacks, word granularity, ALDA
// MSan's 2-word entry): one 4,096-entry chunk plus the directory, not
// the whole 512 KiB region's worth of entries. A page table over the
// same space starts with a root of at most 4 KiB, and the store adds
// exactly one chunk and one leaf.
func TestShadowMaterializesTouchedChunkOnly(t *testing.T) {
	const (
		addrSpace = 1 << 28
		stackSize = 1 << 19
		ew        = 2
	)
	m := NewShadowMap(addrSpace>>3, ew, []uint64{^uint64(0), 0})
	fresh := m.Bytes()
	m.Fill((addrSpace-stackSize-64)>>3, 1, 0, 64, 0)
	dir := uint64(addrSpace>>3/4096) * sliceHeaderBytes
	if got, limit := m.Bytes(), dir+4096*ew*8; got > limit {
		t.Errorf("one stack store: Bytes() = %d, want at most %d (one chunk plus the directory)", got, limit)
	}
	if fresh != dir {
		t.Errorf("fresh map: Bytes() = %d, want its %d-byte directory", fresh, dir)
	}

	pt := NewPageTableMap(addrSpace>>3, ew, []uint64{^uint64(0), 0})
	fresh = pt.Bytes()
	if fresh > 4096 {
		t.Errorf("fresh page table: Bytes() = %d, want at most 4096", fresh)
	}
	pt.Fill((addrSpace-stackSize-64)>>3, 1, 0, 64, 0)
	leaf := (pt.leafMask + 1) * sliceHeaderBytes
	if got, want := pt.Bytes()-fresh, uint64(4096*ew*8)+leaf; got != want {
		t.Errorf("page table, one stack store: Bytes() grew by %d, want %d (one chunk plus one %d-byte leaf)", got, want, leaf)
	}
}

func TestContainerPeek(t *testing.T) {
	for name, c := range containersUnderTest(1, nil, 1<<12) {
		if e := c.Peek(100); e != nil && name != "array" {
			// array materializes eagerly but reports untouched as nil too
			t.Errorf("%s: peek of untouched key returned entry", name)
		}
		StoreField(c.Entry(100), 0, 64, 7)
		e := c.Peek(100)
		if e == nil || e[0] != 7 {
			t.Errorf("%s: peek after write = %v", name, e)
		}
	}
}

func TestContainerForEach(t *testing.T) {
	for name, c := range containersUnderTest(1, nil, 1<<12) {
		StoreField(c.Entry(5), 0, 64, 50)
		StoreField(c.Entry(9), 0, 64, 90)
		sum := uint64(0)
		cnt := 0
		c.ForEach(func(k uint64, e []uint64) {
			if e[0] != 0 {
				sum += e[0]
				cnt++
			}
		})
		if sum != 140 || cnt != 2 {
			t.Errorf("%s: foreach sum=%d cnt=%d", name, sum, cnt)
		}
	}
}

func TestContainerLookupCounters(t *testing.T) {
	c := NewShadowMap(1<<12, 1, nil)
	c.Entry(1)
	c.Fill(2, 4, 0, 64, 9)
	c.RangeOr(2, 4, 0, 64)
	if s := c.Stats(); s.Entries != 1 || s.Fills != 1 || s.Ranges != 1 {
		t.Errorf("stats = %+v, want one Entry, one Fill and one RangeOr", s)
	}
}

func TestHashMap2(t *testing.T) {
	m := NewHashMap2(2, []uint64{7, 0})
	e := m.Entry2(1, 2)
	if e[0] != 7 {
		t.Fatalf("template not applied: %v", e)
	}
	e[1] = 99
	if m.Entry2(1, 2)[1] != 99 {
		t.Fatal("entry not stable")
	}
	if m.Entry2(2, 1)[1] == 99 {
		t.Fatal("key order ignored")
	}
	if s := m.Stats(); s.Entries != 3 {
		t.Fatalf("entries = %d, want 3", s.Entries)
	}
}

// TestHashMapSlotOrderPinned pins both tables' visit order, growth and
// footprint on a fixed key sequence: twenty keys double the 8-slot
// arena twice, and five removals then back-shift probe chains. Entry
// values record the insertion index, so the orders below list indices.
func TestHashMapSlotOrderPinned(t *testing.T) {
	check := func(name string, m *HashMap, order []uint64, gen uint64) {
		t.Helper()
		var got []uint64
		visit := func(e []uint64) { got = append(got, e[len(e)-1]) }
		if m.kw == 1 {
			m.ForEach(func(_ uint64, e []uint64) { visit(e) })
		} else {
			m.ForEach2(func(_, _ uint64, e []uint64) { visit(e) })
		}
		if !slices.Equal(got, order) {
			t.Errorf("%s: visit order %v, want %v", name, got, order)
		}
		if m.Bytes() != 776 || m.Stats().Rehashes != 2 || m.Gen() != gen {
			t.Errorf("%s: Bytes %d, Rehashes %d, Gen %d; want 776, 2, %d", name, m.Bytes(), m.Stats().Rehashes, m.Gen(), gen)
		}
	}

	one := NewHashMap(2, []uint64{7, 0})
	for i := uint64(0); i < 20; i++ {
		one.Entry(i*i*7919 + 3)[1] = i
	}
	check("one-word", one, []uint64{1, 19, 5, 7, 4, 12, 14, 18, 8, 11, 15, 6, 13, 2, 3, 0, 17, 16, 9, 10}, 3)
	for i := uint64(0); i < 20; i += 4 {
		one.Remove(i*i*7919 + 3)
	}
	check("one-word after removals", one, []uint64{1, 19, 5, 7, 14, 18, 15, 11, 6, 13, 2, 3, 17, 9, 10}, 8)

	pair := NewHashMap2(1, nil)
	for i := uint64(0); i < 20; i++ {
		pair.Entry2(i%5, i/5)[0] = i
	}
	check("pair", pair, []uint64{7, 4, 2, 13, 1, 5, 12, 6, 11, 15, 17, 3, 18, 19, 0, 10, 16, 9, 8, 14}, 3)
}

func TestShadowMapKeyMasking(t *testing.T) {
	for name, m := range map[string]*ChunkMap{
		"shadow":    NewShadowMap(1<<10, 1, nil),
		"pagetable": NewPageTableMap(1<<10, 1, nil),
	} {
		// Keys beyond the range wrap rather than panic.
		e := m.Entry(1 << 40)
		e[0] = 5
		if m.Entry((1 << 40) & (1<<10 - 1))[0] != 5 {
			t.Fatalf("%s: masked key does not alias", name)
		}
	}
}
