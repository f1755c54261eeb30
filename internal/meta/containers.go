package meta

// Container is the uniform interface over the map containers the
// compiler selects among: ArrayMap, offset shadow memory and the page
// table (both a ChunkMap, NewShadowMap and NewPageTableMap), and a
// one-word HashMap (a pair table has its own Entry2, Peek2 and
// ForEach2). Keys are pre-normalized by the caller: for address-keyed maps
// the key is the granule index (address >> granule shift); for
// small-domain maps it is the raw value.
//
// Entry returns the value words for a key, materializing the entry from
// the group's init template if needed. Peek returns nil instead of
// materializing; only HashMap and ArrayMap answer it per key —
// ChunkMap answers for a whole 4,096-entry chunk, so the compiler keeps
// maps queried with `has` off it. Fill and RangeOr are the range
// operations behind ALDA's map.set(k, v, n) and map.get(k, n) builtins,
// specialized per container so offset shadow memory gets its fast path.
type Container interface {
	Entry(key uint64) []uint64
	Peek(key uint64) []uint64
	Fill(key, n uint64, off, width uint, v uint64)
	RangeOr(key, n uint64, off, width uint) uint64
	Remove(key uint64)
	ForEach(fn func(key uint64, entry []uint64))
	// Bytes returns the container's current metadata storage in bytes
	// (backing arrays, materialized chunks/pages, hash entries) — the
	// quantity behind the paper's §6.2 memory-footprint comparison.
	Bytes() uint64
	// Stats returns the container's operation counters (obs layer).
	Stats() Stats
}

// Stats are per-container operation counters, the source of the obs
// layer's meta.* metrics. They are plain field increments on paths the
// container already executes — allocation-free, always on, and
// deterministic for a deterministic access sequence. Nested calls
// count at every level (ArrayMap.Fill calls Entry per key, so a Fill
// over n keys also adds n to Entries).
type Stats struct {
	Entries     uint64 // Entry calls (get-or-materialize)
	Peeks       uint64 // Peek calls (presence-preserving reads)
	Fills       uint64 // Fill calls (range/field stores)
	Ranges      uint64 // RangeOr calls (range/field reads)
	Removes     uint64 // Remove calls
	Iters       uint64 // ForEach traversals
	Rehashes    uint64 // hash-arena growths that moved live entries
	CacheHits   uint64 // last-chunk inline-cache hits
	CacheMisses uint64 // inline-cache misses (directory walks)
}

// Gets sums read-side traffic.
func (s Stats) Gets() uint64 { return s.Entries + s.Peeks + s.Ranges }

// Sets sums write-side traffic.
func (s Stats) Sets() uint64 { return s.Fills + s.Removes }

func templateIsZero(t []uint64) bool {
	for _, w := range t {
		if w != 0 {
			return false
		}
	}
	return true
}

// fillTemplate sets every ew-word entry of dst, whose length is a
// multiple of ew, to the ew-word tmpl. It writes the first entry and
// then doubles the filled prefix, so a 4,096-entry page takes 13
// copies instead of one per entry.
func fillTemplate(dst []uint64, ew int, tmpl []uint64) {
	copy(dst, tmpl)
	for n := ew; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// ---------------------------------------------------------------------------
// ArrayMap — direct-indexed storage for small bounded key domains
// ("ALDAcc prefers an array for maps of limited domain size", §5.3).

// ArrayMap stores domain × entryWords words contiguously and indexes
// directly. Keys are taken modulo the domain for memory safety; bounded
// domains are a language-level contract (§3.1.2) that sema enforces when
// it can.
type ArrayMap struct {
	words    []uint64
	ew       int
	domain   uint64
	touched  []bool
	template []uint64
	stats    Stats // cold relative to the fields above; keep it last
}

// NewArrayMap returns an ArrayMap over a bounded key domain with entries
// initialized from template (nil ⇒ zero).
func NewArrayMap(domain int64, entryWords int, template []uint64) *ArrayMap {
	m := &ArrayMap{
		words:    make([]uint64, int(domain)*entryWords),
		ew:       entryWords,
		domain:   uint64(domain),
		touched:  make([]bool, domain),
		template: template,
	}
	if !templateIsZero(template) {
		fillTemplate(m.words, entryWords, template)
	}
	return m
}

func (m *ArrayMap) slot(key uint64) int { return int(key%m.domain) * m.ew }

// Entry returns the entry words for key.
func (m *ArrayMap) Entry(key uint64) []uint64 {
	m.stats.Entries++
	i := m.slot(key)
	m.touched[key%m.domain] = true
	return m.words[i : i+m.ew : i+m.ew]
}

// Peek returns the entry words without marking the key live.
func (m *ArrayMap) Peek(key uint64) []uint64 {
	m.stats.Peeks++
	if !m.touched[key%m.domain] {
		return nil
	}
	i := m.slot(key)
	return m.words[i : i+m.ew : i+m.ew]
}

// Fill sets the field on n consecutive keys starting at key.
func (m *ArrayMap) Fill(key, n uint64, off, width uint, v uint64) {
	m.stats.Fills++
	for i := uint64(0); i < n; i++ {
		e := m.Entry(key + i)
		StoreField(e, off, width, v)
	}
}

// RangeOr ORs the field over n consecutive keys starting at key. It
// reads without marking keys live: a range read must not make Peek (the
// map's `has`) report keys nobody wrote.
func (m *ArrayMap) RangeOr(key, n uint64, off, width uint) uint64 {
	m.stats.Ranges++
	var acc uint64
	for i := uint64(0); i < n; i++ {
		j := m.slot(key + i)
		acc |= LoadField(m.words[j:j+m.ew], off, width)
	}
	return acc
}

// Remove resets the entry to the template.
func (m *ArrayMap) Remove(key uint64) {
	m.stats.Removes++
	i := m.slot(key)
	e := m.words[i : i+m.ew]
	if m.template != nil {
		copy(e, m.template)
	} else {
		for j := range e {
			e[j] = 0
		}
	}
	m.touched[key%m.domain] = false
}

// ForEach visits every touched entry.
func (m *ArrayMap) ForEach(fn func(key uint64, entry []uint64)) {
	m.stats.Iters++
	for k := uint64(0); k < m.domain; k++ {
		if m.touched[k] {
			i := int(k) * m.ew
			fn(k, m.words[i:i+m.ew])
		}
	}
}

// Stats returns the operation counters.
func (m *ArrayMap) Stats() Stats { return m.stats }

// Bytes returns the backing storage size.
func (m *ArrayMap) Bytes() uint64 { return uint64(len(m.words))*8 + uint64(len(m.touched)) }

// ---------------------------------------------------------------------------
// ChunkMap — offset shadow memory and the page table of §5.3 as one
// chunk store. Entries live in 4,096-entry chunks that materialize on
// first touch, the page-at-a-time laziness LLVM MSan's offset shadow
// gets from the OS, so memory tracks the pages a program touches: a
// thread stack that uses a few KiB at the top of its 512 KiB region
// costs one chunk. A two-level radix directory finds a key's chunk with
// two array loads: the root holds leaves, and each leaf holds a run of
// chunk slots. The two constructors differ only in the leaves.
// NewShadowMap makes one leaf spanning every chunk up front, offset
// shadow memory's flat directory; NewPageTableMap makes small leaves on
// first touch, so the page table's directory also follows the pages a
// program touches.

const (
	chunkBits = 12 // 4096 entries per chunk
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	sliceHeaderBytes = 24 // pointer, length and capacity of a directory slot
)

// ChunkMap maps a bounded key space to entries; keys are masked into
// range.
type ChunkMap struct {
	root     [][][]uint64 // leaves of leafMask+1 chunk slots, nil until touched
	leafBits uint
	leafMask uint64
	ew       int
	keyMask  uint64
	template []uint64
	zeroTmpl bool

	// one-entry software TLB: program accesses streak within a page, so
	// the common case skips the directory walk entirely. Chunks never
	// move once materialized, so the cache never goes stale.
	lastCI    uint64
	lastChunk []uint64

	stats Stats // cold relative to the fields above; keep it last
}

// NewShadowMap returns offset shadow memory over maxKeys keys (rounded
// up to a power of two): one directory leaf spanning every chunk.
func NewShadowMap(maxKeys uint64, entryWords int, template []uint64) *ChunkMap {
	return newChunkMap(maxKeys, entryWords, template, true)
}

// NewPageTableMap returns a page table over maxKeys keys (rounded up to
// a power of two). The chunk index splits evenly between the root and
// leaves made on first touch: at word granularity over the VM's 256 MiB,
// 128 root slots and leaves of 64 chunks.
func NewPageTableMap(maxKeys uint64, entryWords int, template []uint64) *ChunkMap {
	return newChunkMap(maxKeys, entryWords, template, false)
}

func newChunkMap(maxKeys uint64, ew int, template []uint64, flat bool) *ChunkMap {
	size := uint64(1)
	for size < maxKeys {
		size <<= 1
	}
	var idxBits uint // log2 of the number of chunks
	for chunkSize<<idxBits < size {
		idxBits++
	}
	leafBits := idxBits / 2
	if flat {
		leafBits = idxBits
	}
	m := &ChunkMap{
		root:     make([][][]uint64, 1<<(idxBits-leafBits)),
		leafBits: leafBits,
		leafMask: 1<<leafBits - 1,
		ew:       ew,
		keyMask:  size - 1,
		template: template,
		zeroTmpl: template == nil || templateIsZero(template),
		lastCI:   ^uint64(0),
	}
	if flat {
		m.root[0] = make([][]uint64, 1<<leafBits)
	}
	return m
}

// chunk returns chunk ci, materializing it and its leaf on first touch.
func (m *ChunkMap) chunk(ci uint64) []uint64 {
	if ci == m.lastCI {
		m.stats.CacheHits++
		return m.lastChunk
	}
	m.stats.CacheMisses++
	leaf := m.root[ci>>m.leafBits]
	if leaf == nil {
		leaf = make([][]uint64, m.leafMask+1)
		m.root[ci>>m.leafBits] = leaf
	}
	c := leaf[ci&m.leafMask]
	if c == nil {
		c = make([]uint64, chunkSize*m.ew)
		if !m.zeroTmpl {
			fillTemplate(c, m.ew, m.template)
		}
		leaf[ci&m.leafMask] = c
	}
	m.lastCI, m.lastChunk = ci, c
	return c
}

// find returns chunk ci, or nil if it was never materialized, leaving
// the cache and the counters alone.
func (m *ChunkMap) find(ci uint64) []uint64 {
	if leaf := m.root[ci>>m.leafBits]; leaf != nil {
		return leaf[ci&m.leafMask]
	}
	return nil
}

// peekChunk is chunk() without materialization (nil when absent).
func (m *ChunkMap) peekChunk(ci uint64) []uint64 {
	if ci == m.lastCI {
		m.stats.CacheHits++
		return m.lastChunk
	}
	m.stats.CacheMisses++
	c := m.find(ci)
	if c != nil {
		m.lastCI, m.lastChunk = ci, c
	}
	return c
}

// Entry returns the entry words for key.
func (m *ChunkMap) Entry(key uint64) []uint64 {
	m.stats.Entries++
	key &= m.keyMask
	c := m.chunk(key >> chunkBits)
	i := int(key&chunkMask) * m.ew
	return c[i : i+m.ew : i+m.ew]
}

// Peek returns the entry words if the chunk is materialized.
func (m *ChunkMap) Peek(key uint64) []uint64 {
	m.stats.Peeks++
	key &= m.keyMask
	c := m.peekChunk(key >> chunkBits)
	if c == nil {
		return nil
	}
	i := int(key&chunkMask) * m.ew
	return c[i : i+m.ew : i+m.ew]
}

// Fill sets the field on n consecutive keys starting at key, walking
// chunks directly. The single-key case — a word-or-smaller program
// access at default granularity — takes a fast path.
func (m *ChunkMap) Fill(key, n uint64, off, width uint, v uint64) {
	m.stats.Fills++
	if n == 1 {
		key &= m.keyMask
		c := m.chunk(key >> chunkBits)
		i := int(key&chunkMask) * m.ew
		StoreField(c[i:i+m.ew], off, width, v)
		return
	}
	for n > 0 {
		k := key & m.keyMask
		c := m.chunk(k >> chunkBits)
		in := k & chunkMask
		run := min(chunkSize-in, n)
		base := int(in) * m.ew
		for i := uint64(0); i < run; i++ {
			StoreField(c[base:base+m.ew], off, width, v)
			base += m.ew
		}
		key += run
		n -= run
	}
}

// RangeOr ORs the field over n consecutive keys. A chunk never
// materialized reads as the template.
func (m *ChunkMap) RangeOr(key, n uint64, off, width uint) uint64 {
	m.stats.Ranges++
	if n == 1 {
		key &= m.keyMask
		c := m.peekChunk(key >> chunkBits)
		if c == nil {
			if m.zeroTmpl {
				return 0
			}
			return LoadField(m.template, off, width)
		}
		i := int(key&chunkMask) * m.ew
		return LoadField(c[i:i+m.ew], off, width)
	}
	var acc uint64
	for n > 0 {
		k := key & m.keyMask
		in := k & chunkMask
		run := min(chunkSize-in, n)
		if c := m.find(k >> chunkBits); c != nil {
			base := int(in) * m.ew
			for i := uint64(0); i < run; i++ {
				acc |= LoadField(c[base:base+m.ew], off, width)
				base += m.ew
			}
		} else if !m.zeroTmpl {
			acc |= LoadField(m.template, off, width)
		}
		key += run
		n -= run
	}
	return acc
}

// Remove resets the entry to the template.
func (m *ChunkMap) Remove(key uint64) {
	m.stats.Removes++
	key &= m.keyMask
	c := m.find(key >> chunkBits)
	if c == nil {
		return
	}
	i := int(key&chunkMask) * m.ew
	e := c[i : i+m.ew]
	if m.template != nil {
		copy(e, m.template)
	} else {
		clear(e)
	}
}

// ForEach visits every entry in materialized chunks, in key order.
func (m *ChunkMap) ForEach(fn func(key uint64, entry []uint64)) {
	m.stats.Iters++
	for li, leaf := range m.root {
		for si, c := range leaf {
			if c == nil {
				continue
			}
			ci := uint64(li)<<m.leafBits | uint64(si)
			for i := 0; i < chunkSize; i++ {
				base := i * m.ew
				fn(ci<<chunkBits|uint64(i), c[base:base+m.ew])
			}
		}
	}
}

// Stats returns the operation counters.
func (m *ChunkMap) Stats() Stats { return m.stats }

// Bytes returns the size of materialized chunks plus the directory, one
// slice header per slot: every leaf's slots, and the root's when it has
// more than one. A flat map's single root slot stands for the directory
// field itself, so NewShadowMap's footprint is its flat directory's.
func (m *ChunkMap) Bytes() uint64 {
	var n uint64
	if len(m.root) > 1 {
		n = uint64(len(m.root)) * sliceHeaderBytes
	}
	for _, leaf := range m.root {
		n += uint64(len(leaf)) * sliceHeaderBytes
		for _, c := range leaf {
			n += uint64(len(c)) * 8
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// HashMap — the generic fallback for sparse, unbounded key spaces.
//
// Open-addressing table with the entries inline in a single flat
// []uint64 arena: slot i occupies stride = keyWords+entryWords words,
// key first. NewHashMap keys a slot by one word. NewHashMap2 keys it by
// a pair, for a nested map with two unbounded key dimensions (e.g.
// map(pointer, map(pointer, v))); a pair table is read through Entry2,
// Peek2 and ForEach2, and the Container methods serve one-word tables
// only. Linear probing is tombstone-free — Remove back-shifts the
// probe chain — and growth doubles the arena and rehashes in place-ish,
// so steady-state Entry/Peek allocate nothing and touch one or two
// cache lines instead of a Go-map bucket walk plus a per-entry slice.
//
// Because entries live inline, a rehash (growth or a back-shifting
// Remove) moves them: entry slices returned before the rehash keep
// their pre-rehash values but are detached from the live arena. Gen()
// counts rehashes so callers that cache entry views (the compiler's
// lookup-CSE slots) can revalidate; values survive a rehash verbatim,
// so stale *reads* are safe — only writes must go through a
// post-rehash view.

const hashMul = 0x9E3779B97F4A7C15 // 2^64 / phi (Fibonacci hashing)

// HashMap maps uint64 keys, or key pairs, to entries.
type HashMap struct {
	arena    []uint64 // nslots * stride words: key word(s), entry...
	used     []uint64 // occupancy bitmap, one bit per slot
	mask     uint64   // nslots - 1
	shift    uint     // 64 - log2(nslots)
	count    uint64
	growAt   uint64 // rehash threshold (3/4 load)
	ew       int
	stride   int
	kw       int // key words per slot: 1, or 2 for a pair table
	gen      uint64
	template []uint64
	zeroTmpl bool
	stats    Stats // cold relative to the fields above; keep it last
}

const hashMinSlots = 8

// NewHashMap returns an empty hash map keyed by one word.
func NewHashMap(entryWords int, template []uint64) *HashMap {
	return newHashMap(1, entryWords, template)
}

// NewHashMap2 returns an empty hash map keyed by a pair of words.
func NewHashMap2(entryWords int, template []uint64) *HashMap {
	return newHashMap(2, entryWords, template)
}

func newHashMap(keyWords, entryWords int, template []uint64) *HashMap {
	m := &HashMap{
		ew:       entryWords,
		stride:   keyWords + entryWords,
		kw:       keyWords,
		template: template,
		zeroTmpl: template == nil || templateIsZero(template),
	}
	m.resize(hashMinSlots)
	return m
}

// hash2 mixes a key pair (splitmix64-style finalizer over the
// Fibonacci-spread first key).
func hash2(k1, k2 uint64) uint64 {
	h := k1*hashMul ^ (k2+hashMul)*0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// home returns a key's first probe slot; a one-word table ignores k2.
// find and find2 inline the same hashes.
func (m *HashMap) home(k1, k2 uint64) uint64 {
	if m.kw == 1 {
		return (k1 * hashMul) >> m.shift
	}
	return hash2(k1, k2) >> m.shift
}

// slotHome returns the home of the key stored at word b of arena.
func (m *HashMap) slotHome(arena []uint64, b uint64) uint64 {
	return m.home(arena[b], arena[b+uint64(m.kw)-1])
}

func (m *HashMap) resize(nslots uint64) {
	old := m.arena
	if old != nil {
		m.stats.Rehashes++
	}
	oldUsed := m.used
	oldMask := m.mask
	m.arena = make([]uint64, nslots*uint64(m.stride))
	m.used = make([]uint64, (nslots+63)/64)
	m.mask = nslots - 1
	m.shift = 64 - log2u(nslots)
	m.growAt = nslots - nslots/4
	m.gen++
	if old == nil {
		return
	}
	stride := uint64(m.stride)
	for i := uint64(0); i <= oldMask; i++ {
		if oldUsed[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		j := m.slotHome(old, i*stride)
		for m.isUsed(j) {
			j = (j + 1) & m.mask
		}
		m.used[j>>6] |= 1 << (j & 63)
		copy(m.arena[j*stride:], old[i*stride:i*stride+stride])
	}
}

func log2u(n uint64) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

func (m *HashMap) isUsed(i uint64) bool { return m.used[i>>6]&(1<<(i&63)) != 0 }

// find probes a one-word table for key: (slot, true) when present, else
// the insertion slot and false.
func (m *HashMap) find(key uint64) (uint64, bool) {
	i := (key * hashMul) >> m.shift
	for {
		if !m.isUsed(i) {
			return i, false
		}
		if m.arena[i*uint64(m.stride)] == key {
			return i, true
		}
		i = (i + 1) & m.mask
	}
}

// find2 is find for a pair table.
func (m *HashMap) find2(k1, k2 uint64) (uint64, bool) {
	i := hash2(k1, k2) >> m.shift
	stride := uint64(m.stride)
	for {
		if !m.isUsed(i) {
			return i, false
		}
		if m.arena[i*stride] == k1 && m.arena[i*stride+1] == k2 {
			return i, true
		}
		i = (i + 1) & m.mask
	}
}

// insert claims slot i for the key (k1, k2; a one-word table ignores
// k2) with a template-filled entry. The caller has already verified the
// key is absent and i is its probe-derived free slot.
func (m *HashMap) insert(i, k1, k2 uint64) []uint64 {
	if m.count >= m.growAt {
		m.resize((m.mask + 1) * 2)
		i = m.home(k1, k2)
		for m.isUsed(i) {
			i = (i + 1) & m.mask
		}
	}
	m.used[i>>6] |= 1 << (i & 63)
	m.count++
	base := i * uint64(m.stride)
	m.arena[base] = k1
	if m.kw == 2 {
		m.arena[base+1] = k2
	}
	base += uint64(m.kw)
	e := m.arena[base : base+uint64(m.ew) : base+uint64(m.ew)]
	if m.zeroTmpl {
		clear(e)
	} else {
		copy(e, m.template)
	}
	return e
}

// Entry returns the entry words for key, creating from template.
func (m *HashMap) Entry(key uint64) []uint64 {
	m.stats.Entries++
	i, ok := m.find(key)
	if !ok {
		return m.insert(i, key, 0)
	}
	base := i*uint64(m.stride) + 1
	return m.arena[base : base+uint64(m.ew) : base+uint64(m.ew)]
}

// Entry2 returns the entry words for (k1, k2) in a pair table, creating
// from template.
func (m *HashMap) Entry2(k1, k2 uint64) []uint64 {
	m.stats.Entries++
	i, ok := m.find2(k1, k2)
	if !ok {
		return m.insert(i, k1, k2)
	}
	base := i*uint64(m.stride) + 2
	return m.arena[base : base+uint64(m.ew) : base+uint64(m.ew)]
}

// Peek returns the entry words or nil, never materializing.
func (m *HashMap) Peek(key uint64) []uint64 {
	m.stats.Peeks++
	i, ok := m.find(key)
	if !ok {
		return nil
	}
	base := i*uint64(m.stride) + 1
	return m.arena[base : base+uint64(m.ew) : base+uint64(m.ew)]
}

// Peek2 is Peek for a pair table.
func (m *HashMap) Peek2(k1, k2 uint64) []uint64 {
	m.stats.Peeks++
	i, ok := m.find2(k1, k2)
	if !ok {
		return nil
	}
	base := i*uint64(m.stride) + 2
	return m.arena[base : base+uint64(m.ew) : base+uint64(m.ew)]
}

// Fill sets the field on n consecutive keys.
func (m *HashMap) Fill(key, n uint64, off, width uint, v uint64) {
	m.stats.Fills++
	for i := uint64(0); i < n; i++ {
		StoreField(m.Entry(key+i), off, width, v)
	}
}

// RangeOr ORs the field over n consecutive keys.
func (m *HashMap) RangeOr(key, n uint64, off, width uint) uint64 {
	m.stats.Ranges++
	var acc uint64
	tmplV := uint64(0)
	if !m.zeroTmpl {
		tmplV = LoadField(m.template, off, width)
	}
	for i := uint64(0); i < n; i++ {
		if s, ok := m.find(key + i); ok {
			base := s*uint64(m.stride) + 1
			acc |= LoadField(m.arena[base:base+uint64(m.ew)], off, width)
		} else {
			acc |= tmplV
		}
	}
	return acc
}

// Remove deletes the entry, back-shifting the probe chain so no
// tombstones accumulate (Knuth 6.4 algorithm R).
func (m *HashMap) Remove(key uint64) {
	m.stats.Removes++
	i, ok := m.find(key)
	if !ok {
		return
	}
	m.count--
	m.gen++
	stride := uint64(m.stride)
	j := i
	for {
		j = (j + 1) & m.mask
		if !m.isUsed(j) {
			break
		}
		home := m.slotHome(m.arena, j*stride)
		// Slot j may fill the hole at i only if i lies on j's probe path,
		// i.e. cyclically within [home, j).
		if (j-home)&m.mask >= (j-i)&m.mask {
			copy(m.arena[i*stride:i*stride+stride], m.arena[j*stride:j*stride+stride])
			i = j
		}
	}
	m.used[i>>6] &^= 1 << (i & 63)
}

// ForEach visits every entry in slot order (deterministic, unlike the
// former Go-map backing; callers must stay order-insensitive anyway).
func (m *HashMap) ForEach(fn func(key uint64, entry []uint64)) {
	m.stats.Iters++
	stride := uint64(m.stride)
	for i := uint64(0); i <= m.mask; i++ {
		if m.isUsed(i) {
			base := i * stride
			fn(m.arena[base], m.arena[base+1:base+stride])
		}
	}
}

// ForEach2 is ForEach for a pair table.
func (m *HashMap) ForEach2(fn func(k1, k2 uint64, entry []uint64)) {
	m.stats.Iters++
	stride := uint64(m.stride)
	for i := uint64(0); i <= m.mask; i++ {
		if m.isUsed(i) {
			base := i * stride
			fn(m.arena[base], m.arena[base+1], m.arena[base+2:base+stride])
		}
	}
}

// Stats returns the operation counters.
func (m *HashMap) Stats() Stats { return m.stats }

// Len returns the number of live entries.
func (m *HashMap) Len() int { return int(m.count) }

// Gen returns the rehash generation; entry slices obtained at an older
// generation are detached from the live arena (stale for writes).
func (m *HashMap) Gen() uint64 { return m.gen }

// Bytes returns the arena plus occupancy bitmap.
func (m *HashMap) Bytes() uint64 {
	return uint64(len(m.arena))*8 + uint64(len(m.used))*8
}

// Compile-time interface checks.
var (
	_ Container = (*ArrayMap)(nil)
	_ Container = (*ChunkMap)(nil)
	_ Container = (*HashMap)(nil)
)
