package meta

// Container is the uniform interface over the four map structures the
// compiler selects among. Keys are pre-normalized by the caller: for
// address-keyed maps the key is the granule index (address >> granule
// shift); for small-domain maps it is the raw value.
//
// Entry returns the value words for a key, materializing the entry from
// the group's init template if needed. Peek returns nil instead of
// materializing; only the hash maps and ArrayMap answer it per key —
// ShadowMap and PageTableMap answer for a whole chunk or page, so the
// compiler keeps maps queried with `has` off them. Fill and RangeOr are
// the range operations behind ALDA's map.set(k, v, n) and map.get(k, n)
// builtins, specialized per container so offset shadow memory gets its
// fast path.
type Container interface {
	Entry(key uint64) []uint64
	Peek(key uint64) []uint64
	Fill(key, n uint64, off, width uint, v uint64)
	RangeOr(key, n uint64, off, width uint) uint64
	Remove(key uint64)
	ForEach(fn func(key uint64, entry []uint64))
	// Lookups returns the number of Entry/Peek/Fill/RangeOr calls served,
	// for the aldaexplain tool and tests.
	Lookups() uint64
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
// over n keys also adds n to Entries), matching Lookups' accounting.
type Stats struct {
	Entries     uint64 // Entry calls (get-or-materialize)
	Peeks       uint64 // Peek calls (presence-preserving reads)
	Fills       uint64 // Fill calls (range/field stores)
	Ranges      uint64 // RangeOr calls (range/field reads)
	Removes     uint64 // Remove calls
	Iters       uint64 // ForEach traversals
	Rehashes    uint64 // hash-arena growths that moved live entries
	CacheHits   uint64 // last-chunk/last-page inline-cache hits
	CacheMisses uint64 // inline-cache misses (directory walks)
}

// Gets sums read-side traffic.
func (s Stats) Gets() uint64 { return s.Entries + s.Peeks + s.Ranges }

// Sets sums write-side traffic.
func (s Stats) Sets() uint64 { return s.Fills + s.Removes }

// lookups is the legacy Lookups() value — one per Entry/Peek/Fill/
// RangeOr call. Every such call increments exactly one of these four
// counters, so Lookups is derived rather than maintained as a fifth
// field: the hot paths pay one increment, not two.
func (s Stats) lookups() uint64 { return s.Entries + s.Peeks + s.Fills + s.Ranges }

func templateIsZero(t []uint64) bool {
	for _, w := range t {
		if w != 0 {
			return false
		}
	}
	return true
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
	if template != nil && !templateIsZero(template) {
		for k := int64(0); k < domain; k++ {
			copy(m.words[int(k)*entryWords:], template)
		}
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

// Lookups returns the lookup counter.
func (m *ArrayMap) Lookups() uint64 { return m.stats.lookups() }

// Stats returns the operation counters.
func (m *ArrayMap) Stats() Stats { return m.stats }

// Bytes returns the backing storage size.
func (m *ArrayMap) Bytes() uint64 { return uint64(len(m.words))*8 + uint64(len(m.touched)) }

// ---------------------------------------------------------------------------
// ShadowMap — offset-based shadow memory (§5.3). Chunked flat arrays with
// pure array indexing on the fast path: chunk pointer + offset, no
// hashing and no presence probes beyond a nil chunk check. Memory is
// proportional to the touched address range.

const (
	shadowChunkBits = 16 // 65536 entries per chunk
	shadowChunkSize = 1 << shadowChunkBits
	shadowChunkMask = shadowChunkSize - 1
)

// ShadowMap maps a bounded granule-index space to entries.
type ShadowMap struct {
	chunks   [][]uint64
	ew       int
	keyMask  uint64
	template []uint64
	zeroTmpl bool

	// one-entry software TLB: program accesses streak within a page, so
	// the common case skips the chunk-directory load entirely. Chunks
	// never move once materialized, so the cache never goes stale.
	lastCI    uint64
	lastChunk []uint64

	stats Stats // cold relative to the fields above; keep it last
}

// NewShadowMap returns a shadow map covering maxKeys granule indices
// (rounded up to a power of two); keys are masked into range.
func NewShadowMap(maxKeys uint64, entryWords int, template []uint64) *ShadowMap {
	size := uint64(1)
	for size < maxKeys {
		size <<= 1
	}
	nchunks := (size + shadowChunkSize - 1) >> shadowChunkBits
	return &ShadowMap{
		chunks:   make([][]uint64, nchunks),
		ew:       entryWords,
		keyMask:  size - 1,
		template: template,
		zeroTmpl: template == nil || templateIsZero(template),
		lastCI:   ^uint64(0),
	}
}

func (m *ShadowMap) chunk(ci uint64) []uint64 {
	if ci == m.lastCI {
		m.stats.CacheHits++
		return m.lastChunk
	}
	m.stats.CacheMisses++
	c := m.chunks[ci]
	if c == nil {
		c = make([]uint64, shadowChunkSize*m.ew)
		if !m.zeroTmpl {
			for i := 0; i < shadowChunkSize; i++ {
				copy(c[i*m.ew:], m.template)
			}
		}
		m.chunks[ci] = c
	}
	m.lastCI, m.lastChunk = ci, c
	return c
}

// peekChunk is chunk() without materialization (nil when absent).
func (m *ShadowMap) peekChunk(ci uint64) []uint64 {
	if ci == m.lastCI {
		m.stats.CacheHits++
		return m.lastChunk
	}
	m.stats.CacheMisses++
	c := m.chunks[ci]
	if c != nil {
		m.lastCI, m.lastChunk = ci, c
	}
	return c
}

// Entry returns the entry words for key.
func (m *ShadowMap) Entry(key uint64) []uint64 {
	m.stats.Entries++
	key &= m.keyMask
	c := m.chunk(key >> shadowChunkBits)
	i := int(key&shadowChunkMask) * m.ew
	return c[i : i+m.ew : i+m.ew]
}

// Peek returns the entry words if the chunk is materialized.
func (m *ShadowMap) Peek(key uint64) []uint64 {
	m.stats.Peeks++
	key &= m.keyMask
	c := m.peekChunk(key >> shadowChunkBits)
	if c == nil {
		return nil
	}
	i := int(key&shadowChunkMask) * m.ew
	return c[i : i+m.ew : i+m.ew]
}

// Fill sets the field on n consecutive keys starting at key, walking
// chunks directly. The single-key case — a word-or-smaller program
// access at default granularity — takes a fast path.
func (m *ShadowMap) Fill(key, n uint64, off, width uint, v uint64) {
	m.stats.Fills++
	if n == 1 {
		key &= m.keyMask
		c := m.chunk(key >> shadowChunkBits)
		i := int(key&shadowChunkMask) * m.ew
		StoreField(c[i:i+m.ew], off, width, v)
		return
	}
	for n > 0 {
		k := key & m.keyMask
		c := m.chunk(k >> shadowChunkBits)
		in := k & shadowChunkMask
		run := shadowChunkSize - in
		if run > n {
			run = n
		}
		base := int(in) * m.ew
		for i := uint64(0); i < run; i++ {
			StoreField(c[base:base+m.ew], off, width, v)
			base += m.ew
		}
		key += run
		n -= run
	}
}

// RangeOr ORs the field over n consecutive keys.
func (m *ShadowMap) RangeOr(key, n uint64, off, width uint) uint64 {
	m.stats.Ranges++
	if n == 1 {
		key &= m.keyMask
		c := m.peekChunk(key >> shadowChunkBits)
		if c == nil {
			if m.zeroTmpl {
				return 0
			}
			return LoadField(m.template, off, width)
		}
		i := int(key&shadowChunkMask) * m.ew
		return LoadField(c[i:i+m.ew], off, width)
	}
	var acc uint64
	for n > 0 {
		k := key & m.keyMask
		ci := k >> shadowChunkBits
		in := k & shadowChunkMask
		run := shadowChunkSize - in
		if run > n {
			run = n
		}
		c := m.chunks[ci]
		if c == nil {
			if !m.zeroTmpl {
				acc |= LoadField(m.template, off, width)
			}
		} else {
			base := int(in) * m.ew
			for i := uint64(0); i < run; i++ {
				acc |= LoadField(c[base:base+m.ew], off, width)
				base += m.ew
			}
		}
		key += run
		n -= run
	}
	return acc
}

// Remove resets the entry to the template.
func (m *ShadowMap) Remove(key uint64) {
	m.stats.Removes++
	key &= m.keyMask
	c := m.chunks[key>>shadowChunkBits]
	if c == nil {
		return
	}
	i := int(key&shadowChunkMask) * m.ew
	e := c[i : i+m.ew]
	if m.template != nil {
		copy(e, m.template)
	} else {
		for j := range e {
			e[j] = 0
		}
	}
}

// ForEach visits every entry in materialized chunks.
func (m *ShadowMap) ForEach(fn func(key uint64, entry []uint64)) {
	m.stats.Iters++
	for ci, c := range m.chunks {
		if c == nil {
			continue
		}
		for i := 0; i < shadowChunkSize; i++ {
			base := i * m.ew
			fn(uint64(ci)<<shadowChunkBits|uint64(i), c[base:base+m.ew])
		}
	}
}

// Lookups returns the lookup counter.
func (m *ShadowMap) Lookups() uint64 { return m.stats.lookups() }

// Stats returns the operation counters.
func (m *ShadowMap) Stats() Stats { return m.stats }

// Bytes returns the size of materialized chunks.
func (m *ShadowMap) Bytes() uint64 {
	var n uint64
	for _, c := range m.chunks {
		if c != nil {
			n += uint64(len(c)) * 8
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// PageTableMap — two-level structure with a hashed directory (§5.3's
// memory-efficient choice for high shadow factors). Each lookup pays a
// hash probe into the directory plus an index into the page.

const (
	pageBits = 12 // 4096 entries per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// PageTableMap maps arbitrary uint64 keys to entries via a directory of
// lazily-allocated pages.
type PageTableMap struct {
	dir      map[uint64][]uint64
	ew       int
	template []uint64
	zeroTmpl bool

	// one-entry inline cache: page-table walks in real shadow-memory
	// systems cache the last directory hit, and it is what makes the
	// page table competitive on sequential access.
	lastPI   uint64
	lastPage []uint64

	stats Stats // cold relative to the fields above; keep it last
}

// NewPageTableMap returns an empty page-table map.
func NewPageTableMap(entryWords int, template []uint64) *PageTableMap {
	return &PageTableMap{
		dir:      make(map[uint64][]uint64),
		ew:       entryWords,
		template: template,
		zeroTmpl: template == nil || templateIsZero(template),
		lastPI:   ^uint64(0),
	}
}

func (m *PageTableMap) page(pi uint64) []uint64 {
	if pi == m.lastPI {
		m.stats.CacheHits++
		return m.lastPage
	}
	m.stats.CacheMisses++
	p, ok := m.dir[pi]
	if !ok {
		p = make([]uint64, pageSize*m.ew)
		if !m.zeroTmpl {
			for i := 0; i < pageSize; i++ {
				copy(p[i*m.ew:], m.template)
			}
		}
		m.dir[pi] = p
	}
	m.lastPI, m.lastPage = pi, p
	return p
}

// Entry returns the entry words for key.
func (m *PageTableMap) Entry(key uint64) []uint64 {
	m.stats.Entries++
	p := m.page(key >> pageBits)
	i := int(key&pageMask) * m.ew
	return p[i : i+m.ew : i+m.ew]
}

// Peek returns the entry words if the page exists.
func (m *PageTableMap) Peek(key uint64) []uint64 {
	m.stats.Peeks++
	pi := key >> pageBits
	var p []uint64
	if pi == m.lastPI {
		m.stats.CacheHits++
		p = m.lastPage
	} else {
		m.stats.CacheMisses++
		p = m.dir[pi]
	}
	if p == nil {
		return nil
	}
	i := int(key&pageMask) * m.ew
	return p[i : i+m.ew : i+m.ew]
}

// Fill sets the field on n consecutive keys starting at key.
func (m *PageTableMap) Fill(key, n uint64, off, width uint, v uint64) {
	m.stats.Fills++
	if n == 1 {
		p := m.page(key >> pageBits)
		i := int(key&pageMask) * m.ew
		StoreField(p[i:i+m.ew], off, width, v)
		return
	}
	for n > 0 {
		p := m.page(key >> pageBits)
		in := key & pageMask
		run := uint64(pageSize) - in
		if run > n {
			run = n
		}
		base := int(in) * m.ew
		for i := uint64(0); i < run; i++ {
			StoreField(p[base:base+m.ew], off, width, v)
			base += m.ew
		}
		key += run
		n -= run
	}
}

// RangeOr ORs the field over n consecutive keys.
func (m *PageTableMap) RangeOr(key, n uint64, off, width uint) uint64 {
	m.stats.Ranges++
	if n == 1 {
		pi := key >> pageBits
		var p []uint64
		if pi == m.lastPI {
			m.stats.CacheHits++
			p = m.lastPage
		} else {
			m.stats.CacheMisses++
			p = m.dir[pi]
		}
		if p == nil {
			if m.zeroTmpl {
				return 0
			}
			return LoadField(m.template, off, width)
		}
		i := int(key&pageMask) * m.ew
		return LoadField(p[i:i+m.ew], off, width)
	}
	var acc uint64
	for n > 0 {
		pi := key >> pageBits
		in := key & pageMask
		run := uint64(pageSize) - in
		if run > n {
			run = n
		}
		var p []uint64
		if pi == m.lastPI {
			p = m.lastPage
		} else {
			p = m.dir[pi]
		}
		if p == nil {
			if !m.zeroTmpl {
				acc |= LoadField(m.template, off, width)
			}
		} else {
			base := int(in) * m.ew
			for i := uint64(0); i < run; i++ {
				acc |= LoadField(p[base:base+m.ew], off, width)
				base += m.ew
			}
		}
		key += run
		n -= run
	}
	return acc
}

// Remove resets the entry to the template.
func (m *PageTableMap) Remove(key uint64) {
	m.stats.Removes++
	pi := key >> pageBits
	p := m.dir[pi]
	if p == nil {
		return
	}
	i := int(key&pageMask) * m.ew
	e := p[i : i+m.ew]
	if m.template != nil {
		copy(e, m.template)
	} else {
		for j := range e {
			e[j] = 0
		}
	}
}

// ForEach visits every entry in materialized pages.
func (m *PageTableMap) ForEach(fn func(key uint64, entry []uint64)) {
	m.stats.Iters++
	for pi, p := range m.dir {
		for i := 0; i < pageSize; i++ {
			base := i * m.ew
			fn(pi<<pageBits|uint64(i), p[base:base+m.ew])
		}
	}
}

// Lookups returns the lookup counter.
func (m *PageTableMap) Lookups() uint64 { return m.stats.lookups() }

// Stats returns the operation counters.
func (m *PageTableMap) Stats() Stats { return m.stats }

// Bytes returns the size of materialized pages plus directory overhead.
func (m *PageTableMap) Bytes() uint64 {
	var n uint64
	for _, p := range m.dir {
		n += uint64(len(p)) * 8
	}
	return n + uint64(len(m.dir))*16
}

// ---------------------------------------------------------------------------
// HashMap — the generic fallback for sparse, unbounded key spaces.
//
// Open-addressing table with the entries inline in a single flat
// []uint64 arena: slot i occupies stride = 1+entryWords words, key
// first. Linear probing is tombstone-free — Remove back-shifts the
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

// HashMap maps arbitrary uint64 keys to entries.
type HashMap struct {
	arena    []uint64 // nslots * stride words: key, entry...
	used     []uint64 // occupancy bitmap, one bit per slot
	mask     uint64   // nslots - 1
	shift    uint     // 64 - log2(nslots)
	count    uint64
	growAt   uint64 // rehash threshold (7/8 load)
	ew       int
	stride   int
	gen      uint64
	template []uint64
	zeroTmpl bool
	stats    Stats // cold relative to the fields above; keep it last
}

const hashMinSlots = 8

// NewHashMap returns an empty hash map.
func NewHashMap(entryWords int, template []uint64) *HashMap {
	m := &HashMap{
		ew:       entryWords,
		stride:   1 + entryWords,
		template: template,
		zeroTmpl: template == nil || templateIsZero(template),
	}
	m.resize(hashMinSlots)
	return m
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
		src := old[i*stride : i*stride+stride]
		j := (src[0] * hashMul) >> m.shift
		for m.used[j>>6]&(1<<(j&63)) != 0 {
			j = (j + 1) & m.mask
		}
		m.used[j>>6] |= 1 << (j & 63)
		copy(m.arena[j*stride:], src)
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

// find probes for key: (slot, true) when present, else the insertion
// slot and false.
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

// insert claims slot i for key with a template-filled entry. The caller
// has already verified key is absent and i is its probe-derived free
// slot.
func (m *HashMap) insert(i, key uint64) []uint64 {
	if m.count >= m.growAt {
		m.resize((m.mask + 1) * 2)
		i, _ = m.find(key)
	}
	m.used[i>>6] |= 1 << (i & 63)
	m.count++
	base := i * uint64(m.stride)
	m.arena[base] = key
	e := m.arena[base+1 : base+1+uint64(m.ew) : base+1+uint64(m.ew)]
	if m.zeroTmpl {
		for j := range e {
			e[j] = 0
		}
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
		return m.insert(i, key)
	}
	base := i*uint64(m.stride) + 1
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
		home := (m.arena[j*stride] * hashMul) >> m.shift
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

// Lookups returns the lookup counter.
func (m *HashMap) Lookups() uint64 { return m.stats.lookups() }

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

// ---------------------------------------------------------------------------
// HashMap2 — composite two-key fallback used when a nested map has two
// unbounded key dimensions (e.g. map(pointer, map(pointer, v))). Same
// flat-arena open addressing as HashMap with stride = 2+entryWords.

// HashMap2 maps key pairs to entries.
type HashMap2 struct {
	arena    []uint64 // nslots * stride words: key1, key2, entry...
	used     []uint64
	mask     uint64
	shift    uint
	count    uint64
	growAt   uint64
	ew       int
	stride   int
	gen      uint64
	template []uint64
	zeroTmpl bool
	stats    Stats // cold relative to the fields above; keep it last
}

// NewHashMap2 returns an empty two-key hash map.
func NewHashMap2(entryWords int, template []uint64) *HashMap2 {
	m := &HashMap2{
		ew:       entryWords,
		stride:   2 + entryWords,
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

func (m *HashMap2) resize(nslots uint64) {
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
		src := old[i*stride : i*stride+stride]
		j := hash2(src[0], src[1]) >> m.shift
		for m.used[j>>6]&(1<<(j&63)) != 0 {
			j = (j + 1) & m.mask
		}
		m.used[j>>6] |= 1 << (j & 63)
		copy(m.arena[j*stride:], src)
	}
}

func (m *HashMap2) isUsed(i uint64) bool { return m.used[i>>6]&(1<<(i&63)) != 0 }

func (m *HashMap2) find(k1, k2 uint64) (uint64, bool) {
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

// Entry returns the entry words for (k1, k2), creating from template.
func (m *HashMap2) Entry(k1, k2 uint64) []uint64 {
	m.stats.Entries++
	i, ok := m.find(k1, k2)
	if !ok {
		if m.count >= m.growAt {
			m.resize((m.mask + 1) * 2)
			i, _ = m.find(k1, k2)
		}
		m.used[i>>6] |= 1 << (i & 63)
		m.count++
		base := i * uint64(m.stride)
		m.arena[base] = k1
		m.arena[base+1] = k2
		e := m.arena[base+2 : base+2+uint64(m.ew) : base+2+uint64(m.ew)]
		if m.zeroTmpl {
			for j := range e {
				e[j] = 0
			}
		} else {
			copy(e, m.template)
		}
		return e
	}
	base := i*uint64(m.stride) + 2
	return m.arena[base : base+uint64(m.ew) : base+uint64(m.ew)]
}

// Peek returns the entry words or nil, never materializing.
func (m *HashMap2) Peek(k1, k2 uint64) []uint64 {
	m.stats.Peeks++
	i, ok := m.find(k1, k2)
	if !ok {
		return nil
	}
	base := i*uint64(m.stride) + 2
	return m.arena[base : base+uint64(m.ew) : base+uint64(m.ew)]
}

// ForEach visits every entry in slot order.
func (m *HashMap2) ForEach(fn func(k1, k2 uint64, entry []uint64)) {
	m.stats.Iters++
	stride := uint64(m.stride)
	for i := uint64(0); i <= m.mask; i++ {
		if m.isUsed(i) {
			base := i * stride
			fn(m.arena[base], m.arena[base+1], m.arena[base+2:base+stride])
		}
	}
}

// Lookups returns the lookup counter.
func (m *HashMap2) Lookups() uint64 { return m.stats.lookups() }

// Stats returns the operation counters.
func (m *HashMap2) Stats() Stats { return m.stats }

// Len returns the number of live entries.
func (m *HashMap2) Len() int { return int(m.count) }

// Gen returns the rehash generation (see HashMap.Gen).
func (m *HashMap2) Gen() uint64 { return m.gen }

// Bytes returns the arena plus occupancy bitmap.
func (m *HashMap2) Bytes() uint64 {
	return uint64(len(m.arena))*8 + uint64(len(m.used))*8
}

// Compile-time interface checks.
var (
	_ Container = (*ArrayMap)(nil)
	_ Container = (*ShadowMap)(nil)
	_ Container = (*PageTableMap)(nil)
	_ Container = (*HashMap)(nil)
)
