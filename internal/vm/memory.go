package vm

// Simulated memory: a byte-addressable space stored as lazily-allocated
// chunks of 64-bit words, plus a heap allocator with size-class
// freelists so freed addresses are reused (which is what makes
// use-after-free observable to analyses).

const (
	memChunkBits  = 15 // 32768 words = 256 KiB per chunk
	memChunkWords = 1 << memChunkBits
	memChunkMask  = memChunkWords - 1

	// heapBase leaves a small unmapped-feeling low region (null page and
	// friends); the heap grows upward from here.
	heapBase uint64 = 1 << 16
)

type memory struct {
	chunks   [][]uint64
	wordMask uint64 // (addrSpace>>3)-1
	byteMask uint64
}

func (m *memory) init(addrSpace uint64) {
	words := addrSpace >> 3
	m.chunks = make([][]uint64, (words+memChunkWords-1)>>memChunkBits)
	m.wordMask = words - 1
	m.byteMask = addrSpace - 1
}

func (m *memory) chunk(ci uint64) []uint64 {
	c := m.chunks[ci]
	if c == nil {
		c = make([]uint64, memChunkWords)
		m.chunks[ci] = c
	}
	return c
}

// loadWord reads the aligned 64-bit word containing byte address addr.
func (m *memory) loadWord(addr uint64) uint64 {
	w := (addr >> 3) & m.wordMask
	c := m.chunks[w>>memChunkBits]
	if c == nil {
		return 0
	}
	return c[w&memChunkMask]
}

func (m *memory) storeWord(addr uint64, v uint64) {
	w := (addr >> 3) & m.wordMask
	m.chunk(w >> memChunkBits)[w&memChunkMask] = v
}

// straddles reports whether a size-byte access at addr crosses out of
// its containing 64-bit word. load and store shift within one word
// only, so a straddling sub-word read would silently return bytes from
// the wrong locations and a straddling write would drop the bytes past
// the word; the VM traps on both instead (KindTrap RunError).
func straddles(addr uint64, size uint8) bool {
	return size != 8 && (addr&7)+uint64(size) > 8
}

// load reads size bytes (1, 2, 4 or 8) at addr, little-endian within the
// containing word. Sub-word accesses must not straddle a word boundary;
// workload builders keep natural alignment so they never do, and OpLoad
// and OpStore trap (straddles) before calling load or store.
func (m *memory) load(addr uint64, size uint8) uint64 {
	w := m.loadWord(addr)
	if size == 8 {
		return w
	}
	sh := (addr & 7) * 8
	switch size {
	case 1:
		return (w >> sh) & 0xff
	case 2:
		return (w >> sh) & 0xffff
	default: // 4
		return (w >> sh) & 0xffffffff
	}
}

func (m *memory) store(addr uint64, v uint64, size uint8) {
	if size == 8 {
		m.storeWord(addr, v)
		return
	}
	w := (addr >> 3) & m.wordMask
	c := m.chunk(w >> memChunkBits)
	i := w & memChunkMask
	sh := (addr & 7) * 8
	var mask uint64
	switch size {
	case 1:
		mask = 0xff << sh
	case 2:
		mask = 0xffff << sh
	default:
		mask = 0xffffffff << sh
	}
	c[i] = (c[i] &^ mask) | ((v << sh) & mask)
}

// ---------------------------------------------------------------------------
// Heap

const heapAlign = 16

type heap struct {
	next  uint64
	limit uint64
	live  uint64              // bytes in live allocations (size-class rounded)
	free  map[uint64][]uint64 // size class -> freed addresses (LIFO)
	sizes map[uint64]uint64   // live allocation -> size
}

func (h *heap) init(base, limit uint64) {
	h.next = base
	h.limit = limit
	h.free = make(map[uint64][]uint64)
	h.sizes = make(map[uint64]uint64)
}

func sizeClass(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	return (n + heapAlign - 1) &^ (heapAlign - 1)
}

// alloc returns a heapAlign-aligned block of at least n bytes, reusing a
// freed block of the same class when available. Returns 0 on exhaustion.
func (h *heap) alloc(n uint64) uint64 {
	cls := sizeClass(n)
	if lst := h.free[cls]; len(lst) > 0 {
		a := lst[len(lst)-1]
		h.free[cls] = lst[:len(lst)-1]
		h.sizes[a] = cls
		h.live += cls
		return a
	}
	if h.next+cls > h.limit {
		return 0
	}
	a := h.next
	h.next += cls
	h.sizes[a] = cls
	h.live += cls
	return a
}

// release frees a block; double or foreign frees are ignored (the
// analyses are what detect those). Returns the block size, 0 if unknown.
func (h *heap) release(a uint64) uint64 {
	cls, ok := h.sizes[a]
	if !ok {
		return 0
	}
	delete(h.sizes, a)
	h.free[cls] = append(h.free[cls], a)
	h.live -= cls
	return cls
}

// sizeOf returns the live allocation size of a, or 0.
func (h *heap) sizeOf(a uint64) uint64 { return h.sizes[a] }
