package perf

// Map-backed reference containers: the pre-flat-arena one-word and
// pair hash tables (a Go map of per-entry slices), retained verbatim so
// the benchmark suite keeps measuring the open-addressing table against
// the design it replaced. Not used by the runtime.

type mapHashMap struct {
	m        map[uint64][]uint64
	ew       int
	template []uint64
}

func newMapHashMap(entryWords int, template []uint64) *mapHashMap {
	return &mapHashMap{m: make(map[uint64][]uint64), ew: entryWords, template: template}
}

func (m *mapHashMap) Entry(key uint64) []uint64 {
	e, ok := m.m[key]
	if !ok {
		e = make([]uint64, m.ew)
		if m.template != nil {
			copy(e, m.template)
		}
		m.m[key] = e
	}
	return e
}

func (m *mapHashMap) Peek(key uint64) []uint64 { return m.m[key] }

func (m *mapHashMap) ForEach(fn func(key uint64, entry []uint64)) {
	for k, e := range m.m {
		fn(k, e)
	}
}

type mapHashMap2 struct {
	m        map[[2]uint64][]uint64
	ew       int
	template []uint64
}

func newMapHashMap2(entryWords int, template []uint64) *mapHashMap2 {
	return &mapHashMap2{m: make(map[[2]uint64][]uint64), ew: entryWords, template: template}
}

func (m *mapHashMap2) Entry(k1, k2 uint64) []uint64 {
	k := [2]uint64{k1, k2}
	e, ok := m.m[k]
	if !ok {
		e = make([]uint64, m.ew)
		if m.template != nil {
			copy(e, m.template)
		}
		m.m[k] = e
	}
	return e
}

func (m *mapHashMap2) Peek(k1, k2 uint64) []uint64 { return m.m[[2]uint64{k1, k2}] }
