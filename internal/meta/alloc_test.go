package meta

import "testing"

// Zero-allocation guarantees for the steady-state container hot path:
// once a key's entry is materialized, Get (Peek+LoadField) and Set
// (Entry+StoreField) must not allocate. This is the property the
// flat-arena rewrite exists to provide — a regression here reintroduces
// per-access garbage on every instrumented memory access.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, fn); avg != 0 {
		t.Errorf("%s: %v allocs per steady-state op, want 0", name, avg)
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	tmpl := []uint64{0, 0}
	keys := make([]uint64, 512)
	x := uint64(12345)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x % (1 << 20)
	}

	type tc struct {
		name  string
		entry func(key uint64) []uint64
		peek  func(key uint64) []uint64
	}
	am := NewArrayMap(1<<20, 2, tmpl)
	sm := NewShadowMap(1<<20, 2, tmpl)
	pt := NewPageTableMap(1<<20, 2, tmpl)
	hm := NewHashMap(2, tmpl)
	cases := []tc{
		{"ArrayMap", am.Entry, am.Peek},
		{"ShadowMap", sm.Entry, sm.Peek},
		{"PageTableMap", pt.Entry, pt.Peek},
		{"HashMap", hm.Entry, hm.Peek},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, k := range keys {
				c.entry(k) // materialize
			}
			i := 0
			assertZeroAllocs(t, c.name+"/set", func() {
				StoreField(c.entry(keys[i%len(keys)]), 0, 64, uint64(i))
				i++
			})
			var acc uint64
			assertZeroAllocs(t, c.name+"/get", func() {
				if e := c.peek(keys[i%len(keys)]); e != nil {
					acc += LoadField(e, 0, 64)
				}
				i++
			})
			_ = acc
		})
	}

	t.Run("HashMap2", func(t *testing.T) {
		h2 := NewHashMap2(2, tmpl)
		for i, k := range keys {
			h2.Entry2(k, uint64(i%64))
		}
		i := 0
		assertZeroAllocs(t, "HashMap2/set", func() {
			StoreField(h2.Entry2(keys[i%len(keys)], uint64(i%64)), 0, 64, uint64(i))
			i++
		})
		var acc uint64
		assertZeroAllocs(t, "HashMap2/get", func() {
			if e := h2.Peek2(keys[i%len(keys)], uint64(i%64)); e != nil {
				acc += LoadField(e, 0, 64)
			}
			i++
		})
		_ = acc
	})
}
