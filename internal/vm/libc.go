package vm

import "sync"

// LibFn models an external library function (§5.6.2). Library bodies
// execute atomically — the paper's analogue is code in non-instrumented
// shared objects, which is exactly what gives rise to MSan's gets()
// false positive in Table 3: memory effects inside a library are
// invisible to instruction-level instrumentation and analyses must
// handle the call boundary instead.
type LibFn func(m *Machine, t *thread, args []uint64) uint64

func arg(args []uint64, i int) uint64 {
	if i < len(args) {
		return args[i]
	}
	return 0
}

// The stdlib table is built once per process and shared by every
// Machine: LibFn bodies are stateless (all mutable state lives on the
// Machine passed in), so concurrent Machines can read the same map.
// Machines that override entries via RegisterLib get a private
// copy-on-write clone.
var (
	stdlibOnce   sync.Once
	stdlibShared map[string]LibFn
)

func stdlibTable() map[string]LibFn {
	stdlibOnce.Do(func() { stdlibShared = buildStdlibTable() })
	return stdlibShared
}

func buildStdlibTable() map[string]LibFn {
	libs := map[string]LibFn{
		"malloc": func(m *Machine, t *thread, args []uint64) uint64 {
			return m.heapAlloc(arg(args, 0), "malloc")
		},
		"calloc": func(m *Machine, t *thread, args []uint64) uint64 {
			n := arg(args, 0) * arg(args, 1)
			a := m.heapAlloc(n, "calloc")
			if a == 0 {
				return 0
			}
			for i := uint64(0); i < n; i += 8 {
				m.mem.storeWord(a+i, 0)
			}
			return a
		},
		"free": func(m *Machine, t *thread, args []uint64) uint64 {
			m.heapFree(arg(args, 0))
			return 0
		},
		"memset": func(m *Machine, t *thread, args []uint64) uint64 {
			p, v, n := arg(args, 0), arg(args, 1)&0xff, arg(args, 2)
			word := v * 0x0101010101010101
			i := uint64(0)
			for ; i+8 <= n && (p+i)&7 == 0; i += 8 {
				m.mem.storeWord(p+i, word)
			}
			for ; i < n; i++ {
				m.mem.store(p+i, v, 1)
			}
			return p
		},
		"memcpy": func(m *Machine, t *thread, args []uint64) uint64 {
			d, s, n := arg(args, 0), arg(args, 1), arg(args, 2)
			i := uint64(0)
			for ; i+8 <= n && (d+i)&7 == 0 && (s+i)&7 == 0; i += 8 {
				m.mem.storeWord(d+i, m.mem.loadWord(s+i))
			}
			for ; i < n; i++ {
				m.mem.store(d+i, m.mem.load(s+i, 1), 1)
			}
			return d
		},
		// gets writes a line of modeled input into the buffer. The line is
		// 16 deterministic bytes plus a NUL.
		"gets": func(m *Machine, t *thread, args []uint64) uint64 {
			p := arg(args, 0)
			for i := uint64(0); i < 16; i++ {
				m.mem.store(p+i, 'a'+(m.inputCursor+i)%26, 1)
			}
			m.mem.store(p+16, 0, 1)
			m.inputCursor += 16
			return p
		},
		"strlen": func(m *Machine, t *thread, args []uint64) uint64 {
			p := arg(args, 0)
			for i := uint64(0); i < 1<<16; i++ {
				if m.mem.load(p+i, 1) == 0 {
					return i
				}
			}
			m.failf(KindLibFault, "strlen: unterminated string at %#x", arg(args, 0))
			return 0
		},
		"rand": func(m *Machine, t *thread, args []uint64) uint64 {
			return m.Rand() & 0x7fffffff
		},
		// Modeled program output is discarded.
		"print_i64": func(m *Machine, t *thread, args []uint64) uint64 {
			return 0
		},
		"abs64": func(m *Machine, t *thread, args []uint64) uint64 {
			v := int64(arg(args, 0))
			if v < 0 {
				v = -v
			}
			return uint64(v)
		},
	}
	registerSSL(libs)
	registerZlib(libs)
	return libs
}

// RegisterLib installs (or overrides) a library model before Run; used
// by tests and custom workloads. The machine's table starts as the
// process-wide shared stdlib table, so the first registration clones it
// rather than mutating state visible to concurrently running Machines.
func (m *Machine) RegisterLib(name string, fn LibFn) {
	if !m.libsOwned {
		clone := make(map[string]LibFn, len(m.libs)+1)
		for k, v := range m.libs {
			clone[k] = v
		}
		m.libs = clone
		m.libsOwned = true
	}
	m.libs[name] = fn
}

// LoadMem reads size bytes at addr; exposed to analysis runtimes and
// baselines (the "slow metadata reading interface" of §5.6.2).
func (m *Machine) LoadMem(addr uint64, size uint8) uint64 { return m.mem.load(addr, size) }

// StoreMem writes size bytes at addr.
func (m *Machine) StoreMem(addr uint64, v uint64, size uint8) { m.mem.store(addr, v, size) }

// HeapSizeOf returns the live allocation size containing exactly addr,
// or 0 — the allocator metadata a native runtime would expose.
func (m *Machine) HeapSizeOf(addr uint64) uint64 { return m.heap.sizeOf(addr) }
