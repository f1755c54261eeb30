// Package workloads provides deterministic MIR workload generators
// named after the paper's benchmark suite: SPECInt 2006-like
// single-threaded kernels, Splash2-like multi-threaded kernels, and the
// four real-world programs (memcached, nginx, sort, ffmpeg). Each
// generator mimics the dominant instruction and memory-access profile
// of its namesake at laptop scale; several support the bug injections
// that Table 3 and §6.4 validate against.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/mir"
)

// Size scales a workload's iteration counts.
type Size int

// Workload sizes. Tiny is for unit tests, Small for integration tests,
// Medium for benchmarks.
const (
	SizeTiny Size = iota
	SizeSmall
	SizeMedium
	SizeLarge
)

func (s Size) String() string {
	switch s {
	case SizeTiny:
		return "tiny"
	case SizeSmall:
		return "small"
	case SizeMedium:
		return "medium"
	}
	return "large"
}

// ParseSize returns the Size whose String is s.
func ParseSize(s string) (Size, error) {
	for z := SizeTiny; z <= SizeLarge; z++ {
		if z.String() == s {
			return z, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q (want tiny|small|medium|large)", s)
}

// scale returns base multiplied by the size factor.
func (s Size) scale(base int64) int64 {
	switch s {
	case SizeTiny:
		return base
	case SizeSmall:
		return base * 4
	case SizeMedium:
		return base * 24
	default:
		return base * 96
	}
}

// Bug selects an injected defect.
type Bug int

// Injectable bugs.
const (
	BugNone Bug = iota
	// BugUninit plants a read of never-initialized memory whose value
	// reaches a branch (Table 3's true positives: gcc, ocean_c, volrend).
	BugUninit
	// BugSSLLeak drops an SSL handle without freeing it (memcached #538).
	BugSSLLeak
	// BugSSLShutdown frees a connected SSL handle without SSL_shutdown
	// (memcached TLS shutdown, nginx SSL shutdown handling).
	BugSSLShutdown
	// BugZlibUninit runs inflate on a z_stream that was never
	// initialized (ffmpeg's removed unused z_stream).
	BugZlibUninit
	// BugUAF stores through a freed pointer.
	BugUAF
	// BugRace removes the lock around a shared counter.
	BugRace
	// BugTaint uses input-derived bytes as an array index.
	BugTaint
)

func (b Bug) String() string {
	switch b {
	case BugNone:
		return "none"
	case BugUninit:
		return "uninit"
	case BugSSLLeak:
		return "ssl-leak"
	case BugSSLShutdown:
		return "ssl-shutdown"
	case BugZlibUninit:
		return "zlib-uninit"
	case BugUAF:
		return "uaf"
	case BugRace:
		return "race"
	case BugTaint:
		return "taint"
	}
	return fmt.Sprintf("bug(%d)", int(b))
}

// ParseBug returns the Bug whose String is s.
func ParseBug(s string) (Bug, error) {
	for b := BugNone; b <= BugTaint; b++ {
		if b.String() == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown bug %q", s)
}

// Spec describes one workload generator.
type Spec struct {
	Name    string
	Suite   string // "specint", "splash2", "realworld"
	Threads int    // worker threads spawned (0 = single-threaded)
	Bugs    []Bug  // supported injections besides BugNone
	build   func(size Size, bug Bug) *mir.Program
}

var registry = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// Names returns all workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Suite returns the names in one suite, sorted.
func Suite(suite string) []string {
	var out []string
	for n, s := range registry {
		if s.Suite == suite {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Get returns a workload spec.
func Get(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return s, nil
}

// Build generates the clean program for a workload.
func Build(name string, size Size) (*mir.Program, error) {
	return BuildBug(name, size, BugNone)
}

// BuildBug generates a workload with an injected bug.
func BuildBug(name string, size Size, bug Bug) (*mir.Program, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	if bug != BugNone {
		ok := false
		for _, b := range s.Bugs {
			if b == bug {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("workloads: %s does not support bug %s", name, bug)
		}
	}
	p := s.build(size, bug)
	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", name, err)
	}
	return p, nil
}

// MustBuild is Build for known-good names (panics on error).
func MustBuild(name string, size Size) *mir.Program {
	p, err := Build(name, size)
	if err != nil {
		panic(err)
	}
	return p
}

// ---------------------------------------------------------------------------
// Shared emission helpers

// xorshiftInline emits a deterministic PRNG step: state' register from
// state, plus the drawn value. Using inline arithmetic (not the rand()
// library call) keeps the instruction mix arithmetic-heavy like the
// originals.
func xorshiftInline(b *mir.FuncBuilder, state mir.Reg) mir.Reg {
	x1 := b.Bin(mir.OpShl, mir.R(state), mir.C(13))
	x2 := b.Bin(mir.OpXor, mir.R(state), mir.R(x1))
	x3 := b.Bin(mir.OpShr, mir.R(x2), mir.C(7))
	x4 := b.Bin(mir.OpXor, mir.R(x2), mir.R(x3))
	x5 := b.Bin(mir.OpShl, mir.R(x4), mir.C(17))
	x6 := b.Bin(mir.OpXor, mir.R(x4), mir.R(x5))
	return x6
}

// initArraySeq emits a loop storing f-style values (i*mult+add) into an
// n-element word array at base.
func initArraySeq(b *mir.FuncBuilder, base mir.Reg, n int64, mult, add int64) {
	b.Loop(mir.C(n), func(i mir.Reg) {
		off := b.Mul(mir.R(i), mir.C(8))
		addr := b.Add(mir.R(base), mir.R(off))
		v1 := b.Mul(mir.R(i), mir.C(mult))
		v2 := b.Add(mir.R(v1), mir.C(add))
		b.Store(mir.R(addr), mir.R(v2), 8)
	})
}

// initBytes emits a loop storing ((i*mult+add) & 0xff) bytes into an
// n-byte array at base.
func initBytes(b *mir.FuncBuilder, base mir.Reg, n int64, mult, add int64) {
	b.Loop(mir.C(n), func(i mir.Reg) {
		addr := b.Add(mir.R(base), mir.R(i))
		v1 := b.Mul(mir.R(i), mir.C(mult))
		v2 := b.Add(mir.R(v1), mir.C(add))
		v3 := b.Bin(mir.OpAnd, mir.R(v2), mir.C(0xff))
		b.Store(mir.R(addr), mir.R(v3), 1)
	})
}

// sumArray emits a loop summing an n-element word array; returns the
// address of the stack slot holding the sum.
func sumArray(b *mir.FuncBuilder, base mir.Reg, n int64) mir.Reg {
	acc := b.Alloca(8)
	z := b.Const(0)
	b.Store(mir.R(acc), mir.R(z), 8)
	b.Loop(mir.C(n), func(i mir.Reg) {
		off := b.Mul(mir.R(i), mir.C(8))
		addr := b.Add(mir.R(base), mir.R(off))
		v := b.Load(mir.R(addr), 8)
		s := b.Load(mir.R(acc), 8)
		ns := b.Add(mir.R(s), mir.R(v))
		b.Store(mir.R(acc), mir.R(ns), 8)
	})
	return acc
}

// spawnJoinWorkers emits: spawn nw calls of fn(args..., w) for worker
// index w, then join them all. fn must take len(args)+1 parameters.
func spawnJoinWorkers(b *mir.FuncBuilder, fn string, nw int, args ...mir.Operand) {
	handles := make([]mir.Reg, nw)
	for w := 0; w < nw; w++ {
		wargs := append(append([]mir.Operand{}, args...), mir.C(int64(w)))
		handles[w] = b.Spawn(fn, wargs...)
	}
	for _, h := range handles {
		b.Join(mir.R(h))
	}
}
