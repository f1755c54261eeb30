// Package baselines contains the hand-tuned comparator analyses of the
// paper's evaluation: a hand-optimized MemorySanitizer modeled on LLVM
// MSan (Figure 3) and a hand-optimized Eraser with hash-based lock
// interning, static state-transition tables and hand-picked data
// structures (Figure 4, §6.2).
//
// Baselines are written directly against the raw hook interface — Go
// handler functions plus explicit insertion rules — exactly the way an
// expert would build an analysis without ALDA. Each instance is
// single-run: construct, instrument, run.
package baselines

import (
	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/lang/ast"
	"repro/internal/meta"
	"repro/internal/mir"
	"repro/internal/vm"
)

func applyRules(p *mir.Program, rules []compiler.Rule) (*mir.Program, error) {
	return instrument.ApplyRules(p, rules)
}

// Baseline is a hand-tuned analysis instance.
type Baseline interface {
	Name() string
	Rules() []compiler.Rule
	Handlers() []vm.HandlerFn
	NeedShadow() bool
	// Footprint returns the analysis's metadata storage in bytes after a
	// run (§6.2's memory comparison).
	Footprint() uint64
}

// Call-arg constructors shared by the baselines' insertion rules (the
// same Table 2 vocabulary ALDA programs use).
func opArg(i int) ast.CallArg  { return ast.CallArg{Kind: ast.ArgOperand, Index: i} }
func opMeta(i int) ast.CallArg { return ast.CallArg{Kind: ast.ArgOperand, Index: i, Meta: true} }
func opSize(i int) ast.CallArg { return ast.CallArg{Kind: ast.ArgOperand, Index: i, Sizeof: true} }
func retArg() ast.CallArg      { return ast.CallArg{Kind: ast.ArgReturn} }
func retSize() ast.CallArg     { return ast.CallArg{Kind: ast.ArgReturn, Sizeof: true} }
func tidArg() ast.CallArg      { return ast.CallArg{Kind: ast.ArgThread} }

// ---------------------------------------------------------------------------
// Hand-tuned MemorySanitizer

// MSan is the hand-tuned MemorySanitizer. Its shadow is a flat
// offset-based shadow memory with one poison byte per 8-byte granule —
// the layout LLVM MSan uses — and allocation sizes ride in a sidecar
// map. Deliberately (Table 3) it has no gets() interceptor.
type MSan struct {
	shadow *meta.ChunkMap // 1 word per granule, template poisoned
	sizes  map[uint64]uint64
}

// NewMSan returns a fresh hand-tuned MSan for one run over the given
// simulated address-space size.
func NewMSan(addrSpace uint64) *MSan {
	tmpl := []uint64{^uint64(0)} // unknown memory is poisoned
	return &MSan{
		shadow: meta.NewShadowMap(addrSpace>>3, 1, tmpl),
		sizes:  make(map[uint64]uint64),
	}
}

// Name identifies the baseline.
func (s *MSan) Name() string { return "msan-hand" }

// NeedShadow reports that MSan tracks register metadata.
func (s *MSan) NeedShadow() bool { return true }

// Footprint returns shadow plus sidecar storage.
func (s *MSan) Footprint() uint64 {
	return s.shadow.Bytes() + uint64(len(s.sizes))*48
}

func (s *MSan) poison(addr, n uint64, label uint64) {
	if n == 0 {
		return
	}
	start := addr >> 3
	end := (addr + n - 1) >> 3
	s.shadow.Fill(start, end-start+1, 0, 64, label)
}

func (s *MSan) loadLabel(addr, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	start := addr >> 3
	end := (addr + n - 1) >> 3
	return s.shadow.RangeOr(start, end-start+1, 0, 64)
}

// Handler table indices.
const (
	msanMalloc = iota
	msanCalloc
	msanFree
	msanAlloca
	msanStore
	msanLoad
	msanBranch
	msanMemset
	msanMemcpy
	msanSSLRead
	msanN
)

// Handlers returns the hook table.
func (s *MSan) Handlers() []vm.HandlerFn {
	h := make([]vm.HandlerFn, msanN)
	h[msanMalloc] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		ptr, n := a[0], a[1]
		s.poison(ptr, n, ^uint64(0))
		s.sizes[ptr] = n
		return 0
	}
	h[msanCalloc] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		ptr, n := a[0], a[1]*a[2]
		s.poison(ptr, n, 0)
		s.sizes[ptr] = n
		return 0
	}
	h[msanFree] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		ptr := a[0]
		if n, ok := s.sizes[ptr]; ok {
			s.poison(ptr, n, ^uint64(0))
			delete(s.sizes, ptr)
		}
		return 0
	}
	h[msanAlloca] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		s.poison(a[0], a[1], ^uint64(0))
		return 0
	}
	h[msanStore] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		// a = [addr, valueShadow, size]
		s.poison(a[0], a[2], a[1])
		return 0
	}
	h[msanLoad] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		return s.loadLabel(a[0], a[1])
	}
	h[msanBranch] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		if a[0] != 0 {
			m.Report("msan-hand", "use of uninitialized value", a[0], 0)
		}
		return 0
	}
	h[msanMemset] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		s.poison(a[0], a[2], 0)
		return 0
	}
	h[msanMemcpy] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		s.poison(a[0], a[2], s.loadLabel(a[1], a[2]))
		return 0
	}
	h[msanSSLRead] = func(m *vm.Machine, tid uint64, a []uint64) uint64 {
		s.poison(a[0], a[1], 0)
		return 0
	}
	return h
}

// Rules returns the insertion rules. Note the absence of a gets rule —
// LLVM MSan does not intercept gets (Table 3).
func (s *MSan) Rules() []compiler.Rule {
	return []compiler.Rule{
		{Kind: compiler.MatchCallee, Callee: "malloc", After: true, HandlerID: msanMalloc,
			HandlerName: "msanMalloc", Args: []ast.CallArg{retArg(), opArg(1)}},
		{Kind: compiler.MatchCallee, Callee: "calloc", After: true, HandlerID: msanCalloc,
			HandlerName: "msanCalloc", Args: []ast.CallArg{retArg(), opArg(1), opArg(2)}},
		{Kind: compiler.MatchCallee, Callee: "free", After: false, HandlerID: msanFree,
			HandlerName: "msanFree", Args: []ast.CallArg{opArg(1)}},
		{Kind: compiler.MatchAlloca, After: true, HandlerID: msanAlloca,
			HandlerName: "msanAlloca", Args: []ast.CallArg{retArg(), retSize()}},
		{Kind: compiler.MatchStore, After: false, HandlerID: msanStore, UsesMeta: true,
			HandlerName: "msanStore", Args: []ast.CallArg{opArg(2), opMeta(1), opSize(1)}},
		{Kind: compiler.MatchLoad, After: true, HandlerID: msanLoad, HasResult: true,
			HandlerName: "msanLoad", Args: []ast.CallArg{opArg(1), retSize()}},
		{Kind: compiler.MatchCondBr, After: false, HandlerID: msanBranch, UsesMeta: true,
			HandlerName: "msanBranch", Args: []ast.CallArg{opMeta(1)}},
		{Kind: compiler.MatchCallee, Callee: "memset", After: true, HandlerID: msanMemset,
			HandlerName: "msanMemset", Args: []ast.CallArg{opArg(1), opArg(2), opArg(3)}},
		{Kind: compiler.MatchCallee, Callee: "memcpy", After: true, HandlerID: msanMemcpy,
			HandlerName: "msanMemcpy", Args: []ast.CallArg{opArg(1), opArg(2), opArg(3)}},
		{Kind: compiler.MatchCallee, Callee: "SSL_read", After: true, HandlerID: msanSSLRead,
			HandlerName: "msanSSLRead", Args: []ast.CallArg{opArg(2), opArg(3)}},
	}
}

// InstrumentBaseline weaves any baseline into a program.
func InstrumentBaseline(p *mir.Program, b Baseline) (*mir.Program, error) {
	return applyRules(p, b.Rules())
}
