// Package compiler implements ALDAcc, the optimizing compiler for ALDA
// (§3.2, §5). It consumes the typed model from package sema and the
// access summary from package access and produces a compiled Analysis:
// metadata layout (coalesced groups with selected containers), event
// handlers lowered once with metadata-lookup CSE (lower.go) and emitted
// either as checked-in Go for the shipped configurations (stage.go,
// staged_handlers.go) or as closures (codegen.go), and lowered
// insertion rules for package instrument.
package compiler

// Options are ALDAcc's compilation switches. The zero value is not
// useful; use DefaultOptions. The ablation configurations of Figure 4
// and §6.2 are expressed by turning individual optimizations off.
type Options struct {
	// Coalesce merges metadata maps with equal key types into one
	// container (§5.2). Off in the "ds-only" ablation.
	Coalesce bool
	// CSE enables metadata-lookup common-subexpression elimination
	// within handler bodies (§5.4). Off in the "ds-only" ablation.
	CSE bool
	// SmartSelect enables data-structure selection (§5.3). When off,
	// every map becomes a generic hash map and every set a tree set —
	// the naive implementation the paper says runs out of memory or
	// time on non-trivial benchmarks.
	SmartSelect bool
	// ProfileCollect compiles per-member access counters into the
	// handlers; Runtime.Profile() reads them after a run.
	ProfileCollect bool
	// Profile, when set, drives profile-guided coalescing (§3.2.1's
	// future work): members that the profiling run shows are cold
	// relative to their group split into a separate group so hot
	// accesses stop dragging them through the cache.
	Profile *Profile

	// FuseHandlers merges handlers attached to the same insertion point
	// into one hook whose bodies compile together: one dispatch, one
	// lock acquisition, and entry/value lookups CSE'd *across* analyses.
	// This is what makes a combined analysis (§6.4.2) cheaper than the
	// sum of its parts beyond map coalescing alone.
	FuseHandlers bool

	// Granularity is the metadata granularity in bytes: 1, 2, 4 or 8
	// (§5.1, default word = 8).
	Granularity int
	// ShadowFactorThreshold picks page table over offset shadow memory
	// when metadata-bytes-per-program-byte exceeds it (§5.3, default 3).
	ShadowFactorThreshold float64
	// BitSetMaxBytes is the largest fixed set stored as an inline
	// bit-vector (§5.3, default 512).
	BitSetMaxBytes int
	// ArrayMapMaxKeys is the largest bounded key domain stored as a
	// direct-indexed array.
	ArrayMapMaxKeys int64
	// AddrSpace sizes offset shadow memory; it must cover the VM's
	// simulated address space.
	AddrSpace uint64
}

// DefaultOptions returns the full-optimization configuration
// ("ALDAcc-full" in Figure 4).
func DefaultOptions() Options {
	return Options{
		Coalesce:              true,
		CSE:                   true,
		SmartSelect:           true,
		FuseHandlers:          true,
		Granularity:           8,
		ShadowFactorThreshold: 3,
		BitSetMaxBytes:        512,
		ArrayMapMaxKeys:       1 << 20,
		AddrSpace:             1 << 28,
	}
}

// DSOnlyOptions returns the "ALDAcc-ds-only" ablation of Figure 4:
// data-structure selection stays on, map coalescing and lookup CSE are
// disabled.
func DSOnlyOptions() Options {
	o := DefaultOptions()
	o.Coalesce = false
	o.CSE = false
	o.FuseHandlers = false
	return o
}

// NaiveOptions returns the unoptimized configuration: hash maps and tree
// sets everywhere, no coalescing, no CSE, no fusion.
func NaiveOptions() Options {
	o := DefaultOptions()
	o.Coalesce = false
	o.CSE = false
	o.SmartSelect = false
	o.FuseHandlers = false
	return o
}

// NoFuseOptions returns DefaultOptions with handler fusion disabled —
// the configuration that isolates FuseHandlers in the ablation matrix.
func NoFuseOptions() Options {
	o := DefaultOptions()
	o.FuseHandlers = false
	return o
}

// WithGranularity returns o at a different metadata granularity
// (1, 2, 4 or 8 bytes).
func (o Options) WithGranularity(g int) Options {
	o.Granularity = g
	return o
}

// NamedOptions pairs an ablation configuration with a stable name.
// GranularityVariant marks the configurations that change only the
// metadata granularity: analysis verdicts are granularity-invariant
// only for word-aligned workloads, so differential checkers gate these
// on workload shape.
type NamedOptions struct {
	Name               string
	Opts               Options
	GranularityVariant bool
}

// AblationMatrix returns every optimization configuration the paper's
// Figure 4 ablates plus the granularity variants of §5.1, full-opt
// first. This is the option matrix the conformance subsystem sweeps:
// every entry must produce identical analysis verdicts on identical
// inputs — the configurations change layout and speed, never meaning.
func AblationMatrix() []NamedOptions {
	return []NamedOptions{
		{Name: "full", Opts: DefaultOptions()},
		{Name: "nofuse", Opts: NoFuseOptions()},
		{Name: "dsonly", Opts: DSOnlyOptions()},
		{Name: "naive", Opts: NaiveOptions()},
		{Name: "gran1", Opts: DefaultOptions().WithGranularity(1), GranularityVariant: true},
		{Name: "gran2", Opts: DefaultOptions().WithGranularity(2), GranularityVariant: true},
		{Name: "gran4", Opts: DefaultOptions().WithGranularity(4), GranularityVariant: true},
	}
}

func (o Options) granShift() uint {
	switch o.Granularity {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	default:
		return 3
	}
}
