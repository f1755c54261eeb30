// Package vm executes MIR programs in a deterministic simulated
// environment: a flat 64-bit byte-addressable address space, a heap
// allocator that reuses freed addresses, simulated threads interleaved
// by a seeded round-robin scheduler, locks, and modeled C / OpenSSL /
// Zlib libraries.
//
// The VM is the stand-in for native execution of LLVM-instrumented
// binaries: analyses attach through OpHook instructions spliced in by
// package instrument, and every performance experiment measures wall
// time of vm.Machine.Run with and without those hooks.
package vm

import (
	"fmt"
	"io"
	"time"

	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config controls a Machine. No setting makes the interpret loop read
// the clock around an instruction or a handler: a run's wall time is
// taken once around the loop (Result.Wall), Deadline samples the clock
// once every 128 slices, and Trace times each slice.
type Config struct {
	// Engine must be EngineInterp, the zero value; New rejects any
	// other tier.
	//
	// Deprecated: see Engine.
	Engine Engine
	// Quantum is the scheduler slice in instructions. Default 64.
	Quantum int
	// Seed drives scheduler jitter and the modeled rand(). Default 1.
	Seed int64
	// MaxSteps aborts runaway programs. Default 4e9.
	MaxSteps uint64
	// TrackShadow enables per-frame shadow registers (local metadata,
	// §5.5). The instrumenter sets this when an analysis uses $X.m or
	// handler return values.
	TrackShadow bool
	// MaxHeapBytes bounds live simulated-heap bytes (size-class rounded).
	// 0 means no budget beyond the address space itself. Exceeding it
	// fails the run with KindHeapLimit instead of letting one runaway
	// workload eat the whole address space.
	MaxHeapBytes uint64
	// Deadline bounds the wall-clock time of the interpret loop. 0 means
	// no deadline. Exceeding it fails the run with KindDeadline — the
	// only nondeterministic budget, so leave it 0 when byte-identical
	// reruns matter.
	Deadline time.Duration
	// Faults requests deterministic fault injection (see the faults
	// sub-package for seed-derived plans). Zero value injects nothing.
	Faults FaultSpec
	// Trace, when non-nil, receives Chrome trace_event spans for
	// scheduler quanta and instant events for injected faults. Nil
	// emits nothing and costs one pointer test per quantum.
	Trace *obs.Trace
	// TraceTID tags this machine's trace events (the harness uses the
	// measurement-cell index).
	TraceTID int64
	// TraceSink, when non-nil, records the run as a compressed replay
	// trace (package trace): load values, library results and scheduler
	// quanta, batched per quantum and finalized with the run's terminal
	// state. Record mode is incompatible with Replay.
	TraceSink io.Writer
	// Replay, when non-nil, makes a recorded trace the interpreter
	// loop's input source: the schedule, load values and library results
	// come from the stream while hooks dispatch into the installed
	// Handlers. The Trace may be shared by concurrent machines — it is
	// read-only during replay.
	Replay *trace.Trace
}

// FaultSpec requests deterministic fault injection. The injection
// points are counted in machine-deterministic units (allocations, hook
// dispatches), so a given spec reproduces the identical failure on
// every run with the same seed and program.
type FaultSpec struct {
	// MallocFailNth makes the nth heap allocation (1-based, counted
	// across malloc/calloc and allocating library models) return NULL
	// and fail the run with KindLibFault. 0 = off.
	MallocFailNth uint64
	// HandlerPanicNth makes the nth analysis-hook dispatch (1-based)
	// panic inside the handler; Run recovers it into a KindTrap
	// RunError. 0 = off.
	HandlerPanicNth uint64
	// SchedPerturb perturbs the scheduler RNG, deterministically
	// shifting thread interleavings without failing the run. 0 = off.
	SchedPerturb uint64
}

// Zero reports whether the spec injects nothing.
func (f FaultSpec) Zero() bool { return f == FaultSpec{} }

// The simulated machine's fixed geometry.
const (
	// AddrSpace is the simulated byte address-space size (256 MiB).
	// Offset shadow memory is sized to cover it.
	AddrSpace uint64 = 1 << 28
	// stackSize is the per-thread stack region in bytes.
	stackSize uint64 = 1 << 19
	// maxThreads bounds total threads over a run.
	maxThreads = 128
)

func (c Config) withDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 4e9
	}
	return c
}

// HandlerFn is a compiled analysis event handler. args follow the
// insertion declaration's call-arg list; the return value feeds the
// hooked instruction's shadow register when the handler has a result.
type HandlerFn func(m *Machine, tid uint64, args []uint64) uint64

// Result summarizes a completed run.
type Result struct {
	Steps     uint64        // instructions retired
	HookCalls uint64        // analysis events dispatched
	Wall      time.Duration // wall-clock of the interpret loop
	Exit      uint64        // value returned by main (0 if none)
	Reports   []*Report     // analysis reports, first-seen order
	Threads   int           // total threads ever spawned
}

// Virtual is the run's deterministic virtual time: one unit per retired
// instruction plus a fixed charge of 16 per dispatched analysis event
// (handler bodies run in Go, outside the step count). The harness's
// -virtual timing and the job server's results both report it.
func (r *Result) Virtual() uint64 {
	return r.Steps + 16*r.HookCalls
}

type lockState struct {
	held  bool
	owner int
}

// Machine executes one program. A Machine is single-use: construct, set
// Handlers/AtExit if instrumented, call Run once.
type Machine struct {
	cfg   Config
	prog  *mir.Program
	funcs []*linkedFunc
	idx   map[string]int

	mem   memory
	heap  heap
	locks map[uint64]*lockState

	threads []*thread
	nlive   int
	cur     *thread

	rng        uint64
	steps      uint64
	hookCalls  uint64
	allocCount uint64 // heap allocations performed (fault-injection clock)

	// Observability counters. Always on: plain field increments on
	// paths the loop already executes, so the disabled-observability
	// path stays branch- and allocation-free (internal/perf pins this
	// with AllocsPerRun), and the counts are deterministic for a given
	// program and seed. None of them reads the clock.
	opCounts    [mir.NumOps]uint64
	ctxSwitches uint64 // quantum grants that changed the running thread
	quanta      uint64 // scheduler slices executed
	faultsFired uint64 // injected fault-plan firings
	lastRun     int    // last thread granted a quantum

	// Interpret-loop scheduler state, split out of Run so that
	// Start/RunQuantum/Finish can drive the loop one slice at a time.
	main     *thread
	runStart time.Time
	rr       int // round-robin cursor
	dlTick   int // slices until the next wall-clock check

	// rec is the trace recorder (non-nil iff Config.TraceSink); rp is
	// the replay state (non-nil iff Config.Replay). The interpreter loop
	// tests them where it reads an input.
	rec        *recorder
	rp         *replayState
	traceStats trace.Stats

	// Handlers is the analysis handler table indexed by HookRef.HandlerID.
	// Start binds every hook site to its entry, so set it before Start.
	Handlers []HandlerFn
	// AtExit callbacks run after main returns (analysis finalization).
	AtExit []func(m *Machine)

	reports []*Report
	// sites and notes hold one record per OpHook, linked by New, with
	// the same index; hookArgs is the argument buffer every dispatch
	// fills, sized for the widest hook.
	sites    []hookSite
	notes    []siteNotes
	hookArgs []uint64

	libs      map[string]LibFn
	libsOwned bool // libs is a private clone, not the shared stdlib table
	ssl       sslWorld
	zlib      zlibWorld

	// ext holds per-machine state for analysis external functions,
	// keyed by analysis name. Compiled analyses are shared (and cached)
	// across concurrently running Machines, so externals must not keep
	// run state in closures; they park it here instead. extKey/extVal
	// cache the last slot ExtState returned: an analysis's externals
	// run on every event, and all but the first find their own slot
	// there without hashing the key.
	ext    map[string]any
	extKey string
	extVal any

	inputCursor uint64 // deterministic "stdin" for gets()

	err *RunError
}

type linkedInstr struct {
	mir.Instr
	UserFn int32 // resolved user function index, or -1
	Site   int32 // OpHook: index of its record in Machine.sites
	Lib    LibFn // resolved library model, or nil
}

// hookSite is an OpHook linked once, the way a call gets UserFn or Lib:
// dispatch reads only this record, never the instruction's HookRef. It
// fits one 64-byte line; what only report filings and diagnostics read
// is in siteNotes. Every argument is written on each dispatch, so a
// handler that overwrites its args cannot change the next dispatch's.
type hookSite struct {
	fn HandlerFn // Handlers[id], bound by Start; nil if the table has none
	// slots fill the argument buffer, grouped by source: nregs
	// registers, then ntids thread ids, then nmetas shadow registers,
	// then constants.
	slots                       []hookSlot
	calls                       uint64  // dispatches so far
	id                          int32   // HandlerID
	metaDst                     mir.Reg // shadow register taking fn's result; NoReg when shadows are off
	nargs, nregs, ntids, nmetas uint8
	_                           [8]byte // to 64 bytes, so no record in sites straddles two lines
}

// hookSlot fills args[at] from register reg or its shadow, with the
// thread id, or with the constant v.
type hookSlot struct {
	v   uint64
	at  int32
	reg mir.Reg
}

// siteNotes is what a hook site holds for report filings and
// diagnostics.
type siteNotes struct {
	name string // handler name
	// reports are the findings filed at the site, first-seen order. A
	// site's location is fixed, so (analysis, message) identifies a
	// finding within it and a repeat only bumps Count.
	reports []*Report
}

// linkSite appends one hook's site record and notes. A HookRegMeta
// argument becomes the constant 0 when shadows are not tracked, and
// MetaDst is dropped.
func (m *Machine) linkSite(h *mir.HookRef) error {
	if len(h.Args) > 255 {
		return fmt.Errorf("vm: hook %s has %d arguments, more than 255", h.Name, len(h.Args))
	}
	track := m.cfg.TrackShadow
	s := hookSite{id: int32(h.HandlerID), metaDst: mir.NoReg, nargs: uint8(len(h.Args))}
	if track {
		s.metaDst = h.MetaDst
	}
	var tids, metas, consts []hookSlot
	for i, a := range h.Args {
		at := int32(i)
		switch {
		case a.Kind == mir.HookReg:
			s.slots = append(s.slots, hookSlot{at: at, reg: a.Reg})
		case a.Kind == mir.HookThread:
			tids = append(tids, hookSlot{at: at})
		case a.Kind == mir.HookRegMeta && track:
			metas = append(metas, hookSlot{at: at, reg: a.Reg})
		case a.Kind == mir.HookRegMeta:
			consts = append(consts, hookSlot{at: at})
		case a.Kind == mir.HookConst:
			consts = append(consts, hookSlot{v: uint64(a.Const), at: at})
		default:
			return fmt.Errorf("vm: hook %s: argument %d has unknown kind %d", h.Name, i, a.Kind)
		}
	}
	s.nregs, s.ntids, s.nmetas = uint8(len(s.slots)), uint8(len(tids)), uint8(len(metas))
	s.slots = append(append(append(s.slots, tids...), metas...), consts...)
	m.sites = append(m.sites, s)
	m.notes = append(m.notes, siteNotes{name: h.Name})
	if len(h.Args) > len(m.hookArgs) {
		m.hookArgs = make([]uint64, len(h.Args))
	}
	return nil
}

type linkedFunc struct {
	name    string
	nparams int
	nregs   int
	blocks  [][]linkedInstr
}

// New links a program into a machine. The program must already Verify.
func New(prog *mir.Program, cfg Config) (*Machine, error) {
	if cfg.Engine != EngineInterp {
		return nil, fmt.Errorf("vm: execution tier %s is not available: the interpreter is the only tier", cfg.Engine)
	}
	m := &Machine{
		cfg:   cfg.withDefaults(),
		prog:  prog,
		idx:   make(map[string]int, len(prog.Funcs)),
		locks: make(map[uint64]*lockState),
	}
	m.rng = uint64(m.cfg.Seed)*0x9E3779B97F4A7C15 | 1
	if p := m.cfg.Faults.SchedPerturb; p != 0 {
		// Deterministically shift the scheduler's jitter stream without
		// losing the |1 non-zero guarantee.
		m.rng = (m.rng ^ p*0xBF58476D1CE4E5B9) | 1
	}
	if m.cfg.Replay != nil {
		if m.cfg.TraceSink != nil {
			return nil, fmt.Errorf("vm: TraceSink and Replay are mutually exclusive")
		}
		if fp := TraceFingerprint(prog); fp != m.cfg.Replay.ProgFP {
			return nil, fmt.Errorf("vm: replay trace was recorded against a different program (fingerprint %#x, trace has %#x)", fp, m.cfg.Replay.ProgFP)
		}
		m.rp = &replayState{cur: m.cfg.Replay.Cursor()}
	}
	if m.cfg.TraceSink != nil {
		m.rec = &recorder{w: trace.NewWriter(m.cfg.TraceSink, TraceFingerprint(prog), m.cfg.Seed, m.cfg.Quantum)}
	}
	m.libs = stdlibTable()
	m.ssl.init()
	m.zlib.init()
	m.mem.init(AddrSpace)
	m.heap.init(heapBase, AddrSpace-maxThreads*stackSize)

	// Stable function indexing: entry first, then sorted later arrivals
	// is unnecessary — map iteration order doesn't matter because calls
	// resolve by name.
	names := make([]string, 0, len(prog.Funcs))
	for n := range prog.Funcs {
		names = append(names, n)
	}
	for _, n := range names {
		m.idx[n] = -1 // reserve
	}
	i := 0
	for _, n := range names {
		m.idx[n] = i
		i++
	}
	m.funcs = make([]*linkedFunc, len(names))
	for _, n := range names {
		f := prog.Funcs[n]
		lf := &linkedFunc{name: n, nparams: f.NParams, nregs: f.NRegs, blocks: make([][]linkedInstr, len(f.Blocks))}
		for bi := range f.Blocks {
			src := f.Blocks[bi].Instrs
			dst := make([]linkedInstr, len(src))
			for ii := range src {
				dst[ii] = linkedInstr{Instr: src[ii], UserFn: -1}
				if src[ii].Op == mir.OpHook {
					dst[ii].Site = int32(len(m.sites))
					if err := m.linkSite(src[ii].Hook); err != nil {
						return nil, err
					}
				}
				if src[ii].Op == mir.OpCall || src[ii].Op == mir.OpSpawn {
					if _, ok := prog.Funcs[src[ii].Callee]; ok {
						dst[ii].UserFn = int32(m.idx[src[ii].Callee])
					} else if lib, ok := m.libs[src[ii].Callee]; ok {
						dst[ii].Lib = lib
					} else {
						return nil, fmt.Errorf("vm: unresolved callee %q in %s", src[ii].Callee, n)
					}
					if src[ii].Op == mir.OpSpawn && dst[ii].UserFn < 0 {
						return nil, fmt.Errorf("vm: spawn target %q in %s is not a user function", src[ii].Callee, n)
					}
				}
			}
			lf.blocks[bi] = dst
		}
		m.funcs[m.idx[n]] = lf
	}
	if _, ok := m.idx[prog.Entry]; !ok {
		return nil, fmt.Errorf("vm: entry %q not found", prog.Entry)
	}
	return m, nil
}

// Steps returns instructions retired so far (valid during hooks).
func (m *Machine) Steps() uint64 { return m.steps }

// Rand returns the next value of the machine's deterministic xorshift
// generator (shared with the modeled rand() library call).
func (m *Machine) Rand() uint64 {
	x := m.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.rng = x
	return x
}

// failf records the first fault of the run with its taxonomy kind;
// later faults (usually cascades of the first) are dropped.
func (m *Machine) failf(kind ErrKind, format string, args ...any) {
	if m.err == nil {
		m.err = &RunError{Kind: kind, Msg: fmt.Sprintf(format, args...), Backtrace: m.Backtrace()}
	}
}

// heapAlloc is the budget- and fault-checked allocation path every
// allocating library model goes through. It returns 0 after recording
// a typed failure when the allocation cannot be satisfied.
func (m *Machine) heapAlloc(n uint64, what string) uint64 {
	m.allocCount++
	if f := m.cfg.Faults.MallocFailNth; f != 0 && m.allocCount == f {
		m.faultsFired++
		m.cfg.Trace.Instant("vm", "fault.malloc_null", m.cfg.TraceTID)
		m.failf(KindLibFault, "injected fault: allocation #%d (%s, %d bytes) returns NULL", f, what, n)
		return 0
	}
	if max := m.cfg.MaxHeapBytes; max != 0 && m.heap.live+sizeClass(n) > max {
		m.failf(KindHeapLimit, "heap budget %d bytes exceeded (%s, %d bytes, %d live)", max, what, n, m.heap.live)
		return 0
	}
	a := m.heap.alloc(n)
	if a == 0 {
		m.failf(KindHeapLimit, "out of simulated heap (%s, %d bytes)", what, n)
	} else if m.rec != nil {
		// Replay re-drives the (deterministic) allocator from this event
		// so address reuse and live-byte accounting stay exact without
		// re-executing the library model that allocated.
		m.rec.w.Alloc(a, n)
	}
	return a
}

// heapFree is heapAlloc's counterpart: every library model that
// releases heap memory goes through it so record mode captures the
// event for replay's allocator mirror.
func (m *Machine) heapFree(a uint64) {
	m.heap.release(a)
	if m.rec != nil {
		m.rec.w.Free(a)
	}
}

// Backtrace renders the current thread's call stack, innermost first.
func (m *Machine) Backtrace() []string {
	if m.cur == nil {
		return nil
	}
	t := m.cur
	out := make([]string, 0, len(t.frames))
	for i := len(t.frames) - 1; i >= 0; i-- {
		fr := &t.frames[i]
		out = append(out, fmt.Sprintf("%s@b%d:%d", fr.fn.name, fr.block, fr.pc))
	}
	return out
}

// ExtState returns the machine's state slot for key, creating it with
// init on first use. A Machine runs on one goroutine, so no locking is
// needed; the slot dies with the machine, so externals never leak state
// across runs.
func (m *Machine) ExtState(key string, init func() any) any {
	if m.ext != nil && key == m.extKey {
		return m.extVal
	}
	if m.ext == nil {
		m.ext = make(map[string]any)
	}
	s, ok := m.ext[key]
	if !ok {
		s = init()
		m.ext[key] = s
	}
	m.extKey, m.extVal = key, s
	return s
}

// MachineMetrics is the observability snapshot of one run: the
// dispatch loop's always-on counters. Ops aliases the machine's
// internal state — read it after the run, don't hold it across one.
type MachineMetrics struct {
	Ops         []uint64 // per-opcode retired counts, indexed by mir.Op
	HookCalls   []uint64 // per-HandlerID dispatch counts, summed over sites
	CtxSwitches uint64   // quantum grants that changed the running thread
	Quanta      uint64   // scheduler slices executed
	FaultsFired uint64   // injected fault-plan firings
}

// Metrics returns the run's observability counters, all deterministic
// for a given program, seed and fault plan.
func (m *Machine) Metrics() MachineMetrics {
	per := make([]uint64, len(m.Handlers))
	for i := range m.sites {
		if s := &m.sites[i]; s.id >= 0 && int(s.id) < len(per) {
			per[s.id] += s.calls
		}
	}
	return MachineMetrics{
		Ops:         m.opCounts[:],
		HookCalls:   per,
		CtxSwitches: m.ctxSwitches,
		Quanta:      m.quanta,
		FaultsFired: m.faultsFired,
	}
}

// CurrentTID returns the id of the thread being executed (valid during
// hooks and library calls).
func (m *Machine) CurrentTID() uint64 {
	if m.cur == nil {
		return 0
	}
	return uint64(m.cur.id)
}
