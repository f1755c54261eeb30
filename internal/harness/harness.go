// Package harness reruns the paper's evaluation (§6): it measures
// normalized overheads the way the paper does (repeated runs, first
// discarded as warm-up, geometric mean of the rest) and renders each
// table and figure of the evaluation section as text.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Config controls experiment execution.
type Config struct {
	// Size scales the workloads (default SizeSmall).
	Size workloads.Size
	// Reps is the number of measured repetitions per configuration
	// (default 3). One extra warm-up run is discarded, matching the
	// paper's "six runs, geomean of the later five" protocol scaled
	// down. A configuration whose Reps runs are too short to time
	// reliably runs more (see timedRuns).
	Reps int
	// Opt is the VM configuration.
	Opt core.RunOptions
	// Out receives rendered tables (nil ⇒ io.Discard).
	Out io.Writer
	// Parallelism is the number of worker goroutines that independent
	// measurement cells (one workload × one configuration, baseline
	// included) fan out across: 1 serializes, 0 or negative means
	// GOMAXPROCS. Each cell builds its own program and vm.Machine, and
	// results are aggregated by cell key in a fixed order, so the
	// rendered tables have the same shape and row/column order at any
	// parallelism — and are byte-identical when Virtual is set.
	Parallelism int
	// Virtual replaces measured wall-clock with a deterministic virtual
	// time derived from retired instructions and dispatched hooks. The
	// VM is deterministic, so a cell then reports the identical duration
	// on every run regardless of machine load or parallelism; the
	// determinism regression tests rely on this. One rep suffices in
	// virtual mode, so Reps is ignored.
	Virtual bool
	// Progress receives one line per completed measurement cell (nil ⇒
	// no progress output). Cells complete in nondeterministic order
	// under parallelism, so keep Progress separate from Out.
	Progress io.Writer
	// KeepGoing degrades failed cells instead of aborting the sweep: a
	// cell whose run fails (a vm.RunError, a build error, or a panic in
	// workload construction) renders as ERR(<kind>) and every other
	// cell still runs. Off, the sweep keeps the serial first-error
	// behavior: the lowest-indexed failure aborts it.
	KeepGoing bool
	// Retries re-measures a cell up to this many extra times when its
	// failure is retryable (vm.KindDeadline — the one load-dependent
	// kind). The wait between attempts starts at RetryBackoff (default
	// 100ms) and doubles, capped per-wait at RetryMaxBackoff (default
	// 2s) with deterministic equal-jitter decorrelation, and capped in
	// total at RetryBudget (default 30s) so a flapping cell cannot
	// stall a sweep — or a server drain — indefinitely.
	Retries         int
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	RetryBudget     time.Duration
	// SweepDeadline, when non-zero, is the absolute instant the sweep
	// must wind down by: a retry whose backoff wait would cross it is
	// abandoned and the cell degrades with its last error. Set by
	// drain paths that need the sweep to finish promptly.
	SweepDeadline time.Time
	// CheckpointPath appends one JSONL record per completed cell
	// (degraded cells included) to this file. Empty disables
	// checkpointing.
	CheckpointPath string
	// Resume loads CheckpointPath before the sweep and skips every cell
	// already recorded under the same grid and config fingerprint,
	// restoring its measurement (or degraded error) verbatim — an
	// interrupted -virtual sweep resumes byte-identical.
	Resume bool
	// CellFaults selects the fault-injection spec for a cell (nil ⇒
	// none). column is the rendered column name, "base" for the
	// uninstrumented baseline.
	CellFaults func(program, column string) vm.FaultSpec
	// Metrics, when non-nil, collects per-cell observability counters
	// into this registry: each cell runs with a private obs.Shard that
	// merges in on completion, so serial, parallel and resumed sweeps
	// accumulate identical deterministic counters. Collecting them
	// reads no clock inside a run, so it leaves measured times as they
	// are.
	Metrics *obs.Registry
	// Trace, when non-nil, receives Chrome trace_event spans: one per
	// harness cell plus the VM quanta and fault instants inside it,
	// tagged with the cell index as the trace tid.
	Trace *obs.Trace
	// PGOProfile, when non-nil, replaces the PGO and Adapt experiments'
	// inline training runs with a previously collected profile
	// (-profile-in). A profile that does not match the measured analysis
	// degrades to static selection with a warning instead of silently
	// perturbing layout with stale counts.
	PGOProfile *compiler.Profile
	// Adapt enables the adaptive-PGO hot swap (-adapt): the Adapt
	// experiment's adaptive column runs its first AdaptAfter programs as
	// a profiling quantum (static layout plus access counters, measured
	// honestly), then recompiles through the compile cache with the
	// collected profile folded into the fingerprint and swaps the
	// adapted analysis in for every remaining cell. Off, the adaptive
	// column is the no-swap control (static analysis throughout).
	Adapt bool
	// AdaptAfter is the profiling-quantum length in programs (default 1).
	AdaptAfter int
	// TraceDir is the directory of recorded plain-run traces
	// (<workload>.trc) the replay experiment measures against. The
	// checkpoint fingerprint hashes the trace contents, so -resume
	// rejects checkpoints written against different trace bytes.
	TraceDir string
	// TraceRecord permits recording missing traces into TraceDir
	// (-trace-out); off, a missing trace fails the sweep (-trace-in
	// expects a complete directory).
	TraceRecord bool
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.RetryMaxBackoff <= 0 {
		c.RetryMaxBackoff = 2 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 30 * time.Second
	}
	if c.AdaptAfter <= 0 {
		c.AdaptAfter = 1
	}
	return c
}

// geomean returns the geometric mean of xs (0 for empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// minTimedVirtual is the least virtual time (vm.Result.Virtual) the timed
// runs of one wall-clock cell cover together. A tiny workload's run
// lasts about a millisecond, so a single preemption by another process
// can multiply it; a cell whose Reps runs would cover less than this
// takes more runs, giving the minimum an undisturbed one to find.
const minTimedVirtual = 3 * time.Millisecond

// maxTimedRuns caps the runs minTimedVirtual asks of a near-empty
// workload.
const maxTimedRuns = 20

// timedRuns returns how many timed runs follow the warm-up run warm:
// Reps, or as many as cover minTimedVirtual when that is more. The
// count depends only on the deterministic warm-up, so the counters a
// cell accumulates are the same on every sweep.
func (c Config) timedRuns(warm *vm.Result) int {
	v := time.Duration(warm.Virtual())
	if v <= 0 {
		return c.Reps
	}
	need := int((minTimedVirtual + v - 1) / v)
	return max(c.Reps, min(need, maxTimedRuns))
}

// measure runs fn once as warm-up and then timedRuns more times, and
// returns the minimum wall time of the timed runs, the last result and
// the number of runs made, warm-up included. The paper geomeans five
// native runs; on a shared, contended machine the minimum is the robust
// estimator of the workload's intrinsic cost (OS noise only ever adds
// time), and since both the baseline and the instrumented run use it,
// normalized overheads stay comparable.
func (c Config) measure(fn func() (*vm.Result, error)) (time.Duration, *vm.Result, int, error) {
	res, err := fn()
	if err != nil {
		return 0, nil, 0, err
	}
	if c.Virtual {
		// Virtual time is a pure function of the deterministic run, so
		// repetitions and warm-up would measure the same number again.
		return time.Duration(res.Virtual()), res, 1, nil
	}
	n := c.timedRuns(res)
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		if res, err = fn(); err != nil {
			return 0, nil, 0, err
		}
		if best == 0 || res.Wall < best {
			best = res.Wall
		}
	}
	return best, res, n + 1, nil
}

// runnerPlain builds the uninstrumented runner for a workload.
func (c Config) runnerPlain(name string) (func() (*vm.Result, error), error) {
	p, err := workloads.Build(name, c.Size)
	if err != nil {
		return nil, err
	}
	return func() (*vm.Result, error) { return core.RunPlain(p, c.Opt) }, nil
}

// runnerALDA builds the runner for a compiled ALDA analysis on a
// workload; the program is instrumented once, runtimes are fresh per
// run.
func (c Config) runnerALDA(a *compiler.Analysis, name string) (func() (*vm.Result, error), error) {
	p, err := workloads.Build(name, c.Size)
	if err != nil {
		return nil, err
	}
	inst, err := instrument.Apply(p, a)
	if err != nil {
		return nil, err
	}
	return func() (*vm.Result, error) { return core.RunInstrumented(inst, a, c.Opt) }, nil
}

// runnerBaseline builds the runner for a hand-tuned baseline.
func (c Config) runnerBaseline(factory func() baselines.Baseline, name string) (func() (*vm.Result, error), error) {
	p, err := workloads.Build(name, c.Size)
	if err != nil {
		return nil, err
	}
	return func() (*vm.Result, error) { return core.RunBaseline(p, factory, c.Opt) }, nil
}

// Row is one workload's measurements across configurations.
type Row struct {
	Workload  string
	BaseWall  time.Duration
	Overheads []float64 // parallel to the experiment's column names
	// Errs marks degraded cells: Errs[i] non-empty means column i's run
	// failed with that error-kind label and Overheads[i] is meaningless.
	// Nil when every cell succeeded.
	Errs []string
	// BaseErr marks a degraded baseline cell; the row's overheads are
	// then undefined (rendered as "-").
	BaseErr string
}

// errCell renders a degraded cell: the kind label wrapped in ERR(...).
func errCell(kind string) string { return "ERR(" + kind + ")" }

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string // overhead column names
	Rows    []Row
	// Averages holds the per-column average overhead (arithmetic mean,
	// like the paper's "on average 2.21x").
	Averages []float64
}

func (t *Table) computeAverages() {
	t.Averages = make([]float64, len(t.Columns))
	for ci := range t.Columns {
		s, n := 0.0, 0
		for _, r := range t.Rows {
			if r.BaseErr != "" || (ci < len(r.Errs) && r.Errs[ci] != "") {
				continue // degraded cells don't pollute the average
			}
			if ci < len(r.Overheads) && r.Overheads[ci] > 0 {
				s += r.Overheads[ci]
				n++
			}
		}
		if n > 0 {
			t.Averages[ci] = s / float64(n)
		}
	}
}

// Render writes the table as fixed-width text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%-12s %12s", "program", "base")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		if r.BaseErr != "" {
			fmt.Fprintf(w, "%-12s %12s", r.Workload, errCell(r.BaseErr))
		} else {
			fmt.Fprintf(w, "%-12s %12s", r.Workload, r.BaseWall.Round(10*time.Microsecond))
		}
		for ci, o := range r.Overheads {
			switch {
			case ci < len(r.Errs) && r.Errs[ci] != "":
				fmt.Fprintf(w, " %14s", errCell(r.Errs[ci]))
			case r.BaseErr != "":
				fmt.Fprintf(w, " %14s", "-")
			default:
				fmt.Fprintf(w, " %13.2fx", o)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s %12s", "average", "")
	for _, a := range t.Averages {
		fmt.Fprintf(w, " %13.2fx", a)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}
