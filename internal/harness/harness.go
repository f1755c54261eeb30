// Package harness reruns the paper's evaluation (§6): it measures
// normalized overheads as paired ratios (each workload's
// configurations run back to back in rotating order, a warm-up run
// discarded, the median of the per-round ratios kept) and renders each
// table and figure of the evaluation section as text.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/analyses"
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
	// Reps is the number of paired rounds per row (default 3): each
	// round runs every configuration of one workload back to back, and
	// a cell's overhead is the median of its per-round ratios to the
	// plain run. One extra warm-up run per configuration is discarded,
	// as in the paper's "six runs, the later five" protocol. A row whose
	// plain run is too short to time reliably runs more rounds, and in
	// each round such a configuration runs several times and keeps its
	// fastest run (see rounds and runsToCover).
	Reps int
	// Opt is the VM configuration.
	Opt core.RunOptions
	// Out receives rendered tables (nil ⇒ io.Discard).
	Out io.Writer
	// Parallelism is the number of worker goroutines that independent
	// rows (one workload's cells: the plain run and every
	// configuration) fan out across: 1 serializes, 0 or negative means
	// GOMAXPROCS. Each cell builds its own program and vm.Machine, and
	// results are aggregated by cell key in a fixed order, so the
	// rendered tables have the same shape and row/column order at any
	// parallelism — and are byte-identical when Virtual is set.
	Parallelism int
	// Virtual replaces measured wall-clock with a deterministic virtual
	// time derived from retired instructions and dispatched hooks. The
	// VM is deterministic, so a cell then reports the identical duration
	// on every run regardless of machine load or parallelism; the
	// determinism regression tests rely on this. The warm-up run is
	// the measurement in virtual mode, so Reps is ignored.
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
	// kind). The wait between attempts starts at 100ms and doubles,
	// capped per-wait at 2s with deterministic equal-jitter
	// decorrelation, and capped in total at 30s so a flapping cell
	// cannot stall a sweep indefinitely (retry.go).
	Retries int
	// CheckpointPath appends one JSONL record per completed cell
	// (degraded cells included) to this file. Empty disables
	// checkpointing.
	CheckpointPath string
	// Resume loads CheckpointPath before the sweep and skips every cell
	// already recorded under the same grid and config fingerprint,
	// restoring its measurement (or degraded error) verbatim — an
	// interrupted -virtual sweep resumes byte-identical. In wall-clock
	// mode a row with cells left to measure measures its plain cell
	// again, since every round times it.
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
	return c
}

// minCellVirtual is the least virtual time (vm.Result.Virtual) the
// runs of one wall-clock cell cover together. On a loaded machine a run
// of a millisecond either runs through or waits out another process's
// time slice, which dwarfs it, so a round runs a leg that short several
// times and keeps its fastest run; and a row whose plain run is that
// short runs at least shortRounds rounds, so that the median outvotes
// a round a burst of load disturbed. maxRepeats caps the runs per
// round of a near-empty workload.
const (
	minCellVirtual = 3 * time.Millisecond
	shortRounds    = 3
	maxRepeats     = 20
)

// rounds returns how many rounds follow a row's warm-up, given its
// plain leg's warm-up run: Reps, or up to shortRounds when that run
// falls short of minCellVirtual.
func (c Config) rounds(plain *vm.Result) int {
	return max(c.Reps, min(runsToCover(plain, 1), shortRounds))
}

// runsToCover returns how many runs like warm cover minCellVirtual over
// n rounds, per round. It depends only on the deterministic warm-up, so
// the counters a cell accumulates are the same on every sweep.
func runsToCover(warm *vm.Result, n int) int {
	v := time.Duration(warm.Virtual()) * time.Duration(n)
	if v <= 0 {
		return 1
	}
	return max(1, min(int((minCellVirtual+v-1)/v), maxRepeats))
}

// column is one measured configuration of a grid, declared as data: a
// staged variant (analyses.Variant) run live or driven from the
// workload's recorded trace, or a hand-tuned baseline.
type column struct {
	name    string
	variant string
	replay  bool
	hand    func() baselines.Baseline
}

// The hand-tuned baselines the figures compare against.
func handMSan() baselines.Baseline   { return baselines.NewMSan(vm.AddrSpace) }
func handEraser() baselines.Baseline { return baselines.NewEraser() }

// measure returns g with cols as its measured columns and the runner
// that turns them into cells; column -1 is the plain run. A cell builds
// its workload, and instruments it once, before its first run; each run
// gets a fresh runtime. Every variant compiles here, so a grid naming
// one that is unknown or not staged fails before it measures.
func (g gridSpec) measure(cols ...column) (gridSpec, error) {
	compiled := make([]*compiler.Analysis, len(cols))
	for i, col := range cols {
		g.measured = append(g.measured, col.name)
		if col.hand == nil {
			a, err := analyses.Variant(col.variant)
			if err != nil {
				return g, err
			}
			compiled[i] = a
		}
	}
	g.runner = func(c Config, w string, i int) (runnerFn, error) {
		p, err := workloads.Build(w, c.Size)
		if err != nil {
			return nil, err
		}
		opt := c.Opt
		switch {
		case i < 0:
			return func() (*vm.Result, error) { return core.RunPlain(p, opt) }, nil
		case cols[i].hand != nil:
			return func() (*vm.Result, error) { return core.RunBaseline(p, cols[i].hand, opt) }, nil
		}
		a := compiled[i]
		inst, err := instrument.Apply(p, a)
		if err != nil {
			return nil, err
		}
		if cols[i].replay {
			if opt.ReplayTrace, err = loadTraceFile(c.tracePath(w)); err != nil {
				return nil, err
			}
		}
		return func() (*vm.Result, error) { return core.RunInstrumented(inst, a, opt) }, nil
	}
	return g, nil
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
