package harness

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Parallel grid execution. A figure-shaped experiment is a grid: one
// row per workload, one cell per configuration, the plain run
// included. A figure plots each cell's ratio to its row's plain cell,
// so one worker measures a whole row, as paired rounds (measureRow).
// Cells share nothing mutable: each builds its own program and runs it
// on a private vm.Machine, so rows fan out across Config.Parallelism
// workers, and the table is assembled in cell order afterwards,
// independent of worker interleaving.
//
// Cells stay the unit of failure: each run is behind recover(),
// failures carry the vm.RunError taxonomy, a Deadline failure runs
// again once, a failed cell degrades to an ERR(<kind>) entry while
// every other cell still runs, and completed cells stream to the JSONL
// checkpoint (Config.CheckpointPath) so an interrupted sweep resumes.

// runnerFn produces one measured VM run.
type runnerFn = func() (*vm.Result, error)

// gridSpec declares a figure-shaped experiment.
type gridSpec struct {
	// name tags progress lines, error messages and checkpoint records
	// ("fig3").
	name  string
	title string
	// measured are the measured configuration columns, in order. The
	// experiments set measured and runner from their column
	// declarations (measure).
	measured []string
	// columns are the rendered column names; nil means the measured
	// columns render as-is. Use with finish to add derived columns.
	columns []string
	// finish maps one row's measured overheads to its rendered
	// overheads (nil ⇒ identity); used for derived columns like
	// Figure 5's "sum".
	finish func(measured []float64) []float64
	// finishErrs maps the measured columns' error labels to the
	// rendered columns' (nil ⇒ identity). Required whenever finish adds
	// derived columns, so a degraded input degrades its derivations.
	finishErrs func(measured []string) []string
	// programs are the workload rows, in render order.
	programs []string
	// runner builds the measurement closure for one cell. col is an
	// index into measured; col == -1 is the uninstrumented baseline.
	runner func(c Config, program string, col int) (runnerFn, error)
}

func (g *gridSpec) colName(col int) string {
	if col < 0 {
		return "base"
	}
	return g.measured[col]
}

// forEachCell runs f for every index in [0, n) across the configured
// worker count; a grid passes its rows. Every index runs whatever
// fails, and the error of the lowest-indexed failure is returned: the
// one a serial sweep would have hit first.
func (c Config) forEachCell(n int, f func(i int) error) error {
	workers := max(1, min(c.Parallelism, n))
	errs := make([]error, n)
	var wg sync.WaitGroup
	cells := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		cells <- i
	}
	close(cells)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellResult is one cell of a grid: what measuring it found, and while
// its row is measured, the state of its runs. done marks a cell
// measured, failed or restored from the checkpoint. wall is the virtual
// time under -virtual, else the median of the cell's round times;
// overhead is the ratio to the row's plain cell (the median of the
// per-round ratios), zero for the plain cell and when either failed.
// shard holds the counters of the cell's runs (a resumed cell's
// recorded counters), and runs counts those runs, warm-up included.
// retried marks a cell that used its one retry.
type cellResult struct {
	done, resumed, retried bool
	wall                   time.Duration
	overhead               float64
	err                    error
	shard                  *obs.Shard
	runs                   uint64
	start                  time.Time

	col     int
	cc      Config // the cell's fault spec, counter shard and trace tid
	fn      runnerFn
	warm    *vm.Result
	repeats int             // runs per round
	rounds  []time.Duration // per round: its fastest run's wall
}

// steps is the instructions one run of the cell retires. The VM is
// deterministic, so every run retires the same count.
func (c cellResult) steps() uint64 {
	return c.shard.Counts["vm.steps"] / c.runs
}

// leg readies cell ce, of row ri and column col, to be measured.
func (c Config) leg(g *gridSpec, ri, col int, ce *cellResult) *cellResult {
	program := g.programs[ri]
	ce.col, ce.cc = col, c
	if c.CellFaults != nil {
		ce.cc.Opt.Faults = c.CellFaults(program, g.colName(col))
	}
	ce.shard = obs.NewShard()
	ce.cc.Opt.Metrics = ce.shard
	if c.Trace != nil {
		ce.cc.Opt.Trace = c.Trace
		ce.cc.Opt.TraceTID = int64(ri*(len(g.measured)+1) + col + 1)
	}
	return ce
}

// run runs the cell once: as the warm-up when round is negative, which
// builds its runner first, and else in that round, keeping the round's
// fastest wall. The cell's first run to fail with a retryable kind runs
// again after retryWait; a failed run adds no counters, and a retried
// warm-up starts from a clean shard. A panic out of a workload builder,
// instrumentation or a handler degrades to an error.
func (ce *cellResult) run(g *gridSpec, program string, round int) error {
	for {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = &cellFailure{kind: "panic", msg: fmt.Sprintf("panic: %v", r)}
				}
			}()
			if round < 0 {
				ce.shard.Reset()
				ce.runs = 0
				if ce.fn, err = g.runner(ce.cc, program, ce.col); err != nil {
					return err
				}
			}
			res, err := ce.fn()
			if err != nil {
				return err
			}
			ce.runs++
			switch {
			case round < 0:
				ce.warm = res
			case round == len(ce.rounds):
				ce.rounds = append(ce.rounds, res.Wall)
			default:
				ce.rounds[round] = min(ce.rounds[round], res.Wall)
			}
			return nil
		}()
		var re *vm.RunError
		if ce.retried || !errors.As(err, &re) || !re.Retryable() {
			return err
		}
		ce.retried = true
		time.Sleep(retryWait(cellRetrySeed(g.name, program+"/"+g.colName(ce.col))))
	}
}

// measureRow measures the cells of row ri that are not done yet. Each
// runs once as a warm-up, in column order; under -virtual that run is
// the measurement. In wall-clock mode c.rounds rounds follow, each
// making passes over the row's legs back to back, in an order that
// rotates from pass to pass and by row, until every leg has run as
// often as runsToCover asks. A leg's round time is its fastest run of
// the round, and a cell's overhead the median of its per-round ratios
// to the plain leg. A failed leg sits out the rest of the row, and a
// failed plain leg ends the rounds.
func (c Config) measureRow(g *gridSpec, ri int, row []cellResult) {
	if !c.Virtual && slices.ContainsFunc(row, func(ce cellResult) bool { return !ce.done }) {
		// The plain leg's round times divide every ratio, so a resumed
		// plain cell is measured and reported anew with the rest.
		row[0] = cellResult{}
	}
	program := g.programs[ri]
	plain := &row[0]
	var legs []*cellResult
	for i := range row {
		if !row[i].done {
			legs = append(legs, c.leg(g, ri, i-1, &row[i]))
		}
	}
	if len(legs) == 0 {
		return
	}
	for _, ce := range legs {
		ce.start = time.Now()
		ce.err = ce.run(g, program, -1)
	}
	if !c.Virtual && plain.err == nil {
		rounds, passes := c.rounds(plain.warm), 0
		for _, ce := range legs {
			if ce.err == nil {
				ce.repeats = runsToCover(ce.warm, rounds)
				passes = max(passes, ce.repeats)
			}
		}
		for r := 0; r < rounds && plain.err == nil; r++ {
			for j := 0; j < passes; j++ {
				for k := range legs {
					ce := legs[(k+r*passes+j+ri)%len(legs)]
					if ce.err != nil || j >= ce.repeats {
						continue
					}
					ce.err = ce.run(g, program, r)
				}
			}
		}
	}

	for _, ce := range legs { // the plain leg, if live, comes first
		ce.done = true
		switch {
		case ce.err != nil:
		case c.Virtual:
			ce.wall = time.Duration(ce.warm.Virtual())
		case len(ce.rounds) > 0:
			ce.wall = median(ce.rounds)
		default:
			ce.wall = ce.warm.Wall
		}
		switch {
		case ce.col < 0 || ce.err != nil || plain.err != nil:
		case c.Virtual:
			ce.overhead = float64(ce.wall) / float64(plain.wall)
		default:
			ratios := make([]float64, len(ce.rounds))
			for r, w := range ce.rounds {
				ratios[r] = float64(w) / float64(plain.rounds[r])
			}
			ce.overhead = median(ratios)
		}
	}
}

// median returns the median of xs, which must not be empty.
func median[T ~int64 | ~float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sweep measures every cell of the grid, restoring those the
// checkpoint recorded, and returns them indexed row·(len(g.measured)+1)
// + col + 1. The error is the lowest-indexed failed cell's.
func (c Config) sweep(g *gridSpec) ([]cellResult, error) {
	stride := len(g.measured) + 1
	cells := make([]cellResult, len(g.programs)*stride)
	fp := c.fingerprint()

	var resumed map[string]checkpointRecord
	var ckpt *checkpointWriter
	var err error
	if c.Resume && c.CheckpointPath != "" {
		if resumed, err = loadCheckpoint(c.CheckpointPath, g.name, fp); err != nil {
			return nil, fmt.Errorf("%s: loading checkpoint: %w", g.name, err)
		}
	}
	if c.CheckpointPath != "" {
		if ckpt, err = newCheckpointWriter(c.CheckpointPath); err != nil {
			return nil, fmt.Errorf("%s: opening checkpoint: %w", g.name, err)
		}
		defer ckpt.close()
	}

	var mu sync.Mutex // serializes reports: Config.Progress need not be safe for concurrent use
	err = c.forEachCell(len(g.programs), func(ri int) error {
		row := cells[ri*stride : (ri+1)*stride]
		for i := range row {
			if rec, ok := resumed[g.programs[ri]+"/"+g.colName(i-1)]; ok {
				row[i] = cellResult{done: true, resumed: true, wall: time.Duration(rec.WallNS),
					overhead: rec.Overhead, err: restoreErr(rec), shard: &obs.Shard{Counts: rec.Metrics}}
			}
		}
		c.measureRow(g, ri, row)
		var first error
		for i := range row {
			if !row[i].done {
				continue
			}
			key := g.programs[ri] + "/" + g.colName(i-1)
			mu.Lock()
			c.report(g, key, ri*stride+i, &row[i], fp, ckpt)
			mu.Unlock()
			if err := row[i].err; err != nil && first == nil {
				first = fmt.Errorf("%s %s: %w", g.name, key, err)
			}
		}
		return first
	})
	return cells, err
}

// report folds one done cell into the sweep's metrics, checkpoint,
// progress lines and trace. Virtual cell walls are deterministic and
// feed a pinned histogram; wall-clock walls are volatile.
func (c Config) report(g *gridSpec, key string, tid int, ce *cellResult, fp string, ckpt *checkpointWriter) {
	if !ce.resumed && c.Trace != nil {
		c.Trace.Span("harness", g.name+"/"+key, int64(tid), ce.start, time.Since(ce.start))
	}
	if r := c.Metrics; r != nil {
		if ce.resumed {
			r.AddVolatile("harness.checkpoint.resumed", 1)
		} else if ckpt != nil {
			r.AddVolatile("harness.checkpoint.appended", 1)
		}
		if ce.retried {
			r.AddVolatile("harness.cells.retries", 1)
		}
		if ce.err != nil {
			r.Add("harness.cells.err."+errKindLabel(ce.err), 1)
		} else {
			r.MergeShard(ce.shard)
			r.Add("harness.cells.ok", 1)
			if c.Virtual {
				r.Observe("harness.cell_wall", uint64(ce.wall))
			} else {
				r.AddVolatile("harness.cell_wall_ns", uint64(ce.wall))
			}
		}
	}
	if ce.resumed {
		if c.Progress != nil {
			fmt.Fprintf(c.Progress, "[%s] %s resumed from checkpoint\n", g.name, key)
		}
		return
	}
	if ckpt != nil {
		rec := checkpointRecord{Grid: g.name, Cell: key, Fp: fp, WallNS: int64(ce.wall), Overhead: ce.overhead}
		if ce.err != nil {
			rec = checkpointRecord{Grid: g.name, Cell: key, Fp: fp, ErrKind: errKindLabel(ce.err), ErrMsg: ce.err.Error()}
		} else if c.Metrics != nil {
			rec.Metrics = ce.shard.Counts
		}
		ckpt.append(rec)
	}
	switch {
	case c.Progress == nil:
	case ce.err != nil:
		fmt.Fprintf(c.Progress, "[%s] %s %s: %v\n", g.name, key, errCell(errKindLabel(ce.err)), ce.err)
	default:
		fmt.Fprintf(c.Progress, "[%s] %s wall=%v elapsed=%v\n", g.name, key,
			ce.wall.Round(10*time.Microsecond), time.Since(ce.start).Round(time.Millisecond))
	}
}

// runGrid measures every cell of the grid, assembles the Table in row
// and column order, and renders it to c.Out. The error is the
// lowest-indexed failed cell's, returned with the complete table; the
// table is nil only when the checkpoint could not be read or opened.
func (c Config) runGrid(g gridSpec) (*Table, error) {
	cells, err := c.sweep(&g)
	if cells == nil {
		return nil, err
	}
	stride := len(g.measured) + 1
	cols := g.columns
	if cols == nil {
		cols = g.measured
	}
	t := &Table{Title: g.title, Columns: cols}
	for wi, program := range g.programs {
		base := cells[wi*stride]
		baseErr := ""
		if base.err != nil {
			baseErr = errKindLabel(base.err)
		}
		measured := make([]float64, len(g.measured))
		errLabels := make([]string, len(g.measured))
		degraded := false
		for ci := range g.measured {
			ce := cells[wi*stride+1+ci]
			if ce.err != nil {
				errLabels[ci] = errKindLabel(ce.err)
				degraded = true
				continue
			}
			measured[ci] = ce.overhead
		}
		if g.finish != nil {
			measured = g.finish(measured)
			if g.finishErrs != nil {
				errLabels = g.finishErrs(errLabels)
			}
		}
		row := Row{Workload: program, BaseWall: base.wall, Overheads: measured, BaseErr: baseErr}
		if degraded || baseErr != "" {
			row.Errs = errLabels
			if baseErr != "" {
				row.BaseWall = 0
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.computeAverages()
	t.Render(c.Out)
	return t, err
}
