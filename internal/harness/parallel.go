package harness

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vm"
)

// Parallel grid execution. Every figure-shaped experiment is a grid of
// independent measurement cells — one workload crossed with one
// configuration (the uninstrumented baseline counts as a
// configuration). Cells share nothing mutable: each builds its own
// workload program, instruments it against the (shared, immutable)
// compiled analysis and runs it on a private vm.Machine, so they fan
// out across Config.Parallelism worker goroutines. Results land in a
// slice indexed by cell key, and the table is assembled in that fixed
// order afterwards — the rendered output is independent of worker
// interleaving.
//
// Fault tolerance: each cell runs behind recover(), failures carry the
// vm.RunError taxonomy, retryable kinds get bounded backoff retries,
// and with Config.KeepGoing a failed cell degrades to an ERR(<kind>)
// table entry instead of aborting the sweep. Completed cells stream to
// the JSONL checkpoint (Config.CheckpointPath) so an interrupted sweep
// resumes where it stopped.

// runnerFn produces one measured VM run.
type runnerFn = func() (*vm.Result, error)

// gridSpec declares a figure-shaped experiment.
type gridSpec struct {
	// name tags progress lines, error messages and checkpoint records
	// ("fig3").
	name  string
	title string
	// measured are the measured configuration columns, in order.
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
// worker count. Without KeepGoing, a failure skips the higher-indexed
// cells that have not started yet and the error of the lowest-indexed
// failing cell is returned (matching what a serial sweep would have
// reported first: a lower-indexed cell still runs, and may fail first).
// With KeepGoing, every cell runs regardless of failures; the
// lowest-indexed error is still returned so callers know the sweep
// degraded.
func (c Config) forEachCell(n int, f func(i int) error) error {
	workers := c.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				if !c.KeepGoing {
					return err
				}
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}
	var (
		firstIdx atomic.Int64 // lowest failing index so far; n if none
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	firstIdx.Store(int64(n))
	cells := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				if !c.KeepGoing && int64(i) > firstIdx.Load() {
					continue
				}
				if err := f(i); err != nil {
					mu.Lock()
					if int64(i) < firstIdx.Load() {
						firstIdx.Store(int64(i))
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		cells <- i
	}
	close(cells)
	wg.Wait()
	return firstErr
}

// measureCell builds and measures one cell behind recover(), retrying
// retryable failures with exponential backoff. Panics out of workload
// builders, instrumentation or analysis handlers degrade to an error
// instead of killing the sweep's worker pool.
func (c Config) measureCell(g *gridSpec, program string, col int, sh *obs.Shard) (wall time.Duration, tries int, err error) {
	attempt := func() (w time.Duration, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &cellFailure{kind: "panic", msg: fmt.Sprintf("panic: %v", r)}
			}
		}()
		// A retried attempt starts from a clean shard so the merged
		// counters reflect the one attempt that succeeded. Reset is
		// nil-safe, so sweeps without metrics pay nothing here.
		sh.Reset()
		fn, err := g.runner(c, program, col)
		if err != nil {
			return 0, err
		}
		w, _, _, err = c.measure(fn)
		return w, err
	}
	policy := retryPolicy{
		Base:   c.RetryBackoff,
		Max:    c.RetryMaxBackoff,
		Budget: c.RetryBudget,
		Seed:   cellRetrySeed(g.name, program+"/"+g.colName(col)),
	}
	var spent time.Duration
	for try := 0; ; try++ {
		wall, err = attempt()
		if err == nil {
			return wall, try, nil
		}
		var re *vm.RunError
		if try >= c.Retries || !errors.As(err, &re) || !re.Retryable() {
			return 0, try, err
		}
		d, ok := policy.delay(try, spent)
		if !ok {
			// Retry budget exhausted: degrade with the last error rather
			// than wait out an unbounded schedule.
			return 0, try, err
		}
		if !c.SweepDeadline.IsZero() && retryNow().Add(d).After(c.SweepDeadline) {
			return 0, try, err
		}
		retrySleep(d)
		spent += d
	}
}

// noteCell folds one finished cell into the sweep-level registry:
// counter merges from the cell's shard (live cells) or its checkpoint
// record (resumed cells), the ok/err tallies, and the cell-wall
// histogram. Virtual cell walls are deterministic and feed a pinned
// histogram; wall-clock walls are volatile.
func (c Config) noteCell(shard *obs.Shard, counts map[string]uint64, wall time.Duration, tries int, err error) {
	r := c.Metrics
	if r == nil {
		return
	}
	if tries > 0 {
		r.AddVolatile("harness.cells.retries", uint64(tries))
	}
	if err != nil {
		r.Add("harness.cells.err."+errKindLabel(err), 1)
		return
	}
	if shard != nil {
		r.MergeShard(shard)
	}
	if counts != nil {
		r.MergeCounts(counts)
	}
	r.Add("harness.cells.ok", 1)
	if c.Virtual {
		r.Observe("harness.cell_wall", uint64(wall))
	} else {
		r.AddVolatile("harness.cell_wall_ns", uint64(wall))
	}
}

// lockedWriter serializes writes from concurrent worker goroutines.
// Config.Progress is an arbitrary io.Writer with no thread-safety
// contract of its own, so the grid wraps it before fanning out.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// runGrid measures every cell of the grid, assembles the Table in row
// and column order, and renders it to c.Out.
func (c Config) runGrid(g gridSpec) (*Table, error) {
	if c.Progress != nil {
		c.Progress = &lockedWriter{w: c.Progress}
	}
	stride := len(g.measured) + 1 // baseline + measured columns
	n := len(g.programs) * stride
	walls := make([]time.Duration, n)
	cellErrs := make([]error, n)
	fp := c.fingerprint()

	var resumed map[string]checkpointRecord
	if c.Resume && c.CheckpointPath != "" {
		var err error
		resumed, err = loadCheckpoint(c.CheckpointPath, g.name, fp)
		if err != nil {
			return nil, fmt.Errorf("%s: loading checkpoint: %w", g.name, err)
		}
	}
	var ckpt *checkpointWriter
	if c.CheckpointPath != "" {
		var err error
		ckpt, err = newCheckpointWriter(c.CheckpointPath)
		if err != nil {
			return nil, fmt.Errorf("%s: opening checkpoint: %w", g.name, err)
		}
		defer ckpt.close()
	}

	err := c.forEachCell(n, func(i int) error {
		program := g.programs[i/stride]
		col := i%stride - 1
		key := program + "/" + g.colName(col)

		if rec, ok := resumed[key]; ok {
			walls[i] = time.Duration(rec.WallNS)
			cellErrs[i] = restoreErr(rec)
			c.noteCell(nil, rec.Metrics, time.Duration(rec.WallNS), 0, cellErrs[i])
			if c.Metrics != nil {
				c.Metrics.AddVolatile("harness.checkpoint.resumed", 1)
			}
			if c.Progress != nil {
				fmt.Fprintf(c.Progress, "[%s] %s resumed from checkpoint\n", g.name, key)
			}
			if cellErrs[i] != nil {
				return fmt.Errorf("%s %s: %w", g.name, key, cellErrs[i])
			}
			return nil
		}

		cc := c
		if c.CellFaults != nil {
			cc.Opt.Faults = c.CellFaults(program, g.colName(col))
		}
		var shard *obs.Shard
		if c.Metrics != nil {
			shard = obs.NewShard()
			cc.Opt.Metrics = shard
			// Hook timing reads the clock per dispatch — useful for wall
			// attribution, poison for deterministic virtual counters.
			cc.Opt.TimeHooks = !c.Virtual
		}
		if c.Trace != nil {
			cc.Opt.Trace = c.Trace
			cc.Opt.TraceTID = int64(i)
		}
		start := time.Now()
		wall, tries, err := cc.measureCell(&g, program, col, shard)
		walls[i] = wall
		if c.Trace != nil {
			c.Trace.Span("harness", g.name+"/"+key, int64(i), start, time.Since(start))
		}
		if err != nil {
			cellErrs[i] = err
			c.noteCell(shard, nil, 0, tries, err)
			if ckpt != nil {
				ckpt.append(checkpointRecord{Grid: g.name, Cell: key, Fp: fp,
					ErrKind: errKindLabel(err), ErrMsg: err.Error()})
				if c.Metrics != nil {
					c.Metrics.AddVolatile("harness.checkpoint.appended", 1)
				}
			}
			if c.Progress != nil {
				fmt.Fprintf(c.Progress, "[%s] %s %s: %v\n", g.name, key, errCell(errKindLabel(err)), err)
			}
			return fmt.Errorf("%s %s: %w", g.name, key, err)
		}
		c.noteCell(shard, nil, wall, tries, nil)
		if ckpt != nil {
			rec := checkpointRecord{Grid: g.name, Cell: key, Fp: fp, WallNS: int64(wall)}
			if shard != nil {
				rec.Metrics = shard.Counts
			}
			ckpt.append(rec)
			if c.Metrics != nil {
				c.Metrics.AddVolatile("harness.checkpoint.appended", 1)
			}
		}
		if c.Progress != nil {
			fmt.Fprintf(c.Progress, "[%s] %s wall=%v elapsed=%v\n",
				g.name, key,
				wall.Round(10*time.Microsecond), time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
	if err != nil && !c.KeepGoing {
		return nil, err
	}

	cols := g.columns
	if cols == nil {
		cols = g.measured
	}
	t := &Table{Title: g.title, Columns: cols}
	for wi, program := range g.programs {
		base := walls[wi*stride]
		baseErr := ""
		if e := cellErrs[wi*stride]; e != nil {
			baseErr = errKindLabel(e)
		}
		measured := make([]float64, len(g.measured))
		errLabels := make([]string, len(g.measured))
		degraded := false
		for ci := range g.measured {
			if e := cellErrs[wi*stride+1+ci]; e != nil {
				errLabels[ci] = errKindLabel(e)
				degraded = true
				continue
			}
			if baseErr == "" {
				measured[ci] = float64(walls[wi*stride+1+ci]) / float64(base)
			}
		}
		if g.finish != nil {
			measured = g.finish(measured)
			if g.finishErrs != nil {
				errLabels = g.finishErrs(errLabels)
			}
		}
		row := Row{Workload: program, BaseWall: base, Overheads: measured, BaseErr: baseErr}
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
	return t, nil
}
