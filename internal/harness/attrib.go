package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/obs"
)

// Overhead attribution: instead of reporting one opaque overhead factor
// per workload (Figure 4's view), split each cell's instrumented-minus
// -baseline time into where it went — hook dispatch by event category,
// and residual dispatch/bookkeeping — plus the container traffic the
// hooks generated. Under -virtual the split is exact: virtual time is
// steps + 16·hookCalls by construction, so the hook portion is 16·calls
// and the residual is precisely the extra instructions instrumentation
// inserted. Under wall clock the hook portion comes from per-handler
// timing (Config.Opt.TimeHooks) and is clamped to the measured delta.

// attribCategories are the fixed hook-cost columns; hooks categorized
// "life" or "mixed" (and anything unknown) fold into "other".
var attribCategories = [...]string{"mem", "alloc", "sync", "call", "ctrl", "other"}

func attribCatIndex(cat string) int {
	for i, c := range attribCategories {
		if c == cat {
			return i
		}
	}
	return len(attribCategories) - 1
}

// AttribRow is one workload's overhead attribution.
type AttribRow struct {
	Program     string
	Base        time.Duration
	Inst        time.Duration
	Overhead    float64
	Hook        time.Duration                  // portion of the delta spent in hook handlers
	Dispatch    time.Duration                  // residual: inserted instructions, bookkeeping
	Shares      [len(attribCategories)]float64 // hook portion by category, percent
	GetPerKStep float64                        // container reads per 1000 instrumented steps
	SetPerKStep float64                        // container writes per 1000 instrumented steps
	Err         string                         // non-empty: a cell failed, rest of the row is void
}

// AttribTable is a rendered attribution report.
type AttribTable struct {
	Title   string
	Virtual bool
	Rows    []AttribRow
}

// DefaultAttribPrograms is the workload set -attrib measures when none
// is given.
func DefaultAttribPrograms() []string {
	return []string{"bzip2", "mcf", "fft", "sort", "memcached"}
}

// Attrib measures baseline and instrumented cells for each program and
// attributes the overhead. Cells fan out across Config.Parallelism like
// any grid; with Config.Metrics set the per-cell counters also merge
// into the registry, and virtual-mode tables are deterministic.
func Attrib(cfg Config, analysis string, programs []string) (*AttribTable, error) {
	cfg = cfg.withDefaults()
	if len(programs) == 0 {
		programs = DefaultAttribPrograms()
	}
	a, err := analyses.Compile(analysis, compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	catOf := make(map[string]string)
	names := a.HandlerNames()
	for i, c := range a.HookCategories() {
		catOf[names[i]] = c
	}

	n := len(programs) * 2 // (base, inst) per program
	walls := make([]time.Duration, n)
	runs := make([]int, n)
	shards := make([]*obs.Shard, n)
	cellErrs := make([]error, n)
	err = cfg.forEachCell(n, func(i int) (err error) {
		program := programs[i/2]
		inst := i%2 == 1
		kind := "base"
		if inst {
			kind = "inst"
		}
		defer func() {
			if r := recover(); r != nil {
				err = &cellFailure{kind: "panic", msg: fmt.Sprintf("panic: %v", r)}
			}
			if err != nil {
				cellErrs[i] = err
				cfg.noteCell(nil, nil, 0, 0, err)
				err = fmt.Errorf("attrib %s/%s: %w", program, kind, err)
			}
		}()
		cc := cfg
		sh := obs.NewShard()
		cc.Opt.Metrics = sh
		cc.Opt.TimeHooks = !cfg.Virtual
		if cfg.Trace != nil {
			cc.Opt.Trace = cfg.Trace
			cc.Opt.TraceTID = int64(i)
		}
		var fn runnerFn
		if inst {
			fn, err = cc.runnerALDA(a, program)
		} else {
			fn, err = cc.runnerPlain(program)
		}
		if err != nil {
			return err
		}
		start := time.Now()
		w, _, nruns, err := cc.measure(fn)
		if cfg.Trace != nil {
			cfg.Trace.Span("harness", "attrib/"+program+"/"+kind, int64(i), start, time.Since(start))
		}
		if err != nil {
			return err
		}
		walls[i], runs[i], shards[i] = w, nruns, sh
		cfg.noteCell(sh, nil, w, 0, nil)
		return nil
	})
	if err != nil && !cfg.KeepGoing {
		return nil, err
	}

	mode := "wall"
	if cfg.Virtual {
		mode = "virtual"
	}
	t := &AttribTable{
		Title:   fmt.Sprintf("Overhead attribution: %s (size=%s, %s)", analysis, cfg.Size, mode),
		Virtual: cfg.Virtual,
	}
	for pi, program := range programs {
		bi, ii := pi*2, pi*2+1
		if e := cellErrs[bi]; e != nil {
			t.Rows = append(t.Rows, AttribRow{Program: program, Err: errKindLabel(e)})
			continue
		}
		if e := cellErrs[ii]; e != nil {
			t.Rows = append(t.Rows, AttribRow{Program: program, Err: errKindLabel(e)})
			continue
		}
		row := attribRow(program, walls[bi], walls[ii], shards[ii], catOf, cfg.Virtual, uint64(runs[ii]))
		t.Rows = append(t.Rows, row)
	}
	t.Render(cfg.Out)
	return t, nil
}

// attribRow splits one program's measured delta using the instrumented
// cell's counters.
func attribRow(program string, base, inst time.Duration, sh *obs.Shard, catOf map[string]string, virtual bool, runs uint64) AttribRow {
	row := AttribRow{Program: program, Base: base, Inst: inst}
	if base > 0 {
		row.Overhead = float64(inst) / float64(base)
	}

	var callsByCat, nsByCat [len(attribCategories)]uint64
	var totalCalls, totalNS uint64
	for k, v := range sh.Counts {
		rest, ok := strings.CutPrefix(k, "vm.hook.")
		if !ok {
			continue
		}
		if name, ok := strings.CutSuffix(rest, ".calls"); ok {
			ci := attribCatIndex(catOf[name])
			callsByCat[ci] += v
			totalCalls += v
		}
	}
	for k, v := range sh.Volatile {
		rest, ok := strings.CutPrefix(k, "vm.hook.")
		if !ok {
			continue
		}
		if name, ok := strings.CutSuffix(rest, ".ns"); ok {
			ci := attribCatIndex(catOf[name])
			nsByCat[ci] += v
			totalNS += v
		}
	}

	delta := inst - base
	if delta < 0 {
		delta = 0
	}
	switch {
	case virtual:
		// Exact: virtualWall charges 16 units per dispatched hook.
		row.Hook = time.Duration(16 * totalCalls)
		if totalCalls > 0 {
			for i := range row.Shares {
				row.Shares[i] = 100 * float64(callsByCat[i]) / float64(totalCalls)
			}
		}
	case totalNS > 0:
		row.Hook = time.Duration(totalNS / runs)
		for i := range row.Shares {
			row.Shares[i] = 100 * float64(nsByCat[i]) / float64(totalNS)
		}
	case totalCalls > 0:
		// Hook timing unavailable: attribute the whole delta to hooks,
		// split by call counts.
		row.Hook = delta
		for i := range row.Shares {
			row.Shares[i] = 100 * float64(callsByCat[i]) / float64(totalCalls)
		}
	}
	if row.Hook > delta {
		row.Hook = delta // wall-clock noise can make timed hooks exceed the delta
	}
	row.Dispatch = delta - row.Hook

	instSteps := sh.Counts["vm.steps"] / runs
	var gets, sets uint64
	for k, v := range sh.Counts {
		rest, ok := strings.CutPrefix(k, "meta.")
		if !ok {
			continue
		}
		switch rest[strings.LastIndexByte(rest, '.')+1:] {
		case "get":
			gets += v
		case "set":
			sets += v
		}
	}
	if instSteps > 0 {
		row.GetPerKStep = 1000 * float64(gets/runs) / float64(instSteps)
		row.SetPerKStep = 1000 * float64(sets/runs) / float64(instSteps)
	}
	return row
}

// Render writes the attribution table as fixed-width text.
func (t *AttribTable) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%-12s %12s %12s %9s %12s %12s", "program", "base", "inst", "overhead", "hooks", "dispatch")
	for _, c := range attribCategories {
		fmt.Fprintf(w, " %7s", c+"%")
	}
	fmt.Fprintf(w, " %8s %8s\n", "get/ks", "set/ks")
	for _, r := range t.Rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-12s %12s\n", r.Program, errCell(r.Err))
			continue
		}
		fmt.Fprintf(w, "%-12s %12s %12s %8.2fx %12s %12s",
			r.Program, r.Base, r.Inst, r.Overhead, r.Hook, r.Dispatch)
		for _, s := range r.Shares {
			fmt.Fprintf(w, " %6.1f%%", s)
		}
		fmt.Fprintf(w, " %8.1f %8.1f\n", r.GetPerKStep, r.SetPerKStep)
	}
	fmt.Fprintln(w)
}
