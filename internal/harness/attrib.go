package harness

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"time"

	"repro/internal/analyses"
)

// Overhead attribution: instead of reporting one opaque overhead factor
// per workload (Figure 4's view), split each cell's instrumented-minus
// -baseline time into where it went — hook dispatch by event category,
// and residual dispatch/bookkeeping — plus the container traffic the
// hooks generated. The split is built from counters every run keeps,
// so nothing inside a run reads the clock: the residual charges the
// instructions instrumentation inserted at the plain run's cost per
// instruction, and the hooks get the rest of the delta. Under -virtual
// a plain instruction costs one unit (vm.Result.Virtual), so the
// residual is exactly the inserted instructions and the hooks exactly
// their fixed per-dispatch charge.

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
// attributes the overhead. Rows fan out across Config.Parallelism like
// any grid's, and each row's two cells run as paired rounds; with
// Config.Metrics set the per-cell counters also merge into the
// registry, and virtual-mode tables are deterministic. Like a grid's,
// the error is the lowest-indexed failed cell's, returned with the
// complete table.
func Attrib(cfg Config, analysis string, programs []string) (*AttribTable, error) {
	cfg = cfg.withDefaults()
	if len(programs) == 0 {
		programs = DefaultAttribPrograms()
	}
	a, err := analyses.Variant(analysis)
	if err != nil {
		return nil, err
	}
	catOf := make(map[string]string)
	names := a.HandlerNames()
	for i, c := range a.HookCategories() {
		catOf[names[i]] = c
	}

	// The split reads every cell's counters, which a checkpoint keeps
	// only for metrics sweeps, so attribution always measures afresh.
	cfg.CheckpointPath, cfg.Resume = "", false
	g, err := gridSpec{name: "attrib", programs: programs}.measure(column{name: "inst", variant: analysis})
	if err != nil {
		return nil, err
	}
	cells, err := cfg.sweep(&g)

	mode := "wall"
	if cfg.Virtual {
		mode = "virtual"
	}
	t := &AttribTable{
		Title:   fmt.Sprintf("Overhead attribution: %s (size=%s, %s)", analysis, cfg.Size, mode),
		Virtual: cfg.Virtual,
	}
	for pi, program := range programs {
		plain, inst := cells[pi*2], cells[pi*2+1]
		if e := cmp.Or(plain.err, inst.err); e != nil {
			t.Rows = append(t.Rows, AttribRow{Program: program, Err: errKindLabel(e)})
			continue
		}
		t.Rows = append(t.Rows, attribRow(program, plain, inst, catOf))
	}
	t.Render(cfg.Out)
	return t, err
}

// mulDiv returns a·b÷c rounded down, exact in 128-bit arithmetic and
// saturating at the uint64 maximum. c must be non-zero.
func mulDiv(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi >= c {
		return math.MaxUint64
	}
	q, _ := bits.Div64(hi, lo, c)
	return q
}

// attribRow splits one program's measured delta. The dispatch residual
// is the instructions instrumentation inserted, each charged the plain
// run's time per instruction; the hooks take the rest of the delta, and
// their category shares are weighted by dispatch counts.
func attribRow(program string, plain, inst cellResult, catOf map[string]string) AttribRow {
	row := AttribRow{Program: program, Base: plain.wall, Inst: inst.wall, Overhead: inst.overhead}

	var callsByCat [len(attribCategories)]uint64
	var totalCalls uint64
	for k, v := range inst.shard.Counts {
		rest, ok := strings.CutPrefix(k, "vm.hook.")
		if !ok {
			continue
		}
		if name, ok := strings.CutSuffix(rest, ".calls"); ok {
			callsByCat[attribCatIndex(catOf[name])] += v
			totalCalls += v
		}
	}
	if totalCalls > 0 {
		for i := range row.Shares {
			row.Shares[i] = 100 * float64(callsByCat[i]) / float64(totalCalls)
		}
	}

	delta := max(inst.wall-plain.wall, 0)
	plainSteps, instSteps := plain.steps(), inst.steps()
	if plainSteps > 0 && instSteps > plainSteps {
		residual := mulDiv(instSteps-plainSteps, uint64(plain.wall), plainSteps)
		row.Dispatch = time.Duration(min(residual, uint64(delta)))
	}
	row.Hook = delta - row.Dispatch

	var gets, sets uint64
	for k, v := range inst.shard.Counts {
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
		row.GetPerKStep = 1000 * float64(gets/inst.runs) / float64(instSteps)
		row.SetPerKStep = 1000 * float64(sets/inst.runs) / float64(instSteps)
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
