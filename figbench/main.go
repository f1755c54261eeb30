// Command figbench is the repository benchmark. It measures the paper's
// figure ratios — ALDA ÷ plain and ALDA ÷ a reference implementation —
// on four workloads, from one process and one goroutine, as paired runs
// whose order rotates from rep to rep. It checks every verdict and
// prints one JSON result line last.
//
//	figbench --workload msan --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it reports per-layer numbers instead: it alternates
// untraced and traced passes, records spans around every call into the
// system, writes them as Chrome trace_event JSON and validates the file.
// See README.md for the workloads and the layer → metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	// One P: the garbage collector then runs on the benchmark's own core
	// and is charged to the run that caused it, instead of competing for
	// a second core whose load the benchmark does not control. On a
	// shared 2-core VM this cut the run-to-run spread of overhead_p90 on
	// replay from 17% to 2%.
	runtime.GOMAXPROCS(1)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "figbench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	engine   vm.Engine
	size     workloads.Size
	outDir   string
}

const (
	// After the warm-up and after each pass, a run times set-ups from
	// scratch for at least 1/setupShare of that pass's time, and at least
	// minSetups of them. setup_s is the fastest of them. Most workloads
	// set up in a few milliseconds, and bursts of load from outside the
	// benchmark slow a varying share of a run's set-ups by half or more.
	// Over ten runs on a shared 2-core VM, the spread (IQR ÷ median) of
	// the runs' median set-up was 7–28%, and of their fastest 2–17%.
	setupShare = 10
	minSetups  = 3
	// minPasses is the fewest measured passes a run makes, however short
	// --seconds is, so every median has at least this many pairs.
	minPasses = 3
)

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("figbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var engine, size string
	fs.StringVar(&cfg.workload, "workload", "", "workload: msan, eraser, combined or replay")
	fs.Int64Var(&cfg.seed, "seed", 1, "VM scheduler seed; also rotates the order of the paired runs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measure for this many seconds (at least 3 passes)")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&engine, "engine", "interp", "VM engine: interp or threaded")
	fs.StringVar(&size, "size", "small", "workload size: tiny or small")
	fs.StringVar(&cfg.outDir, "out-dir", ".bench_build", "directory for the traced run's trace file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloadSetups[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.traced = trace == 1
	if cfg.seconds < 0 {
		return cfg, fmt.Errorf("--seconds must not be negative")
	}
	switch engine {
	case "interp":
		cfg.engine = vm.EngineInterp
	case "threaded":
		cfg.engine = vm.EngineThreaded
	default:
		return cfg, fmt.Errorf("unknown engine %q", engine)
	}
	// tiny is for the program-set test; the benchmark runs at small.
	switch size {
	case "tiny":
		cfg.size = workloads.SizeTiny
	case "small":
		cfg.size = workloads.SizeSmall
	default:
		return cfg, fmt.Errorf("unknown size %q", size)
	}
	return cfg, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	m, err := measure(cfg, rec, stderr)
	if err != nil {
		return err
	}
	m.printCells(stderr)
	m.printSetups(stderr)
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   m.endToEnd(),
	}
	if cfg.traced {
		res.Metrics = m.perLayer()
		if err := finishTrace(cfg, rec, stderr); err != nil {
			fmt.Fprintln(stderr, "figbench: trace check failed:", err)
			res.Correct = false
		}
	}
	fmt.Fprintf(stdout, "figbench workload=%s seed=%d engine=%s size=%s cells=%d passes=%d traced_passes=%d overhead_p90_samples=%d\n",
		cfg.workload, cfg.seed, cfg.engine, cfg.size, len(m.cells), m.passes[0], m.passes[1], m.p90Samples())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// finishTrace checks the span tree, writes it as Chrome trace_event JSON
// and validates the written file.
func finishTrace(cfg config, rec *recorder, stderr io.Writer) error {
	if err := rec.checkSelfTimes(); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("figbench-%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := rec.writeChrome(path); err != nil {
		return err
	}
	n, err := obs.ValidateTraceFile(path)
	if err != nil {
		return err
	}
	if n != len(rec.spans) {
		return fmt.Errorf("trace file holds %d events, %d spans recorded", n, len(rec.spans))
	}
	fmt.Fprintf(stderr, "figbench: wrote %d spans to %s\n", n, path)
	return nil
}
