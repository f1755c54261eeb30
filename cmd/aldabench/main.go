// Command aldabench regenerates the paper's evaluation (§6): Figure 3
// (MSan vs hand-tuned MSan), Figure 4 (Eraser vs hand-tuned and the
// ds-only ablation), Figure 5 (combined analyses), Table 3 (MSan error
// validation), Table 4 (analysis line counts), the §6.4.1 library
// sanitizer runs, and a finer optimization ablation.
//
// Usage:
//
//	aldabench -exp all -size small -reps 3
//	aldabench -exp fig4 -size medium
//	aldabench -exp fig3 -parallel 8            # fan cells out over 8 workers
//	aldabench -exp fig4 -parallel 8 -virtual   # deterministic virtual timing
//	aldabench -exp all -checkpoint sweep.jsonl # stream completed cells to JSONL
//	aldabench -exp all -checkpoint sweep.jsonl -resume   # continue a killed sweep
//	aldabench -exp fig4 -virtual -fault-seed 20          # inject a deterministic fault (exits 1)
//	aldabench -exp replay -trace-out traces/   # record plain traces, replay per analysis
//	aldabench -exp replay -trace-in traces/    # reuse previously recorded traces
//	aldabench -exp fig4 -virtual -metrics-out m.prom     # Prometheus text exposition
//	aldabench -prom-validate m.prom                      # strict exposition check
//
// Each workload's row of cells is measured as paired rounds: a cell's
// overhead is the median of its per-round ratios to the plain run.
// Rows are independent; -parallel N fans them out over N worker
// goroutines (0 = GOMAXPROCS). Tables are assembled in a fixed cell
// order, so output layout does not depend on parallelism; with
// -virtual the numbers are deterministic too and the tables are
// byte-identical at any -parallel value. Per-cell progress/timing
// lines go to stderr; suppress with -quiet. scripts/ab.sh drives
// -bench-json and -compare.
//
// Fault tolerance: each cell runs crash-isolated — a VM trap, resource
// budget overrun (-cell-timeout, -max-heap) or injected fault degrades
// that one cell to an ERR(<kind>) table entry (error taxonomy: Trap,
// StepLimit, HeapLimit, Deadline, LibFault) while every other cell
// still runs. A Deadline failure — the only load-dependent kind — runs
// again once, after a wait of 50 to 100 ms. Every requested experiment
// runs, and -metrics-out and -trace are written, but a sweep in which
// any experiment failed (a degraded cell included) exits 1.
// -checkpoint streams completed cells to a JSONL file and -resume
// replays them, so an interrupted sweep picks up where it was killed;
// under -virtual the resumed tables are byte-identical to an
// uninterrupted run.
//
// Fault injection (-fault-seed) applies one deterministic fault plan to
// every run — the harness hardening testbed. The plain runs that record
// replay traces run without it, since the traces outlive the sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/vm/faults"
	"repro/internal/workloads"
)

// gitRev returns the short HEAD revision for BENCH_<rev>.json naming,
// or "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// runBench handles -bench-json, measuring the hot-path suite (or the
// benches named) into BENCH_<rev>.json, and -compare BASE,CHANGE,
// which pairs two directories of rounds and gates them. It exits the
// process.
func runBench(benchtime time.Duration, names []string, compare string) {
	err := func() error {
		if compare != "" {
			base, change, ok := strings.Cut(compare, ",")
			if !ok {
				return fmt.Errorf("-compare wants BASE,CHANGE")
			}
			return perf.CompareDirs(os.Stdout, base, change)
		}
		f, err := perf.RunSuite(benchtime, names...)
		if err != nil {
			return err
		}
		f.Rev = gitRev()
		path := fmt.Sprintf("BENCH_%s.json", f.Rev)
		fmt.Fprintf(os.Stderr, "bench: writing %s (%d benches, benchtime %v)\n", path, len(f.Benches), benchtime)
		return perf.WriteFile(path, f)
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAIL: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// experiments are the -exp choices, in the order -exp all runs them.
var experiments = []struct {
	name string
	run  func(harness.Config) error
}{
	{"table4", func(c harness.Config) error { _, err := harness.Table4(c); return err }},
	{"table3", func(c harness.Config) error { _, err := harness.Table3(c); return err }},
	{"libsan", func(c harness.Config) error { _, err := harness.LibSan(c); return err }},
	{"fig3", func(c harness.Config) error { _, err := harness.Fig3(c); return err }},
	{"fig4", func(c harness.Config) error { _, err := harness.Fig4(c); return err }},
	{"fig5", func(c harness.Config) error { _, err := harness.Fig5(c); return err }},
	{"ablate", func(c harness.Config) error { _, err := harness.Ablate(c); return err }},
	{"pgo", func(c harness.Config) error { _, err := harness.PGO(c); return err }},
	{"mem", func(c harness.Config) error { _, err := harness.Mem(c); return err }},
	{"gran", func(c harness.Config) error { _, err := harness.Granularity(c); return err }},
	{"replay", func(c harness.Config) error {
		if c.TraceDir == "" {
			return nil // -exp all without a trace dir skips the replay grid
		}
		_, err := harness.Replay(c)
		return err
	}},
}

// knownExperiment reports whether name is a value -exp accepts: one
// experiment's exact name, or "all".
func knownExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, e := range experiments {
		if e.name == name {
			return true
		}
	}
	return false
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig3|fig4|fig5|table3|table4|libsan|ablate|pgo|mem|gran|replay|all")
	sizeFlag := flag.String("size", "small", "workload size: tiny|small|medium|large")
	reps := flag.Int("reps", 3, "paired rounds per workload; a cell's overhead is the median of its per-round ratios (one warm-up run is added; workloads too short to time run more rounds)")
	seed := flag.Int64("seed", 1, "deterministic scheduler seed")
	parallel := flag.Int("parallel", 0, "workload-row worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	virtual := flag.Bool("virtual", false, "deterministic virtual timing (steps+hooks) instead of wall-clock")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	checkpoint := flag.String("checkpoint", "", "JSONL file streaming completed cells (enables -resume)")
	resume := flag.Bool("resume", false, "replay completed cells from -checkpoint instead of re-measuring them")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-run VM deadline (0 = none); overruns degrade as ERR(Deadline)")
	maxHeap := flag.Uint64("max-heap", 0, "per-run simulated-heap budget in bytes (0 = none); overruns degrade as ERR(HeapLimit)")
	faultSeed := flag.Int64("fault-seed", 0, "derive a deterministic fault plan (malloc-fail / handler-panic / sched-perturb) from this seed and apply it to every run (0 = none)")
	benchJSON := flag.Bool("bench-json", false, "run the BenchHotPath micro-suite, or the benches named as arguments, and write BENCH_<rev>.json")
	benchTime := flag.Duration("benchtime", 100*time.Millisecond, "per-bench time budget for -bench-json (0 = single-batch smoke)")
	compare := flag.String("compare", "", "BASE,CHANGE: pair two directories of rounds, one subdirectory per round (scripts/ab.sh writes them), print each metric's medians, quartiles, win count and median paired ratio, and fail when a micro bench or their geomean is slower in 9 of 10 rounds by more than 15%")
	metricsOut := flag.String("metrics-out", "", "write the sweep's observability counters to this file; a .prom extension selects the Prometheus text exposition, anything else JSON (both deterministic under -virtual)")
	promValidate := flag.String("prom-validate", "", "strictly validate a Prometheus text exposition file and exit (0 = valid)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load in Perfetto / chrome://tracing)")
	attrib := flag.String("attrib", "", "run the overhead-attribution report for this staged variant (an analysis such as uaf or msan, or e.g. eraser/dsonly) instead of -exp")
	attribPrograms := flag.String("attrib-programs", "", "comma-separated workloads for -attrib (default: a representative set)")
	traceOut := flag.String("trace-out", "", "directory for recorded replay traces; missing workload traces are recorded there (enables -exp replay)")
	traceIn := flag.String("trace-in", "", "directory of previously recorded replay traces; a missing trace is an error (enables -exp replay)")
	flag.Parse()

	if !knownExperiment(*exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *promValidate != "" {
		n, err := obs.ValidatePromFile(*promValidate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prom-validate: %s: %v\n", *promValidate, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "prom-validate: %s ok (%d samples)\n", *promValidate, n)
		os.Exit(0)
	}

	if *benchJSON || *compare != "" {
		runBench(*benchTime, flag.Args(), *compare)
	}

	size, err := workloads.ParseSize(*sizeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := harness.Config{
		Size:           size,
		Reps:           *reps,
		Out:            os.Stdout,
		Parallelism:    *parallel,
		Virtual:        *virtual,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	cfg.Opt.Seed = *seed
	cfg.Opt.Deadline = *cellTimeout
	cfg.Opt.MaxHeapBytes = *maxHeap

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		os.Exit(2)
	}
	if *traceOut != "" && *traceIn != "" {
		fmt.Fprintln(os.Stderr, "-trace-out and -trace-in are mutually exclusive")
		os.Exit(2)
	}
	cfg.TraceDir = *traceIn
	if *traceOut != "" {
		cfg.TraceDir = *traceOut
		cfg.TraceRecord = true
	}
	if *exp == "replay" && cfg.TraceDir == "" {
		fmt.Fprintln(os.Stderr, "-exp replay needs -trace-out (record) or -trace-in (reuse)")
		os.Exit(2)
	}

	// The -metrics-out file extension picks the format.
	metricsPath := *metricsOut
	var reg *obs.Registry
	if metricsPath != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	var trace *obs.Trace
	if *tracePath != "" {
		var err error
		trace, err = obs.CreateTrace(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		compiler.SetTraceSink(trace)
		cfg.Trace = trace
	}
	finishObs := func() {
		if trace != nil {
			compiler.SetTraceSink(nil)
			if err := trace.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
			n, err := obs.ValidateTraceFile(*tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: invalid trace written: %v\n", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "trace: wrote %s (%d events, validated)\n", *tracePath, n)
			}
		}
		if reg != nil {
			hits, misses, evictions := compiler.CompileCacheStats()
			reg.AddVolatile("compiler.cache.hits", hits)
			reg.AddVolatile("compiler.cache.misses", misses)
			reg.AddVolatile("compiler.cache.evictions", evictions)
			f, err := os.Create(metricsPath)
			if err == nil {
				// Volatile counters (cell wall ns, cache hits, retries) are
				// host-dependent; keep the -virtual export golden-pinnable.
				if strings.HasSuffix(metricsPath, ".prom") {
					err = reg.WriteProm(f, !*virtual)
				} else {
					err = reg.WriteJSON(f, !*virtual)
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "metrics-out: wrote %s\n", metricsPath)
			}
		}
	}

	if *faultSeed != 0 {
		plan := faults.FromSeed(*faultSeed)
		cfg.Opt.Faults = plan.Spec()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "fault plan: seed=%d mode=%s nth=%d\n", plan.Seed, plan.Mode, plan.Nth)
		}
	}

	// Every requested experiment runs to the end, and the observability
	// files are written, whatever fails; any failure makes the exit
	// status 1.
	failed := false
	if *attrib != "" {
		var programs []string
		if *attribPrograms != "" {
			programs = strings.Split(*attribPrograms, ",")
		}
		if _, err := harness.Attrib(cfg, *attrib, programs); err != nil {
			fmt.Fprintf(os.Stderr, "attrib: %v\n", err)
			failed = true
		}
	} else {
		for _, e := range experiments {
			if *exp != "all" && *exp != e.name {
				continue
			}
			if err := e.run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				failed = true
			}
		}
	}
	finishObs()
	if failed {
		os.Exit(1)
	}
}
