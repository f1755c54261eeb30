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
//	aldabench -exp fig4 -virtual -fault-seed 20          # inject a deterministic fault
//	aldabench -exp replay -trace-out traces/   # record plain traces, replay per analysis
//	aldabench -exp replay -trace-in traces/    # reuse previously recorded traces
//	aldabench -exp fig4 -virtual -metrics-out m.prom     # Prometheus text exposition
//	aldabench -prom-validate m.prom                      # strict exposition check
//
// Measurement cells (one workload × one configuration) are independent;
// -parallel N fans them out over N worker goroutines (0 = GOMAXPROCS).
// Tables are assembled in a fixed cell order, so output layout does not
// depend on parallelism; with -virtual the numbers are deterministic
// too and the tables are byte-identical at any -parallel value.
// Per-cell progress/timing lines go to stderr; suppress with -quiet.
//
// Fault tolerance: each cell runs crash-isolated — a VM trap, resource
// budget overrun (-cell-timeout, -max-heap) or injected fault degrades
// that one cell to an ERR(<kind>) table entry (error taxonomy: Trap,
// StepLimit, HeapLimit, Deadline, LibFault) while the rest of the sweep
// completes (-keep-going, on by default). Deadline failures — the only
// load-dependent kind — are retried with exponential backoff up to
// -retries times. -checkpoint streams completed cells to a JSONL file
// and -resume replays them, so an interrupted sweep picks up where it
// was killed; under -virtual the resumed tables are byte-identical to
// an uninterrupted run.
//
// Fault injection (-fault-seed, or the explicit -fault-malloc-nth,
// -fault-panic-nth, -fault-sched-perturb) applies one deterministic
// fault plan to every cell — the harness hardening testbed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/vm"
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

// runBench handles the -bench-json / -benchgate modes: measure the
// BenchHotPath suite, then emit BENCH_<rev>.json and/or gate against a
// baseline file. Exits the process.
func runBench(emitJSON bool, gate bool, baseline string, benchtime time.Duration, threshold float64) {
	fmt.Fprintf(os.Stderr, "bench: running hot-path suite (benchtime %v)\n", benchtime)
	f := perf.RunSuite(benchtime)
	f.Rev = gitRev()
	if emitJSON {
		path := fmt.Sprintf("BENCH_%s.json", f.Rev)
		if err := perf.WriteFile(path, f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s (%d benches)\n", path, len(f.Benches))
		if s, err := perf.SpeedupVsRef(f); err == nil {
			fmt.Fprintf(os.Stderr, "bench: flat-arena vs map-backed hash Get/Set geomean speedup: %.2fx\n", s)
		}
		if per, g, err := perf.EngineSpeedups(f); err == nil {
			for _, p := range []string{"dispatch/uaf", "dispatch/msan", "dispatch/eraser", "dispatch/uaf/arith"} {
				if s, ok := per[p]; ok {
					fmt.Fprintf(os.Stderr, "bench: threaded-tier speedup %-20s %.2fx\n", p, s)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: threaded-tier dispatch geomean speedup: %.2fx\n", g)
		}
	}
	if gate {
		base, err := perf.ReadFile(baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		if err := perf.Gate(base, f, threshold); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(0)
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig3|fig4|fig5|table3|table4|libsan|ablate|pgo|adapt|mem|gran|replay|all")
	sizeFlag := flag.String("size", "small", "workload size: tiny|small|medium|large")
	reps := flag.Int("reps", 3, "measured repetitions per configuration (one warm-up run is added; configurations too short to time run more)")
	seed := flag.Int64("seed", 1, "deterministic scheduler seed")
	engineFlag := flag.String("engine", "interp", "VM execution tier: interp|threaded (observably identical; threaded pays less per dispatch)")
	parallel := flag.Int("parallel", 0, "measurement-cell worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	virtual := flag.Bool("virtual", false, "deterministic virtual timing (steps+hooks) instead of wall-clock")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines on stderr")
	keepGoing := flag.Bool("keep-going", true, "degrade failed cells to ERR(<kind>) entries instead of aborting the sweep")
	retries := flag.Int("retries", 1, "extra attempts for retryable (Deadline) cell failures")
	checkpoint := flag.String("checkpoint", "", "JSONL file streaming completed cells (enables -resume)")
	resume := flag.Bool("resume", false, "replay completed cells from -checkpoint instead of re-measuring them")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-run VM deadline (0 = none); overruns degrade as ERR(Deadline)")
	maxHeap := flag.Uint64("max-heap", 0, "per-run simulated-heap budget in bytes (0 = none); overruns degrade as ERR(HeapLimit)")
	faultSeed := flag.Int64("fault-seed", 0, "derive a deterministic fault plan (malloc-fail / handler-panic / sched-perturb) from this seed (0 = none)")
	faultMallocNth := flag.Uint64("fault-malloc-nth", 0, "make the nth simulated allocation return NULL (0 = off)")
	faultPanicNth := flag.Uint64("fault-panic-nth", 0, "panic at the nth analysis hook dispatch (0 = off)")
	faultSchedPerturb := flag.Uint64("fault-sched-perturb", 0, "perturb the deterministic scheduler seed (0 = off)")
	benchJSON := flag.Bool("bench-json", false, "run the BenchHotPath micro-suite and write BENCH_<rev>.json")
	benchGate := flag.Bool("benchgate", false, "run the BenchHotPath micro-suite and fail on geomean regression vs -bench-baseline")
	benchBaseline := flag.String("bench-baseline", "BENCH_baseline.json", "baseline file for -benchgate")
	benchTime := flag.Duration("benchtime", 100*time.Millisecond, "per-bench time budget for -bench-json/-benchgate (0 = single-batch smoke)")
	benchThreshold := flag.Float64("bench-threshold", perf.GateThreshold, "geomean regression ratio failing -benchgate")
	metricsJSON := flag.String("metrics-json", "", "write the sweep's observability counters to this JSON file (deterministic under -virtual)")
	metricsOut := flag.String("metrics-out", "", "write the sweep's observability counters to this file; a .prom extension selects the Prometheus text exposition, anything else JSON (both deterministic under -virtual)")
	promValidate := flag.String("prom-validate", "", "strictly validate a Prometheus text exposition file and exit (0 = valid)")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load in Perfetto / chrome://tracing)")
	attrib := flag.String("attrib", "", "run the overhead-attribution report for this analysis (e.g. uaf, msan) instead of -exp")
	attribPrograms := flag.String("attrib-programs", "", "comma-separated workloads for -attrib (default: a representative set)")
	adapt := flag.Bool("adapt", false, "enable the adaptive hot swap in -exp adapt (off = no-swap control: the adaptive column stays static)")
	adaptAfter := flag.Int("adapt-after", 1, "profiling-quantum length for -exp adapt, in programs")
	profileOut := flag.String("profile-out", "", "collect a per-member access profile (train run) and write it to this file, then exit")
	profileIn := flag.String("profile-in", "", "load a profile written by -profile-out; the pgo experiment uses it instead of training inline")
	profileAnalysis := flag.String("profile-analysis", "msan", "analysis -profile-out trains")
	profileTrain := flag.String("profile-train", "libquantum", "workload -profile-out trains on (at size tiny, matching the pgo experiment)")
	traceOut := flag.String("trace-out", "", "directory for recorded replay traces; missing workload traces are recorded there (enables -exp replay)")
	traceIn := flag.String("trace-in", "", "directory of previously recorded replay traces; a missing trace is an error (enables -exp replay)")
	flag.Parse()

	if *promValidate != "" {
		n, err := obs.ValidatePromFile(*promValidate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prom-validate: %s: %v\n", *promValidate, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "prom-validate: %s ok (%d samples)\n", *promValidate, n)
		os.Exit(0)
	}

	if *benchJSON || *benchGate {
		runBench(*benchJSON, *benchGate, *benchBaseline, *benchTime, *benchThreshold)
	}

	var size workloads.Size
	switch *sizeFlag {
	case "tiny":
		size = workloads.SizeTiny
	case "small":
		size = workloads.SizeSmall
	case "medium":
		size = workloads.SizeMedium
	case "large":
		size = workloads.SizeLarge
	default:
		fmt.Fprintf(os.Stderr, "unknown size %q\n", *sizeFlag)
		os.Exit(2)
	}

	cfg := harness.Config{
		Size:           size,
		Reps:           *reps,
		Out:            os.Stdout,
		Parallelism:    *parallel,
		Virtual:        *virtual,
		KeepGoing:      *keepGoing,
		Retries:        *retries,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		Adapt:          *adapt,
		AdaptAfter:     *adaptAfter,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	eng, err := vm.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	cfg.Engine = eng
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

	if *profileOut != "" {
		a, err := analyses.Compile(*profileAnalysis, compiler.DefaultOptions())
		if err == nil {
			var prog *mir.Program
			if prog, err = workloads.Build(*profileTrain, workloads.SizeTiny); err == nil {
				var p *compiler.Profile
				if p, err = core.CollectProfile(a, prog, cfg.Opt); err == nil {
					err = p.WriteFile(*profileOut)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "profile-out: wrote %s (%s trained on %s/tiny)\n", *profileOut, *profileAnalysis, *profileTrain)
		os.Exit(0)
	}
	if *profileIn != "" {
		p, err := compiler.ReadProfileFile(*profileIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile-in: %v\n", err)
			os.Exit(1)
		}
		cfg.PGOProfile = p
	}

	// -metrics-out supersedes -metrics-json (kept as an alias); the file
	// extension picks the format.
	metricsPath := *metricsOut
	if metricsPath == "" {
		metricsPath = *metricsJSON
	}
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
				// Volatile counters (hook ns, cache hits, retries) are
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

	spec := vm.FaultSpec{
		MallocFailNth:   *faultMallocNth,
		HandlerPanicNth: *faultPanicNth,
		SchedPerturb:    *faultSchedPerturb,
	}
	if *faultSeed != 0 {
		plan := faults.FromSeed(*faultSeed)
		spec = plan.Spec()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "fault plan: seed=%d mode=%s nth=%d\n", plan.Seed, plan.Mode, plan.Nth)
		}
	}
	if !spec.Zero() {
		cfg.CellFaults = func(program, column string) vm.FaultSpec { return spec }
	}

	if *attrib != "" {
		var programs []string
		if *attribPrograms != "" {
			programs = strings.Split(*attribPrograms, ",")
		}
		if _, err := harness.Attrib(cfg, *attrib, programs); err != nil {
			fmt.Fprintf(os.Stderr, "attrib: %v\n", err)
			os.Exit(1)
		}
		finishObs()
		return
	}

	run := func(name string, fn func(harness.Config) error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table4", func(c harness.Config) error { _, err := harness.Table4(c); return err })
	run("table3", func(c harness.Config) error { _, err := harness.Table3(c); return err })
	run("libsan", func(c harness.Config) error { _, err := harness.LibSan(c); return err })
	run("fig3", func(c harness.Config) error { _, err := harness.Fig3(c); return err })
	run("fig4", func(c harness.Config) error { _, err := harness.Fig4(c); return err })
	run("fig5", func(c harness.Config) error { _, err := harness.Fig5(c); return err })
	run("ablate", func(c harness.Config) error { _, err := harness.Ablate(c); return err })
	run("pgo", func(c harness.Config) error { _, err := harness.PGO(c); return err })
	run("adapt", func(c harness.Config) error { _, err := harness.Adapt(c); return err })
	run("mem", func(c harness.Config) error { _, err := harness.Mem(c); return err })
	run("gran", func(c harness.Config) error { _, err := harness.Granularity(c); return err })
	run("replay", func(c harness.Config) error {
		if c.TraceDir == "" {
			return nil // -exp all without a trace dir skips the replay grid
		}
		_, err := harness.Replay(c)
		return err
	})

	if !strings.Contains("fig3 fig4 fig5 table3 table4 libsan ablate pgo adapt mem gran replay all", *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	finishObs()
}
