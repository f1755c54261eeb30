// Analysis-level engine differentials: the closure-threaded tier must
// be observably identical to the interpreter not just on the vm
// package's micro-programs but across the full stack — real compiled
// ALDA analyses, every shipped workload generator, the planted-bug
// variants the paper validates against, deterministic fault injection,
// and resource-budget trips. This file is package vm_test because it
// drives the tiers through internal/analyses and internal/core, which
// the vm package itself must not import.
package vm_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/vm/faults"
	"repro/internal/workloads"
)

// diffOutcome is everything a run must reproduce byte-identically
// across execution tiers: the deterministic result fields on success,
// the RunError kind (and message — trips are deterministic too) on
// failure.
type diffOutcome struct {
	steps, hooks uint64
	exit         uint64
	reports      string
	errKind      string
	errMsg       string
}

func (o diffOutcome) String() string {
	if o.errKind != "" {
		return fmt.Sprintf("ERR(%s): %s", o.errKind, o.errMsg)
	}
	return fmt.Sprintf("steps=%d hooks=%d exit=%d reports:\n%s", o.steps, o.hooks, o.exit, o.reports)
}

func outcomeOf(res *vm.Result, err error) (diffOutcome, error) {
	var o diffOutcome
	if err != nil {
		var re *vm.RunError
		if !errors.As(err, &re) {
			return o, err
		}
		o.errKind = re.Kind.String()
		o.errMsg = re.Msg
		return o, nil
	}
	o.steps = res.Steps
	o.hooks = res.HookCalls
	o.exit = res.Exit
	o.reports = vm.FormatReports(res.Reports)
	return o, nil
}

// compileCached compiles an analysis once per test binary (the
// process-wide compile cache memoizes by options fingerprint).
func compileCached(t *testing.T, name string) *compiler.Analysis {
	t.Helper()
	a, err := analyses.Compile(name, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return a
}

func engines() [2]vm.Engine { return [2]vm.Engine{vm.EngineInterp, vm.EngineThreaded} }

// TestParseEngine: the CLI and job-option spellings of the tiers.
// Replay is an input source of the interpreter (Config.Replay), not a
// tier, so "replay" is rejected like any other unknown name.
func TestParseEngine(t *testing.T) {
	for _, c := range []struct {
		in   string
		want vm.Engine
		ok   bool
	}{
		{"", vm.EngineInterp, true},
		{"interp", vm.EngineInterp, true},
		{"threaded", vm.EngineThreaded, true},
		{"replay", 0, false},
		{"Interp", 0, false},
		{"quantum", 0, false},
	} {
		got, err := vm.ParseEngine(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// diffAnalysis is the core differential: build the workload once, run
// it under the analysis with each engine, compare.
func diffAnalysis(t *testing.T, analysis, workload string, bug workloads.Bug, opt core.RunOptions) diffOutcome {
	t.Helper()
	a := compileCached(t, analysis)
	prog, err := workloads.BuildBug(workload, workloads.SizeTiny, bug)
	if err != nil {
		t.Fatalf("build %s(%s): %v", workload, bug, err)
	}
	var got [2]diffOutcome
	for i, eng := range engines() {
		o := opt
		o.Engine = eng
		res, rerr := core.RunAnalysis(prog, a, o)
		out, ierr := outcomeOf(res, rerr)
		if ierr != nil {
			t.Fatalf("%s/%s/%s: %v", workload, bug, eng, ierr)
		}
		got[i] = out
	}
	if got[0] != got[1] {
		t.Errorf("%s under %s: engines disagree\n--- interp:\n%s\n--- threaded:\n%s",
			workload, analysis, got[0], got[1])
	}
	return got[0]
}

// TestEngineDiffWorkloads sweeps every shipped workload generator at
// size tiny under a per-access analysis: retired steps, hook
// dispatches, exit values and reports must match between tiers.
func TestEngineDiffWorkloads(t *testing.T) {
	opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffAnalysis(t, "uaf", name, workloads.BugNone, opt)
		})
	}
}

// TestEngineDiffPlantedBugs pairs each planted defect with the analysis
// that detects it: both tiers must produce the identical (non-empty)
// report set.
func TestEngineDiffPlantedBugs(t *testing.T) {
	opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20}
	cases := []struct {
		analysis, workload string
		bug                workloads.Bug
	}{
		{"uaf", "memcached", workloads.BugUAF},
		{"msan", "gcc", workloads.BugUninit},
		{"msan", "ocean", workloads.BugUninit},
		{"msan", "volrend", workloads.BugUninit},
		{"tainttrack", "ffmpeg", workloads.BugTaint},
		{"sslsan", "memcached", workloads.BugSSLLeak},
		{"sslsan", "memcached", workloads.BugSSLShutdown},
		{"sslsan", "nginx", workloads.BugSSLShutdown},
		{"zlibsan", "ffmpeg", workloads.BugZlibUninit},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+c.bug.String()+"/"+c.analysis, func(t *testing.T) {
			t.Parallel()
			o := diffAnalysis(t, c.analysis, c.workload, c.bug, opt)
			if o.errKind == "" && o.reports == "" {
				t.Errorf("planted %s in %s: no reports from %s under either engine", c.bug, c.workload, c.analysis)
			}
		})
	}
}

// TestEngineDiffFaultSeeds replays the deterministic fault plans of
// seeds 1, 20 and 23 (malloc failure, handler panic, scheduler
// perturbation — one of each mode) under both tiers: a fault that
// degrades the interp run to ERR(kind) must degrade the threaded run to
// the same kind at the same point.
func TestEngineDiffFaultSeeds(t *testing.T) {
	for _, seed := range []int64{1, 20, 23} {
		seed := seed
		plan := faults.FromSeed(seed)
		t.Run(fmt.Sprintf("seed-%d-%s", seed, plan.Mode), func(t *testing.T) {
			t.Parallel()
			opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, Faults: plan.Spec()}
			diffAnalysis(t, "uaf", "memcached", workloads.BugNone, opt)
			diffAnalysis(t, "eraser", "radiosity", workloads.BugNone, opt)
		})
	}
}

// TestEngineDiffBudgetTrips forces resource-budget failures: the
// degraded ERR(kind) cells the harness renders must match across
// engines — heap and step trips deterministically (same kind, same
// message), the wall-clock deadline by kind.
func TestEngineDiffBudgetTrips(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, MaxHeapBytes: 1 << 8}
		o := diffAnalysis(t, "uaf", "memcached", workloads.BugNone, opt)
		if o.errKind != vm.KindHeapLimit.String() {
			t.Errorf("heap budget: got %q, want ERR(%s)", o.errKind, vm.KindHeapLimit)
		}
	})
	t.Run("steps", func(t *testing.T) {
		opt := core.RunOptions{Seed: 1, MaxSteps: 1 << 10}
		o := diffAnalysis(t, "uaf", "memcached", workloads.BugNone, opt)
		if o.errKind != vm.KindStepLimit.String() {
			t.Errorf("step budget: got %q, want ERR(%s)", o.errKind, vm.KindStepLimit)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		a := compileCached(t, "uaf")
		prog, err := workloads.Build("memcached", workloads.SizeTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range engines() {
			opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, Deadline: time.Nanosecond, Engine: eng}
			_, rerr := core.RunAnalysis(prog, a, opt)
			var re *vm.RunError
			if !errors.As(rerr, &re) || re.Kind != vm.KindDeadline {
				t.Errorf("%s: 1ns deadline: got %v, want ERR(%s)", eng, rerr, vm.KindDeadline)
			}
		}
	})
}

// TestThreadedConcurrentCells is the -race proof for the threaded
// tier's sharing model: one cached threaded-engine analysis (shared,
// immutable after compile) feeds 8 concurrent measurement cells, each
// with its own instrumented program, runtime and machine — the shape of
// a parallel harness sweep. Every cell must produce the identical
// outcome, and the race detector must stay quiet.
func TestThreadedConcurrentCells(t *testing.T) {
	a, err := analyses.Compile("uaf", compiler.DefaultOptions().WithEngine(vm.EngineThreaded))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workloads.Build("memcached", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 8
	outs := make([]diffOutcome, cells)
	errs := make([]error, cells)
	done := make(chan int, cells)
	for i := 0; i < cells; i++ {
		go func(i int) {
			defer func() { done <- i }()
			res, rerr := core.RunAnalysis(prog, a, core.RunOptions{Seed: 1, MaxSteps: 64 << 20})
			outs[i], errs[i] = outcomeOf(res, rerr)
		}(i)
	}
	for i := 0; i < cells; i++ {
		<-done
	}
	for i := 0; i < cells; i++ {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		if outs[i] != outs[0] {
			t.Errorf("cell %d disagrees with cell 0:\n--- cell %d:\n%s\n--- cell 0:\n%s", i, i, outs[i], outs[0])
		}
	}
}
