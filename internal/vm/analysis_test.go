// Analysis-level interpreter tests: the machine runs real compiled
// ALDA analyses across every shipped workload generator, the
// planted-bug variants the paper validates against, deterministic
// fault injection and resource-budget trips. This file is package
// vm_test because it drives the machine through internal/analyses and
// internal/core, which the vm package itself must not import.
//
// The TestEngineDiff* names date from when these tests compared the
// interpreter with a second execution tier; each now checks the
// interpreter alone.
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

// outcome is a run's deterministic summary: the result fields on
// success, the RunError kind and message on failure.
type outcome struct {
	steps, hooks uint64
	exit         uint64
	reports      string
	errKind      string
	errMsg       string
}

func (o outcome) String() string {
	if o.errKind != "" {
		return fmt.Sprintf("ERR(%s): %s", o.errKind, o.errMsg)
	}
	return fmt.Sprintf("steps=%d hooks=%d exit=%d reports:\n%s", o.steps, o.hooks, o.exit, o.reports)
}

func outcomeOf(res *vm.Result, err error) (outcome, error) {
	var o outcome
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

// runAnalysis builds the workload once and runs it under the analysis.
func runAnalysis(t *testing.T, analysis, workload string, bug workloads.Bug, opt core.RunOptions) outcome {
	t.Helper()
	a := compileCached(t, analysis)
	prog, err := workloads.BuildBug(workload, workloads.SizeTiny, bug)
	if err != nil {
		t.Fatalf("build %s(%s): %v", workload, bug, err)
	}
	res, rerr := core.RunAnalysis(prog, a, opt)
	out, ierr := outcomeOf(res, rerr)
	if ierr != nil {
		t.Fatalf("%s/%s: %v", workload, bug, ierr)
	}
	return out
}

// TestEngineDiffWorkloads sweeps every shipped workload generator at
// size tiny under a per-access analysis: each must run to completion
// and dispatch hooks.
func TestEngineDiffWorkloads(t *testing.T) {
	opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := runAnalysis(t, "uaf", name, workloads.BugNone, opt)
			if o.errKind != "" || o.hooks == 0 {
				t.Errorf("%s under uaf: %s, want a completed run with hook dispatches", name, o)
			}
		})
	}
}

// TestEngineDiffPlantedBugs pairs each planted defect with the analysis
// that detects it: the run must report it.
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
			o := runAnalysis(t, c.analysis, c.workload, c.bug, opt)
			if o.errKind == "" && o.reports == "" {
				t.Errorf("planted %s in %s: no reports from %s", c.bug, c.workload, c.analysis)
			}
		})
	}
}

// TestEngineDiffFaultSeeds applies the deterministic fault plans of
// seeds 1, 20 and 23 (scheduler perturbation, malloc failure, handler
// panic — one of each mode): each degrades a run the same way twice.
func TestEngineDiffFaultSeeds(t *testing.T) {
	for _, seed := range []int64{1, 20, 23} {
		seed := seed
		plan := faults.FromSeed(seed)
		t.Run(fmt.Sprintf("seed-%d-%s", seed, plan.Mode), func(t *testing.T) {
			t.Parallel()
			opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, Faults: plan.Spec()}
			for _, c := range [][2]string{{"uaf", "memcached"}, {"eraser", "radiosity"}} {
				first := runAnalysis(t, c[0], c[1], workloads.BugNone, opt)
				if again := runAnalysis(t, c[0], c[1], workloads.BugNone, opt); again != first {
					t.Errorf("%s under %s: rerun diverged\n--- first:\n%s\n--- again:\n%s", c[1], c[0], first, again)
				}
			}
		})
	}
}

// TestEngineDiffBudgetTrips forces resource-budget failures: each
// degrades the run to the ERR(kind) cell the harness renders.
func TestEngineDiffBudgetTrips(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, MaxHeapBytes: 1 << 8}
		o := runAnalysis(t, "uaf", "memcached", workloads.BugNone, opt)
		if o.errKind != vm.KindHeapLimit.String() {
			t.Errorf("heap budget: got %q, want ERR(%s)", o.errKind, vm.KindHeapLimit)
		}
	})
	t.Run("steps", func(t *testing.T) {
		opt := core.RunOptions{Seed: 1, MaxSteps: 1 << 10}
		o := runAnalysis(t, "uaf", "memcached", workloads.BugNone, opt)
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
		opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, Deadline: time.Nanosecond}
		_, rerr := core.RunAnalysis(prog, a, opt)
		var re *vm.RunError
		if !errors.As(rerr, &re) || re.Kind != vm.KindDeadline {
			t.Errorf("1ns deadline: got %v, want ERR(%s)", rerr, vm.KindDeadline)
		}
	})
}

// TestThreadedConcurrentCells is the -race proof for the analysis
// sharing model: one cached analysis (shared, immutable after
// compile) feeds 8 concurrent measurement cells on goroutines, each
// with its own instrumented program, runtime and machine — the shape of
// a parallel harness sweep. Every cell must produce the identical
// outcome, and the race detector must stay quiet.
func TestThreadedConcurrentCells(t *testing.T) {
	a := compileCached(t, "uaf")
	prog, err := workloads.Build("memcached", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	const cells = 8
	outs := make([]outcome, cells)
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
