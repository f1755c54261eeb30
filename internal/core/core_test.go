package core

import (
	"testing"
	"time"

	"repro/internal/analyses"
	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestRunPlain(t *testing.T) {
	p := workloads.MustBuild("bzip2", workloads.SizeTiny)
	res, err := RunPlain(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
}

func TestRunAnalysisAndInstrumentedAgree(t *testing.T) {
	a, err := analyses.Compile("uaf", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := workloads.BuildBug("memcached", workloads.SizeTiny, workloads.BugUAF)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunAnalysis(p, a, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-instrumenting and reusing must give the same behavior.
	inst, err := instrumentFor(p, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunInstrumented(inst, a, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Reports) != len(r2.Reports) || r1.Steps != r2.Steps {
		t.Fatalf("paths disagree: %d/%d vs %d/%d", len(r1.Reports), r1.Steps, len(r2.Reports), r2.Steps)
	}
	// Runtimes are per-run: a second run over the same instrumented
	// program must see fresh metadata.
	r3, err := RunInstrumented(inst, a, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Reports) != len(r2.Reports) {
		t.Fatalf("stale metadata across runs: %d vs %d reports", len(r3.Reports), len(r2.Reports))
	}
}

func instrumentFor(p *mir.Program, a *compiler.Analysis) (*mir.Program, error) {
	return instrument.Apply(p, a)
}

func TestRunBaseline(t *testing.T) {
	p := workloads.MustBuild("fft", workloads.SizeTiny)
	res, err := RunBaseline(p, func() baselines.Baseline { return baselines.NewEraser() }, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HookCalls == 0 {
		t.Fatal("baseline dispatched no hooks")
	}
}

// TestObserveReports: the metrics shard carries the run's report
// traffic, computed from the finished run's reports. Eraser on fft
// re-files a few distinct findings many times.
func TestObserveReports(t *testing.T) {
	a, err := analyses.Compile("eraser", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewShard()
	res, err := RunAnalysis(workloads.MustBuild("fft", workloads.SizeTiny), a, RunOptions{Metrics: s})
	if err != nil {
		t.Fatal(err)
	}
	var filed uint64
	for _, r := range res.Reports {
		filed += uint64(r.Count)
	}
	distinct := uint64(len(res.Reports))
	if distinct == 0 || filed <= distinct {
		t.Fatalf("fft under eraser filed %d reports, %d distinct: want repeats", filed, distinct)
	}
	if got := s.Counts["vm.reports.filed"]; got != filed {
		t.Errorf("vm.reports.filed = %d, want %d", got, filed)
	}
	if got := s.Counts["vm.reports.distinct"]; got != distinct {
		t.Errorf("vm.reports.distinct = %d, want %d", got, distinct)
	}
}

func TestOverhead(t *testing.T) {
	a := &vm.Result{Wall: 30 * time.Millisecond}
	b := &vm.Result{Wall: 10 * time.Millisecond}
	if got := Overhead(a, b); got != 3 {
		t.Fatalf("overhead = %v", got)
	}
	if got := Overhead(a, &vm.Result{}); got != 0 {
		t.Fatalf("zero baseline overhead = %v", got)
	}
}

func TestValidate(t *testing.T) {
	p := mir.NewProgram()
	fb := p.NewFunc("main", 0)
	fb.Const(1) // no terminator
	if err := Validate(p); err == nil {
		t.Fatal("expected validation error")
	}
}
