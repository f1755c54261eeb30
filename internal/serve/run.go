package serve

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// compileAnalysis resolves "uaf" or "uaf+msan" at DefaultOptions
// through the bounded process-wide compile cache.
func compileAnalysis(spec string) (*compiler.Analysis, error) {
	names := strings.Split(spec, "+")
	if len(names) == 1 {
		return analyses.Compile(names[0], compiler.DefaultOptions())
	}
	return analyses.CompileCombined(compiler.DefaultOptions(), names...)
}

// buildProgram materializes the job's program: a named workload (with
// optional injected bug) or inline MIR.
func buildProgram(req *JobRequest) (*mir.Program, error) {
	if req.MIR != "" {
		p, err := mir.ParseText(req.MIR)
		if err != nil {
			return nil, fmt.Errorf("mir: %v", err)
		}
		if err := p.Verify(); err != nil {
			return nil, fmt.Errorf("mir: %v", err)
		}
		return p, nil
	}
	size, err := parseSize(req.Size)
	if err != nil {
		return nil, err
	}
	bug, err := parseBug(req.Bug)
	if err != nil {
		return nil, err
	}
	return workloads.BuildBug(req.Workload, size, bug)
}

// jobError maps an execution failure to its typed wire form. VM
// failures keep their taxonomy kind; anything else degrades to "fail".
func jobError(err error) *JobError {
	var re *vm.RunError
	if errors.As(err, &re) {
		return &JobError{Kind: re.KindLabel(), Message: re.Msg, Retryable: re.Retryable()}
	}
	return &JobError{Kind: "fail", Message: err.Error()}
}

// StageObserver receives pipeline-stage transitions during a job's
// execution ("compiled", "executed"), with the stage's deterministic
// virtual cost (0 where no cost applies). Used by the serving tier to
// record lifecycle spans; nil disables observation at zero cost.
type StageObserver func(stage string, virtual uint64)

// ExecuteObserved runs one job to completion under the server's
// limits, returning either a deterministic result or a typed error —
// never both, and never a panic: workload builders, the compiler, the
// instrumenter and analysis handlers all run behind recover(), so a
// hostile tenant degrades to a JobError{Kind:"panic"} response while
// the worker survives. The metrics shard, when non-nil, receives the
// run's deterministic observability counters. onStage, when non-nil, fires after compilation
// succeeds ("compiled") and after the VM run returns ("executed", with
// the run's virtual cost when it succeeded). Stage emission is a
// deterministic function of the request — the span determinism tests
// rely on that.
func ExecuteObserved(req *JobRequest, lim Limits, shard *obs.Shard, onStage StageObserver) (res *JobResult, jerr *JobError) {
	defer func() {
		if r := recover(); r != nil {
			res, jerr = nil, &JobError{Kind: "panic", Message: fmt.Sprintf("panic: %v", r)}
		}
	}()

	prog, err := buildProgram(req)
	if err != nil {
		return nil, jobError(err)
	}
	a, err := compileAnalysis(req.Analysis)
	if err != nil {
		return nil, jobError(err)
	}
	if onStage != nil {
		onStage("compiled", 0)
	}

	seed := req.Options.Seed
	if seed == 0 {
		seed = 1
	}
	opt := core.RunOptions{
		Seed:         seed,
		MaxSteps:     clamp(req.Options.MaxSteps, lim.DefaultMaxSteps, lim.MaxMaxSteps),
		MaxHeapBytes: clamp(req.Options.MaxHeapBytes, lim.DefaultMaxHeap, lim.MaxMaxHeap),
		Deadline:     clamp(millis(req.Options.DeadlineMS), lim.DefaultDeadline, lim.MaxDeadline),
		Faults:       req.Options.faultSpec(),
		Metrics:      shard,
	}
	vres, err := core.RunAnalysis(prog, a, opt)
	if err != nil {
		if onStage != nil {
			onStage("executed", 0)
		}
		return nil, jobError(err)
	}
	if onStage != nil {
		onStage("executed", vres.Virtual())
	}
	out := &JobResult{
		Exit:      vres.Exit,
		Steps:     vres.Steps,
		HookCalls: vres.HookCalls,
		Virtual:   vres.Virtual(),
	}
	if canon := conformance.Canon(vres.Reports); canon != "" {
		out.Reports = strings.Split(canon, "\n")
	}
	return out, nil
}

func millis(ms int64) time.Duration {
	return time.Duration(ms) * time.Millisecond
}
