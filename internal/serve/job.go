// Package serve turns the one-shot evaluation machinery into
// long-running analysis-as-a-service infrastructure: an HTTP/JSON job
// API whose jobs wait in one bounded admission queue for a pool of
// workers, with the robustness layers the ROADMAP's server item names
// as load-bearing — per-job tenant isolation via the VM's
// recover()+budget sandbox, admission control with the bounded queue
// and per-tenant in-flight caps, a fingerprinted JSONL write-ahead
// journal for crash recovery, and graceful drain.
//
// Jobs are not placed by analysis: each compiles through the
// process-wide compile cache and runs on a private VM, so any worker
// serves any job, and the flight recorder keeps every job's events in
// one job ring.
//
// Every job is deterministic in its request (the VM is deterministic,
// results use virtual time), so the same journal replayed after a
// crash re-runs exactly the unfinished jobs and the completed job set
// is byte-identical to an uninterrupted run.
package serve

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analyses"
	"repro/internal/mir"
	"repro/internal/vm"
	"repro/internal/vm/faults"
	"repro/internal/workloads"
)

// JobOptions are the per-job execution knobs a tenant may set. Resource
// budgets are clamped to the server's Limits; fault fields exist for
// the chaos/soak layer and for tenants reproducing failures.
type JobOptions struct {
	// Engine names the VM execution tier: "" or "interp", the only
	// tier. Admission rejects "threaded", the removed closure-threaded
	// tier; a job journaled with it before the removal recovers on the
	// interpreter, which the two tiers' conformance made observably
	// identical.
	Engine string `json:"engine,omitempty"`
	// Seed is the deterministic scheduler seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// MaxSteps caps retired instructions (0 = server default).
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// MaxHeapBytes caps the simulated heap (0 = server default).
	MaxHeapBytes uint64 `json:"max_heap_bytes,omitempty"`
	// DeadlineMS caps wall-clock per run (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// FaultSeed derives a deterministic fault plan (internal/vm/faults)
	// applied to the run; 0 = none. The explicit fault fields below
	// override the seed when non-zero.
	FaultSeed         int64  `json:"fault_seed,omitempty"`
	FaultMallocNth    uint64 `json:"fault_malloc_nth,omitempty"`
	FaultPanicNth     uint64 `json:"fault_panic_nth,omitempty"`
	FaultSchedPerturb uint64 `json:"fault_sched_perturb,omitempty"`
}

// JobRequest is the POST /v1/jobs body: one program (a named workload
// or inline MIR text) crossed with one analysis (a shipped name, or
// several joined with "+" for the fused combination).
type JobRequest struct {
	// Tenant attributes the job for per-tenant admission caps; empty
	// means the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Workload names a registered workload generator; mutually
	// exclusive with MIR.
	Workload string `json:"workload,omitempty"`
	// Bug optionally injects a named defect into the workload
	// ("uaf", "race", ... — workloads.Bug spellings).
	Bug string `json:"bug,omitempty"`
	// Size scales a named workload: "tiny" (default), "small",
	// "medium", "large".
	Size string `json:"size,omitempty"`
	// MIR is an inline program in the mir.ParseText format; mutually
	// exclusive with Workload.
	MIR string `json:"mir,omitempty"`
	// Analysis names the ALDA analysis to run, e.g. "uaf" or
	// "uaf+msan" for a fused combination.
	Analysis string `json:"analysis"`
	// Options are the per-job execution knobs.
	Options JobOptions `json:"options,omitzero"`
}

// JobError is the typed degraded response: the vm.RunError taxonomy
// (Trap/StepLimit/HeapLimit/Deadline/LibFault) plus the service-level
// kinds ("panic" for a recovered non-VM panic, "fail" for untyped
// build errors). A tenant's job can crash, bust its budgets or hit an
// injected fault and the response is always this shape — never a bare
// 500.
type JobError struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// JobResult is a successful run's deterministic summary. Wall-clock is
// deliberately absent: results must be byte-identical across reruns and
// crash recovery, so timing is virtual (vm.Result.Virtual, the
// harness's -virtual time) and volatile timings live in /metrics
// instead.
type JobResult struct {
	Exit      uint64   `json:"exit"`
	Steps     uint64   `json:"steps"`
	HookCalls uint64   `json:"hook_calls"`
	Virtual   uint64   `json:"virtual"`
	Reports   []string `json:"reports,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the GET /v1/jobs/{id} body. For terminal jobs it is a
// pure function of (ID, request): the byte-identity unit the
// crash-recovery conformance tests compare.
type JobStatus struct {
	ID string `json:"id"`
	// TraceID is the job's observability identity, minted at admission
	// (obs.MintTraceID of the admission sequence number — deterministic,
	// so crash recovery reclaims the same ID) and echoed in the
	// X-Alda-Trace-Id response header. It tags the job's events in the
	// flight recorder and keys its chain in the span view.
	TraceID string     `json:"trace_id,omitempty"`
	Tenant  string     `json:"tenant,omitempty"`
	State   string     `json:"state"`
	Result  *JobResult `json:"result,omitempty"`
	Error   *JobError  `json:"error,omitempty"`
}

// Terminal reports whether the status is final.
func (s *JobStatus) Terminal() bool { return s.State == StateDone || s.State == StateFailed }

// Limits are the server-side resource budgets: Default* applies when a
// request leaves the knob zero, Max* clamps what a request may ask
// for. Zero fields fall back to the package defaults in
// DefaultLimits.
type Limits struct {
	DefaultMaxSteps uint64
	MaxMaxSteps     uint64
	DefaultMaxHeap  uint64
	MaxMaxHeap      uint64
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
}

// DefaultLimits returns the budgets a fresh server runs under: roomy
// enough for tiny/small workloads, tight enough that one hostile job
// cannot monopolize a worker or the simulated address space.
func DefaultLimits() Limits {
	return Limits{
		DefaultMaxSteps: 50_000_000,
		MaxMaxSteps:     500_000_000,
		DefaultMaxHeap:  1 << 30,
		MaxMaxHeap:      1 << 32,
		DefaultDeadline: 10 * time.Second,
		MaxDeadline:     60 * time.Second,
	}
}

// clamp resolves a requested budget against a default and a cap.
func clamp[T uint64 | time.Duration](req, def, max T) T {
	v := req
	if v == 0 {
		v = def
	}
	if max > 0 && v > max {
		v = max
	}
	return v
}

// parseSize maps the request spelling to a workloads.Size; empty means
// tiny (the serving sweet spot: jobs are interactive, not benchmarks).
func parseSize(s string) (workloads.Size, error) {
	if s == "" {
		return workloads.SizeTiny, nil
	}
	return workloads.ParseSize(s)
}

// parseBug maps the request spelling to a workloads.Bug; empty means
// none.
func parseBug(s string) (workloads.Bug, error) {
	if s == "" {
		return workloads.BugNone, nil
	}
	return workloads.ParseBug(s)
}

// faultSpec resolves the request's fault fields: explicit nth fields
// win, otherwise a non-zero FaultSeed derives a plan.
func (o JobOptions) faultSpec() vm.FaultSpec {
	if o.FaultMallocNth != 0 || o.FaultPanicNth != 0 || o.FaultSchedPerturb != 0 {
		return vm.FaultSpec{
			MallocFailNth:   o.FaultMallocNth,
			HandlerPanicNth: o.FaultPanicNth,
			SchedPerturb:    o.FaultSchedPerturb,
		}
	}
	if o.FaultSeed != 0 {
		return faults.FromSeed(o.FaultSeed).Spec()
	}
	return vm.FaultSpec{}
}

// Validate checks a request at admission time so malformed jobs are
// rejected with a 400 instead of burning a worker slot. It returns the
// parsed pieces the executor needs.
func (r *JobRequest) Validate() error {
	if (r.Workload == "") == (r.MIR == "") {
		return fmt.Errorf("exactly one of workload or mir is required")
	}
	if r.Analysis == "" {
		return fmt.Errorf("analysis is required")
	}
	for _, name := range strings.Split(r.Analysis, "+") {
		if _, err := analyses.Source(name); err != nil {
			return fmt.Errorf("unknown analysis %q", name)
		}
	}
	if _, err := parseSize(r.Size); err != nil {
		return err
	}
	switch r.Options.Engine {
	case "", "interp":
	case "threaded":
		return fmt.Errorf("engine %q was removed: the interpreter (\"interp\") is the only engine", r.Options.Engine)
	default:
		return fmt.Errorf("unknown engine %q (want interp)", r.Options.Engine)
	}
	if r.Workload != "" {
		if _, err := workloads.Get(r.Workload); err != nil {
			return err
		}
		if _, err := parseBug(r.Bug); err != nil {
			return err
		}
	} else {
		if r.Bug != "" {
			return fmt.Errorf("bug injection requires a named workload")
		}
		p, err := mir.ParseText(r.MIR)
		if err != nil {
			return fmt.Errorf("mir: %v", err)
		}
		if err := p.Verify(); err != nil {
			return fmt.Errorf("mir: %v", err)
		}
	}
	return nil
}
