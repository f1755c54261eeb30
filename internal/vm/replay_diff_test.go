// Record/replay differentials: a run recorded to a compressed trace
// and replayed back must be observably identical to the live run. Two
// contracts are pinned here. Same-configuration replay (the trace
// recorded from the instrumented program itself) is exact to the
// counter: steps, per-opcode retirements, hook dispatches, scheduler
// quanta and context switches all match, across fault injections and
// resource-budget trips. Cross-analysis replay (the plain program's
// trace driving an instrumented clone) preserves the verdict — exit
// value, canonical reports, error kind — against both live tiers.
package vm_test

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vm/faults"
	"repro/internal/workloads"
)

func mustDecode(t *testing.T, data []byte) *trace.Trace {
	t.Helper()
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatalf("decode recorded trace: %v", err)
	}
	return tr
}

// detMetrics filters a shard down to its deterministic, replay-exact
// keys: everything except the trace stream's own stats (present only
// on the recording run).
func detMetrics(s *obs.Shard) string {
	keys := make([]string, 0, len(s.Counts))
	for k := range s.Counts {
		if strings.HasPrefix(k, "vm.trace.") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d\n", k, s.Counts[k])
	}
	return sb.String()
}

// recordReplaySame runs one analysis cell three ways — live, recording,
// replaying the recording — and asserts all three outcomes (and, on
// success, the full deterministic metric sets of live vs replay) are
// identical.
func recordReplaySame(t *testing.T, analysis, workload string, bug workloads.Bug, opt core.RunOptions) {
	t.Helper()
	a := compileCached(t, analysis)
	prog, err := workloads.BuildBug(workload, workloads.SizeTiny, bug)
	if err != nil {
		t.Fatalf("build %s(%s): %v", workload, bug, err)
	}

	liveSh := obs.NewShard()
	liveOpt := opt
	liveOpt.Metrics = liveSh
	liveOut, ierr := outcomeOf(core.RunAnalysis(prog, a, liveOpt))
	if ierr != nil {
		t.Fatalf("live: %v", ierr)
	}

	var buf bytes.Buffer
	recOpt := opt
	recOpt.TraceSink = &buf
	recOut, ierr := outcomeOf(core.RunAnalysis(prog, a, recOpt))
	if ierr != nil {
		t.Fatalf("record: %v", ierr)
	}
	if recOut != liveOut {
		t.Fatalf("recording perturbed the run\n--- live:\n%s\n--- recording:\n%s", liveOut, recOut)
	}

	repSh := obs.NewShard()
	repOpt := opt
	repOpt.ReplayTrace = mustDecode(t, buf.Bytes())
	repOpt.Metrics = repSh
	repOut, ierr := outcomeOf(core.RunAnalysis(prog, a, repOpt))
	if ierr != nil {
		t.Fatalf("replay: %v", ierr)
	}
	if repOut != liveOut {
		t.Errorf("replay diverged from live\n--- live:\n%s\n--- replay:\n%s", liveOut, repOut)
	}
	if liveOut.errKind == "" {
		if lm, rm := detMetrics(liveSh), detMetrics(repSh); lm != rm {
			t.Errorf("replay metrics differ from live\n--- live:\n%s\n--- replay:\n%s", lm, rm)
		}
	}
}

// TestReplayExactSameConfig: same-configuration replay is
// counter-exact across representative analysis/workload cells,
// including multi-threaded workloads and planted bugs.
func TestReplayExactSameConfig(t *testing.T) {
	opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20}
	cases := []struct {
		analysis, workload string
		bug                workloads.Bug
	}{
		{"uaf", "memcached", workloads.BugUAF},
		{"eraser", "radiosity", workloads.BugNone},
		{"sslsan", "memcached", workloads.BugSSLLeak},
		{"msan", "gcc", workloads.BugUninit},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+c.bug.String()+"/"+c.analysis, func(t *testing.T) {
			t.Parallel()
			recordReplaySame(t, c.analysis, c.workload, c.bug, opt)
		})
	}
}

// TestReplayFaultSeeds: the deterministic fault plans of seeds 1, 20
// and 23 (one of each mode — malloc failure, handler panic, scheduler
// perturbation) must replay to the identical outcome: faults that fire
// live at replay (handler panics) fire at the same dispatch, faults
// baked into the recording (malloc NULL, perturbed schedules) reproduce
// from the stream.
func TestReplayFaultSeeds(t *testing.T) {
	for _, seed := range []int64{1, 20, 23} {
		seed := seed
		plan := faults.FromSeed(seed)
		t.Run(fmt.Sprintf("seed-%d-%s", seed, plan.Mode), func(t *testing.T) {
			t.Parallel()
			opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, Faults: plan.Spec()}
			recordReplaySame(t, "uaf", "memcached", workloads.BugNone, opt)
			recordReplaySame(t, "eraser", "radiosity", workloads.BugNone, opt)
		})
	}
}

// TestReplayBudgetTrips: ERR(kind) cells — resource budgets tripping
// the run — replay to the identical error kind and message.
func TestReplayBudgetTrips(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20, MaxHeapBytes: 1 << 8}
		recordReplaySame(t, "uaf", "memcached", workloads.BugNone, opt)
	})
	t.Run("steps", func(t *testing.T) {
		opt := core.RunOptions{Seed: 1, MaxSteps: 1 << 10}
		recordReplaySame(t, "uaf", "memcached", workloads.BugNone, opt)
	})
}

// verdict is the schedule-invariant slice of an outcome — what
// cross-analysis replay (plain trace, instrumented replay) preserves.
// A plain-schedule replay is an interleaving no live scheduler seed
// produces (hooks ride the quanta for free), so occurrence tallies on
// racy sites may shift; the count-stripped conformance.SiteCanon plus
// exit and error kind is the stable projection.
type verdict struct {
	exit    uint64
	reports string
	errKind string
}

func verdictOf(res *vm.Result, err error) (verdict, error) {
	if err != nil {
		var re *vm.RunError
		if errors.As(err, &re) {
			return verdict{errKind: re.Kind.String()}, nil
		}
		return verdict{}, err
	}
	return verdict{exit: res.Exit, reports: conformance.SiteCanon(res.Reports)}, nil
}

// TestReplayCrossAnalysis: one plain trace recorded per workload, then
// replayed into instrumented clones under several analyses. The replay
// verdict must match the live verdict of both execution tiers.
func TestReplayCrossAnalysis(t *testing.T) {
	opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20}
	for _, wl := range []struct {
		workload string
		bug      workloads.Bug
	}{
		{"memcached", workloads.BugUAF},
		{"fft", workloads.BugNone},
	} {
		wl := wl
		t.Run(wl.workload+"/"+wl.bug.String(), func(t *testing.T) {
			t.Parallel()
			prog, err := workloads.BuildBug(wl.workload, workloads.SizeTiny, wl.bug)
			if err != nil {
				t.Fatal(err)
			}
			data, _, err := core.RecordTrace(prog, opt)
			if err != nil {
				t.Fatalf("record plain: %v", err)
			}
			tr := mustDecode(t, data)
			for _, analysis := range []string{"uaf", "eraser"} {
				a := compileCached(t, analysis)
				liveV, ierr := verdictOf(core.RunAnalysis(prog, a, opt))
				if ierr != nil {
					t.Fatalf("%s live: %v", analysis, ierr)
				}
				for _, eng := range engines() {
					o := opt
					o.Engine = eng
					v, ierr := verdictOf(core.RunAnalysis(prog, a, o))
					if ierr != nil {
						t.Fatalf("%s %s: %v", analysis, eng, ierr)
					}
					if v != liveV {
						t.Fatalf("%s: live tiers disagree", analysis)
					}
				}
				repOpt := opt
				repOpt.ReplayTrace = tr
				repV, ierr := verdictOf(core.RunAnalysis(prog, a, repOpt))
				if ierr != nil {
					t.Fatalf("%s replay: %v", analysis, ierr)
				}
				if repV != liveV {
					t.Errorf("%s: replay verdict diverged\n--- live:\n%+v\n--- replay:\n%+v",
						analysis, liveV, repV)
				}
			}
		})
	}
}

// TestReplayFingerprintMismatch: a trace recorded against one program
// must be rejected (as a construction error, not a run verdict) when
// replayed against another.
func TestReplayFingerprintMismatch(t *testing.T) {
	opt := core.RunOptions{Seed: 1, MaxSteps: 64 << 20}
	fft, err := workloads.Build("fft", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := workloads.Build("lu_c", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := core.RecordTrace(fft, opt)
	if err != nil {
		t.Fatal(err)
	}
	repOpt := opt
	repOpt.ReplayTrace = mustDecode(t, data)
	_, rerr := core.RunPlain(lu, repOpt)
	if rerr == nil {
		t.Fatal("replaying fft's trace into lu_c succeeded")
	}
	var re *vm.RunError
	if errors.As(rerr, &re) {
		t.Fatalf("fingerprint mismatch surfaced as a run verdict: %v", rerr)
	}
	if !strings.Contains(rerr.Error(), "fingerprint") {
		t.Fatalf("unexpected error: %v", rerr)
	}
}

// TestReplayQuantumSpans: Config.Trace sees a replayed run's scheduler
// slices as it sees a live run's, one vm/quantum span per quantum.
func TestReplayQuantumSpans(t *testing.T) {
	prog, err := workloads.Build("radiosity", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	live := quantumSpans(t, prog, vm.Config{Seed: 1, TraceSink: &rec})
	replayed := quantumSpans(t, prog, vm.Config{Seed: 1, Replay: mustDecode(t, rec.Bytes())})
	if replayed != live {
		t.Fatalf("replay emitted %d quantum spans, live %d", replayed, live)
	}
}

// quantumSpans runs prog with a Chrome trace attached and returns its
// quantum span count, which must equal the machine's Quanta metric.
func quantumSpans(t *testing.T, prog *mir.Program, cfg vm.Config) uint64 {
	t.Helper()
	var out bytes.Buffer
	cfg.Trace = obs.NewTrace(&out)
	m, err := vm.New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	n := uint64(bytes.Count(out.Bytes(), []byte(`"name":"quantum"`)))
	if q := m.Metrics().Quanta; n != q || n == 0 {
		t.Fatalf("%d quantum spans for %d quanta (replay %v)", n, q, cfg.Replay != nil)
	}
	return n
}
