package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mir"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Replay conformance axis: a run replayed from a recorded trace must be
// observably equivalent to the live run, across the full ablation
// matrix. Two properties, matching the two recording modes:
//
//   - "replay": the workload's plain trace is recorded once and fanned
//     out across every configuration leg. The plain schedule is an
//     interleaving no live scheduler seed produces once hooks are woven
//     in, so the comparison uses the schedule-invariant projection:
//     SiteCanon reports, exit value, error kind.
//
//   - "replay-exact": the reference configuration records its own
//     instrumented run and replays it. Same configuration, same
//     schedule — the outcome must be byte-identical, occurrence counts
//     included.

// plainTrace records (and memoizes) the workload program's
// uninstrumented run as a replay trace. A verdict-grade failure of the
// plain run is fine: the trace's terminal reproduces it at replay, and
// the live legs fail identically.
func (r *Runner) plainTrace(p *mir.Program, seed int64) (*trace.Trace, error) {
	r.traceMu.Lock()
	tr := r.traces[p]
	r.traceMu.Unlock()
	if tr != nil {
		return tr, nil
	}
	data, _, err := core.RecordTrace(p, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps})
	if err != nil {
		var re *vm.RunError
		if !errors.As(err, &re) {
			return nil, fmt.Errorf("conformance: record plain trace: %w", err)
		}
	}
	tr, derr := trace.Decode(data)
	if derr != nil {
		return nil, fmt.Errorf("conformance: recorded trace does not decode: %w", derr)
	}
	r.traceMu.Lock()
	r.traces[p] = tr
	r.traceMu.Unlock()
	return tr, nil
}

// siteOutcome is the schedule-invariant outcome projection the fanned
// replay legs are compared under.
type siteOutcome struct {
	site    string
	exit    uint64
	errKind string
}

func (o siteOutcome) String() string {
	return fmt.Sprintf("exit=%d err=%q reports:\n%s", o.exit, o.errKind, o.site)
}

func siteOutcomeOf(res *vm.Result, err error) (siteOutcome, error) {
	var o siteOutcome
	if err != nil {
		re, ok := err.(*vm.RunError)
		if !ok {
			return o, err
		}
		o.errKind = re.Kind.String()
		return o, nil
	}
	o.site = SiteCanon(res.Reports)
	o.exit = res.Exit
	return o, nil
}

// CheckReplay verifies the replay axis for one analysis across every
// applicable configuration leg.
func (r *Runner) CheckReplay(w *Workload, name string) ([]Mismatch, error) {
	var ms []Mismatch
	cfgs := configsFor(w)
	seed := r.SchedSeeds[0]
	tr, err := r.plainTrace(w.Prog, seed)
	if err != nil {
		return nil, err
	}

	for _, c := range cfgs {
		a, err := r.analysis(name, c.Opts)
		if err != nil {
			return nil, err
		}
		live, err := siteOutcomeOf(core.RunAnalysis(w.Prog, a, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps}))
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s live: %w", w.Name, name, c.Name, err)
		}
		rep, err := siteOutcomeOf(core.RunAnalysis(w.Prog, a, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps, ReplayTrace: tr}))
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s replay: %w", w.Name, name, c.Name, err)
		}
		if rep != live {
			ms = append(ms, Mismatch{
				Workload: w.Name, Seed: w.Seed, Analysis: name,
				Property: "replay", Ref: c.Name + "-live", Got: c.Name + "-replay",
				Detail: "--- live:\n" + live.String() + "\n--- replay:\n" + rep.String(),
			})
		}
	}

	// Byte-identical leg: record the reference configuration's own
	// instrumented run, replay it, compare the full outcome.
	a, err := r.analysis(name, cfgs[0].Opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	recO, err := outcomeOf(core.RunAnalysis(w.Prog, a, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps, TraceSink: &buf}))
	if err != nil {
		return nil, fmt.Errorf("%s/%s record: %w", w.Name, name, err)
	}
	itr, derr := trace.Decode(buf.Bytes())
	if derr != nil {
		return nil, fmt.Errorf("%s/%s: instrumented trace does not decode: %w", w.Name, name, derr)
	}
	repO, err := outcomeOf(core.RunAnalysis(w.Prog, a, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps, ReplayTrace: itr}))
	if err != nil {
		return nil, fmt.Errorf("%s/%s replay-exact: %w", w.Name, name, err)
	}
	if !repO.equal(recO) {
		ms = append(ms, Mismatch{
			Workload: w.Name, Seed: w.Seed, Analysis: name,
			Property: "replay-exact", Ref: cfgs[0].Name + "-record", Got: cfgs[0].Name + "-replay",
			Detail: diff(recO, repO),
		})
	}
	return ms, nil
}

// ReplayCorruptionFails is the shrinker predicate for trace-robustness
// reproducers: record the candidate program's plain trace, flip one
// deterministically-chosen bit, and report whether replaying the
// mutilated stream surfaces a typed error — a trace.DecodeError at
// decode, or a replay-divergence / corrupt-trace verdict at run time.
// Candidates where the flip lands in dead payload (replay succeeds
// cleanly) or that cannot even record return false, so Shrink treats
// them as "does not reproduce".
func (r *Runner) ReplayCorruptionFails(p *mir.Program, seed int64) bool {
	data, _, err := core.RecordTrace(p, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps})
	if err != nil {
		return false
	}
	if len(data) == 0 {
		return false
	}
	// Flip a bit past the header, mid-stream: position derives only
	// from the trace length, so the same candidate always mutates the
	// same way.
	pos := len(data) / 2
	data[pos] ^= 0x10
	tr, derr := trace.Decode(data)
	if derr != nil {
		var de *trace.DecodeError
		return errors.As(derr, &de) // typed decode rejection reproduces
	}
	_, rerr := core.RunPlain(p, core.RunOptions{Seed: seed, MaxSteps: r.MaxSteps, ReplayTrace: tr})
	if rerr == nil {
		return false
	}
	var re *vm.RunError
	if !errors.As(rerr, &re) {
		return false
	}
	return strings.Contains(re.Msg, "replay divergence") || strings.Contains(re.Msg, "corrupt trace")
}
