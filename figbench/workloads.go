package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/analyses"
	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The four workloads. All run at size small, the size EXPERIMENTS.md
// quotes: at medium, hmmer and perlbench fail with "vm: stack overflow
// in main", and the benchmark keeps every figure row rather than
// silently dropping two. Why each workload was chosen is in README.md.
var workloadSetups = map[string]func(*setup) error{
	// msan: Fig 3. Load/store-dense and mostly single-threaded: shadow
	// registers, the offset shadow container, hook argument marshalling.
	"msan": func(s *setup) error {
		return s.figure("msan", harness.Fig3Programs, func() baselines.Baseline { return baselines.NewMSan(1 << 28) })
	},
	// eraser: Fig 4. Lock/unlock hooks, lockset intersection, the hash and
	// page-table containers, scheduler context switches.
	"eraser": func(s *setup) error {
		return s.figure("eraser", harness.Fig4Programs, func() baselines.Baseline { return baselines.NewEraser() })
	},
	// combined: Fig 5. The only workload where cross-analysis coalescing,
	// handler fusion, CSE and FastTrack externals do work.
	"combined": (*setup).combined,
	// replay: the only workload through internal/trace and the replay loop.
	"replay": (*setup).replay,
}

// fig5Parts are the analyses Fig 5 runs separately and fused.
var fig5Parts = []string{"eraser", "fasttrack", "uaf", "tainttrack"}

// runner is one timed run: a program, and the analysis (ALDA or
// hand-tuned) whose fresh instance handles its hooks. A runner with
// neither is a plain run; one with a trace replays it.
type runner struct {
	prog   *mir.Program
	a      *compiler.Analysis
	hand   func() baselines.Baseline
	replay *trace.Trace
}

// outcome is what one run leaves behind.
type outcome struct {
	res *vm.Result
	m   *vm.Machine
	rt  *compiler.Runtime // nil unless an ALDA run
	dur time.Duration
}

// run instantiates the analysis, builds the machine and runs it, all
// inside the timed interval.
func (r runner) run(cfg vm.Config) (outcome, error) {
	start := time.Now()
	cfg.Replay = r.replay
	var handlers []vm.HandlerFn
	var rt *compiler.Runtime
	switch {
	case r.a != nil:
		var err error
		if rt, err = r.a.NewRuntime(); err != nil {
			return outcome{}, err
		}
		handlers, cfg.TrackShadow = rt.Handlers(), r.a.NeedShadow
	case r.hand != nil:
		b := r.hand()
		handlers, cfg.TrackShadow = b.Handlers(), b.NeedShadow()
	}
	m, err := vm.New(r.prog, cfg)
	if err != nil {
		return outcome{}, err
	}
	m.Handlers = handlers
	res, err := m.Run()
	return outcome{res: res, m: m, rt: rt, dur: time.Since(start)}, err
}

// cell is one figure row: a program's plain run, its reference leg (the
// hand-tuned baseline, the four separate analyses, or the live run) and
// its ALDA run, timed back to back in every rep.
type cell struct {
	name   string
	plain  runner
	ref    []runner
	alda   runner
	cats   []string // event category per ALDA handler id
	repeat int      // runs per leg in a paired rep, set by the warm-up
	// check, when set, compares every rep's ALDA verdict against the
	// reference leg's.
	check func(alda *vm.Result, ref []*vm.Result) error
	// verify, when set, checks the cell's verdicts once before the
	// warm-up pass and returns how many runs it made.
	verify func(vm.Config) (runs int, err error)
}

// setup is one from-scratch set-up of a workload: programs built,
// analyses compiled past the compile cache, programs instrumented and,
// on replay, the plain runs recorded and decoded.
type setup struct {
	cfg    config
	rec    *recorder
	layers map[string]float64 // this set-up's per-layer numbers
	cells  []*cell
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timed runs fn inside a span and adds its duration to layer key.
func (s *setup) timed(cat, name, key string, fn func() error) error {
	id := s.rec.begin(cat, name)
	start := time.Now()
	err := fn()
	s.layers[key] += ms(time.Since(start))
	s.rec.end(id)
	return err
}

func (s *setup) build(name string) (p *mir.Program, err error) {
	err = s.timed("workloads", "workloads.Build "+name, "workloads.build_ms", func() error {
		p, err = workloads.Build(name, s.cfg.size)
		return err
	})
	return p, err
}

// compile compiles one analysis, or the concatenation of several, with
// the default options and without the compile cache.
func (s *setup) compile(names ...string) (a *compiler.Analysis, err error) {
	src, err := analyses.Combined(names...)
	if err != nil {
		return nil, err
	}
	err = s.timed("compiler", "compiler.Compile "+strings.Join(names, "+"), "compiler.compile_ms", func() error {
		if a, err = compiler.Compile(src, compiler.DefaultOptions()); err != nil {
			return err
		}
		analyses.RegisterExternals(a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := a.Stats
	for key, ns := range map[string]int64{
		"lang.parse_ms": st.ParseNS, "lang.sema_ms": st.SemaNS, "compiler.access_ms": st.AccessNS,
		"compiler.layout_ms": st.LayoutNS, "compiler.lower_ms": st.LowerNS, "compiler.fuse_ms": st.FuseNS,
	} {
		s.layers[key] += ms(time.Duration(ns))
	}
	return a, nil
}

// measured records the compile decisions of an analysis whose runs are
// the ALDA leg.
func (s *setup) measured(a *compiler.Analysis) {
	s.layers["compiler.groups"] += float64(a.Stats.Groups)
	s.layers["compiler.coalesced"] += float64(a.Stats.Coalesced)
	s.layers["compiler.fused_hooks"] += float64(a.Stats.FusedHooks)
	s.layers["compiler.rules"] += float64(a.Stats.Rules)
}

func (s *setup) instrument(p *mir.Program, a *compiler.Analysis) (inst *mir.Program, err error) {
	err = s.timed("instrument", "instrument.Apply", "instrument.apply_ms", func() error {
		inst, err = instrument.Apply(p, a)
		return err
	})
	return inst, err
}

func (s *setup) instrumentHand(p *mir.Program, b baselines.Baseline) (inst *mir.Program, err error) {
	err = s.timed("instrument", "baselines.InstrumentBaseline", "instrument.apply_ms", func() error {
		inst, err = baselines.InstrumentBaseline(p, b)
		return err
	})
	return inst, err
}

// record runs p once in record mode and decodes the trace.
func (s *setup) record(p *mir.Program) (tr *trace.Trace, err error) {
	var data []byte
	err = s.timed("core", "core.RecordTrace", "trace.record_ms", func() error {
		data, _, err = core.RecordTrace(p, core.RunOptions{Seed: s.cfg.seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = s.timed("trace", "trace.Decode", "trace.decode_ms", func() error {
		tr, err = trace.Decode(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	st := tr.Stats()
	s.layers["trace.bytes"] += float64(st.Bytes)
	s.layers["trace.events"] += float64(st.Events)
	return tr, nil
}

// addCell registers a row and counts the hook sites in its
// ALDA-instrumented program.
func (s *setup) addCell(c *cell) {
	c.cats = c.alda.a.HookCategories()
	for _, f := range c.alda.prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == mir.OpHook {
					s.layers["instrument.sites"]++
				}
			}
		}
	}
	s.cells = append(s.cells, c)
}

// figure sets up Fig 3 or Fig 4: one ALDA analysis against its
// hand-tuned baseline on each program.
func (s *setup) figure(analysis string, programs []string, hand func() baselines.Baseline) error {
	a, err := s.compile(analysis)
	if err != nil {
		return err
	}
	s.measured(a)
	for _, w := range programs {
		p, err := s.build(w)
		if err != nil {
			return err
		}
		inst, err := s.instrument(p, a)
		if err != nil {
			return err
		}
		hinst, err := s.instrumentHand(p, hand())
		if err != nil {
			return err
		}
		s.addCell(&cell{
			name:  w,
			plain: runner{prog: p},
			ref:   []runner{{prog: hinst, hand: hand}},
			alda:  runner{prog: inst, a: a},
			check: sameLocations,
		})
	}
	return nil
}

// combined sets up Fig 5: the fused combination against its four parts
// run separately.
func (s *setup) combined() error {
	var parts []*compiler.Analysis
	for _, n := range fig5Parts {
		a, err := s.compile(n)
		if err != nil {
			return err
		}
		parts = append(parts, a)
	}
	fused, err := s.compile(fig5Parts...)
	if err != nil {
		return err
	}
	s.measured(fused)
	for _, w := range harness.Fig5Programs {
		p, err := s.build(w)
		if err != nil {
			return err
		}
		c := &cell{name: w, plain: runner{prog: p}}
		for _, a := range parts {
			inst, err := s.instrument(p, a)
			if err != nil {
				return err
			}
			c.ref = append(c.ref, runner{prog: inst, a: a})
		}
		inst, err := s.instrument(p, fused)
		if err != nil {
			return err
		}
		c.alda = runner{prog: inst, a: fused}
		c.verify = unionOfParts(p, c.ref, c.alda)
		s.addCell(c)
	}
	return nil
}

// replay sets up the record/replay rows: each program recorded once,
// then every replay analysis run trace-driven against the same analysis
// live.
func (s *setup) replay() error {
	var compiled []*compiler.Analysis
	for _, n := range harness.ReplayAnalyses {
		a, err := s.compile(n)
		if err != nil {
			return err
		}
		s.measured(a)
		compiled = append(compiled, a)
	}
	for _, w := range harness.ReplayPrograms {
		p, err := s.build(w)
		if err != nil {
			return err
		}
		tr, err := s.record(p)
		if err != nil {
			return err
		}
		for i, a := range compiled {
			inst, err := s.instrument(p, a)
			if err != nil {
				return err
			}
			s.addCell(&cell{
				name:  w + "/" + harness.ReplayAnalyses[i],
				plain: runner{prog: p},
				ref:   []runner{{prog: inst, a: a}},
				alda:  runner{prog: inst, a: a, replay: tr},
				check: sameSites,
			})
		}
	}
	return nil
}

// locations returns the sorted report locations (Where), the part after
// "@" in the message@where strings the differential tests compare.
func locations(rs []*vm.Report) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Where
	}
	sort.Strings(out)
	return out
}

// sameLocations: ALDA and the hand-tuned baseline report at the same
// program locations.
func sameLocations(alda *vm.Result, ref []*vm.Result) error {
	a, h := locations(alda.Reports), locations(ref[0].Reports)
	if !slices.Equal(a, h) {
		return fmt.Errorf("report locations differ: ALDA %v, hand-tuned %v", a, h)
	}
	return nil
}

// unionOfParts is the combined workload's verdict check: replaying one
// recorded plain run into each part and into the fused combination, the
// fused run reports exactly the union of the parts' report sites.
// Handler names are unique per analysis, so the union is the merged
// line list. Live runs cannot be compared this way: the fused run
// dispatches fewer hooks, hooks count toward the scheduler quantum, and
// on racy programs FastTrack then finds different races in the two
// interleavings. Replay gives every run the recorded interleaving.
func unionOfParts(p *mir.Program, parts []runner, fused runner) func(vm.Config) (int, error) {
	return func(cfg vm.Config) (int, error) {
		data, _, err := core.RecordTrace(p, core.RunOptions{Seed: cfg.Seed})
		if err != nil {
			return 1, err
		}
		tr, err := trace.Decode(data)
		if err != nil {
			return 1, err
		}
		var lines []string
		for i, r := range parts {
			r.replay = tr
			o, err := r.run(cfg)
			if err != nil {
				return 2 + i, err
			}
			if c := conformance.SiteCanon(o.res.Reports); c != "" {
				lines = append(lines, strings.Split(c, "\n")...)
			}
		}
		sort.Strings(lines)
		fused.replay = tr
		o, err := fused.run(cfg)
		if err != nil {
			return 2 + len(parts), err
		}
		if got, want := conformance.SiteCanon(o.res.Reports), strings.Join(lines, "\n"); got != want {
			return 2 + len(parts), fmt.Errorf("fused report sites differ from the union of the parts:\nfused:\n%s\nparts:\n%s", got, want)
		}
		return 2 + len(parts), nil
	}
}

// sameSites: the replayed run reports the live run's sites.
func sameSites(alda *vm.Result, ref []*vm.Result) error {
	if got, want := conformance.SiteCanon(alda.Reports), conformance.SiteCanon(ref[0].Reports); got != want {
		return fmt.Errorf("replay report sites differ from live:\nreplay:\n%s\nlive:\n%s", got, want)
	}
	return nil
}
