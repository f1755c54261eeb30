package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/conformance"
	"repro/internal/vm"
)

// Legs of a paired rep. Their order rotates from rep to rep.
const (
	legPlain = iota
	legRef
	legALDA
	numLegs
)

var legNames = [numLegs]string{"plain", "ref", "alda"}

// samples holds one cell's per-rep run times in seconds, by leg: the
// mean over the rep's repetitions. The reference leg's time is the sum
// of its runs.
type samples [numLegs][]float64

// ratios returns the per-rep ALDA ÷ plain and ALDA ÷ reference ratios.
func (s *samples) ratios() (overhead, overRef []float64) {
	for r := range s[legALDA] {
		overhead = append(overhead, s[legALDA][r]/s[legPlain][r])
		overRef = append(overRef, s[legALDA][r]/s[legRef][r])
	}
	return overhead, overRef
}

// measurement is everything one benchmark run observed.
type measurement struct {
	cfg   config
	log   io.Writer
	cells []*cell
	// times[set][cell]: set 0 is untraced passes, set 1 traced passes.
	times  [2][]samples
	passes [2]int

	setupS      []float64
	layerReps   []map[string]float64 // per-layer numbers of each timed set-up
	setupLayers map[string]float64   // median over the timed set-ups
	counters    map[string]float64   // per-layer counts from one traced rep per cell
	counted     []bool
	metaBytes   []uint64   // per cell, after its last ALDA run
	verdicts    [][]string // per cell, each reference runner's and the ALDA runner's first reports

	attempted, failed int
}

// measure sets the workload up, verifies it, runs one warm-up pass and
// then measured passes over every cell until the time is up. After the
// warm-up and after every pass it times further set-ups.
func measure(cfg config, rec *recorder, log io.Writer) (*measurement, error) {
	m := &measurement{cfg: cfg, log: log, counters: map[string]float64{}}
	root := rec.begin("bench", cfg.workload)
	first, _, err := m.setUp(rec)
	if err != nil {
		return nil, err
	}
	m.cells = first.cells
	for set := range m.times {
		m.times[set] = make([]samples, len(m.cells))
	}
	m.counted = make([]bool, len(m.cells))
	m.metaBytes = make([]uint64, len(m.cells))
	m.verdicts = make([][]string, len(m.cells))

	id := rec.begin("bench", "verify")
	for _, c := range m.cells {
		if c.verify != nil {
			runtime.GC()
			runs, err := c.verify(vm.Config{Seed: cfg.seed, Engine: cfg.engine})
			m.attempted += runs
			if err != nil {
				m.fail(c, "verify", err)
			}
		}
	}
	rec.end(id)
	start := time.Now()
	m.pass(-1, false, rec) // warm-up: verified, not timed
	if err := m.timeSetups(rec, time.Since(start)/setupShare); err != nil {
		return nil, err
	}

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	sets := 1
	if cfg.traced {
		sets = 2 // alternate untraced and traced passes
	}
	// A pass starts while at least half of one fits before the deadline,
	// so runs end on average at the deadline.
	var last time.Duration
	for p := 0; p < sets*minPasses || time.Until(deadline) > last/2; p++ {
		start := time.Now()
		m.pass(p, cfg.traced && p%2 == 1, rec)
		if err := m.timeSetups(rec, time.Since(start)/setupShare); err != nil {
			return nil, err
		}
		last = time.Since(start)
	}
	m.setupLayers = medianLayers(m.layerReps)
	rec.end(root)
	return m, nil
}

// setUp sets the workload up from scratch and times it. The collector
// is off while it runs: whether a set-up of a few milliseconds crosses
// the heap goal depends on what else the process holds, and one
// collection more or less moved it by a third.
func (m *measurement) setUp(rec *recorder) (*setup, time.Duration, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	s := &setup{cfg: m.cfg, rec: rec, layers: map[string]float64{}}
	id := rec.begin("bench", "setup")
	start := time.Now()
	err := workloadSetups[m.cfg.workload](s)
	took := time.Since(start)
	rec.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", m.cfg.workload, err)
	}
	return s, took, nil
}

// timeSetups times set-ups until budget is spent, at least minSetups of
// them, and drops the cells they build. Set-ups are timed
// between passes, so they sample the whole run on a warm process: timed
// back to back at process start, a set-up of a millisecond or two varied
// fourfold between runs. The collector stays off in between too, which
// also stops the runtime from returning the freed heap to the kernel and
// page-faulting it back in during the next set-up.
func (m *measurement) timeSetups(rec *recorder, budget time.Duration) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	for i := 0; i < minSetups || time.Since(start) < budget; i++ {
		s, took, err := m.setUp(rec)
		if err != nil {
			return err
		}
		m.setupS = append(m.setupS, took.Seconds())
		m.layerReps = append(m.layerReps, s.layers)
	}
	return nil
}

// pass runs one paired rep of every cell. Pass -1 is the warm-up.
func (m *measurement) pass(p int, traced bool, rec *recorder) {
	name := "pass"
	if p < 0 {
		name = "warm-up"
	}
	id := rec.begin("bench", name)
	cellRec := rec
	if !traced {
		cellRec = nil
	}
	for ci, c := range m.cells {
		m.rep(p, ci, c, traced, cellRec)
	}
	rec.end(id)
	if p >= 0 {
		m.passes[b2i(traced)]++
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// repeatTarget is the least time one paired rep of a cell takes. A cell
// whose legs are shorter together repeats them, interleaved, so that a
// scheduler preemption or page-fault burst of a few milliseconds does
// not decide a ratio on its own. The count is set from the warm-up rep.
const (
	repeatTarget = 100 * time.Millisecond
	maxRepeat    = 8
)

// rep runs the plain, reference and ALDA legs of one cell back to back,
// c.repeat times over, starting at a leg that rotates with the seed,
// the pass, the cell and the repetition. A leg's time is the mean over
// the repetitions.
func (m *measurement) rep(p, ci int, c *cell, traced bool, rec *recorder) {
	id := rec.begin("bench", c.name)
	defer rec.end(id)
	cfg := vm.Config{Seed: m.cfg.seed, Engine: m.cfg.engine}
	var out [numLegs][]outcome
	ok := true
	rot := int(((m.cfg.seed+int64(p)+int64(ci))%numLegs + numLegs) % numLegs)
	for i := 0; i < max(c.repeat, 1); i++ {
		for k := 0; k < numLegs; k++ {
			leg := (i + k + rot) % numLegs
			runners := []runner{c.plain}
			switch leg {
			case legRef:
				runners = c.ref
			case legALDA:
				runners = []runner{c.alda}
			}
			for _, r := range runners {
				o, err := m.timedRun(r, cfg, traced && leg == legALDA, rec, legNames[leg])
				if err != nil {
					m.fail(c, legNames[leg], err)
					ok = false
					continue
				}
				out[leg] = append(out[leg], o)
			}
		}
	}
	if !ok {
		return
	}
	plain, alda := out[legPlain][0].res, out[legALDA][0]
	refs := make([]*vm.Result, len(c.ref))
	for i := range refs {
		refs[i] = out[legRef][i].res
	}
	if c.check != nil {
		if err := c.check(alda.res, refs); err != nil {
			m.fail(c, "alda", err)
			return
		}
	}
	if err := m.sameAsBefore(ci, len(c.ref), plain.Exit, out); err != nil {
		m.fail(c, "repeat", err)
		return
	}
	m.metaBytes[ci] = alda.rt.MetadataBytes()
	if p < 0 {
		var took time.Duration
		for _, leg := range out {
			for _, o := range leg {
				took += o.dur
			}
		}
		c.repeat = min(int(repeatTarget/max(took, 1))+1, maxRepeat)
		return
	}
	s := &m.times[b2i(traced)][ci]
	for leg := range out {
		t := 0.0
		for _, o := range out[leg] {
			t += o.dur.Seconds()
		}
		s[leg] = append(s[leg], t/float64(max(c.repeat, 1)))
	}
	if traced && !m.counted[ci] {
		m.counted[ci] = true
		m.count(c, plain, refs, alda)
	}
}

// timedRun makes one run, with the previous run's garbage collected
// outside the timed interval so it is not charged to whichever run
// follows. With gc set it adds the run's Go allocation and collection
// work to the counters.
func (m *measurement) timedRun(r runner, cfg vm.Config, gc bool, rec *recorder, leg string) (outcome, error) {
	runtime.GC()
	var before, after runtime.MemStats
	if gc {
		runtime.ReadMemStats(&before)
	}
	id := rec.begin("run", leg)
	o, err := r.run(cfg)
	rec.end(id)
	m.attempted++
	if err != nil || !gc {
		return o, err
	}
	runtime.ReadMemStats(&after)
	m.counters["gc.alloc_bytes"] += float64(after.TotalAlloc - before.TotalAlloc)
	m.counters["gc.cycles"] += float64(after.NumGC - before.NumGC)
	m.counters["gc.hooks"] += float64(o.res.HookCalls)
	return o, nil
}

// sameAsBefore checks that every run of a rep exits like the plain run
// and reports what the same runner reported the first time: every rep
// runs the same programs under the same seed.
func (m *measurement) sameAsBefore(ci, nref int, exit uint64, out [numLegs][]outcome) error {
	slot := func(leg, i int) int {
		if leg == legRef {
			return i % nref
		}
		return nref
	}
	first := m.verdicts[ci]
	if first == nil {
		first = make([]string, nref+1)
		for i, o := range out[legRef][:nref] {
			first[i] = conformance.Canon(o.res.Reports)
		}
		first[nref] = conformance.Canon(out[legALDA][0].res.Reports)
		m.verdicts[ci] = first
	}
	for leg := range out {
		for i, o := range out[leg] {
			if o.res.Exit != exit {
				return fmt.Errorf("%s run exits %d, plain run exits %d", legNames[leg], o.res.Exit, exit)
			}
			if leg == legPlain {
				continue
			}
			if got := conformance.Canon(o.res.Reports); got != first[slot(leg, i)] {
				return fmt.Errorf("%s run reports changed between runs:\n%s\nfirst run:\n%s", legNames[leg], got, first[slot(leg, i)])
			}
		}
	}
	return nil
}

// fail counts a failed run. The first failure prints in full, the next
// few by their first line.
func (m *measurement) fail(c *cell, leg string, err error) {
	switch msg := err.Error(); {
	case m.failed == 0:
		fmt.Fprintf(m.log, "figbench: first failure: %s (%s): %s\n", c.name, leg, msg)
	case m.failed < 20:
		first, _, _ := strings.Cut(msg, "\n")
		fmt.Fprintf(m.log, "figbench: failure: %s (%s): %s\n", c.name, leg, first)
	}
	m.failed++
}

// count adds one rep's deterministic per-layer counters.
func (m *measurement) count(c *cell, plain *vm.Result, refs []*vm.Result, alda outcome) {
	k := m.counters
	k["vm.steps"] += float64(plain.Steps)
	k["alda.steps"] += float64(alda.res.Steps)
	k["vm.hook_calls"] += float64(alda.res.HookCalls)
	for _, r := range refs {
		k["ref.hook_calls"] += float64(r.HookCalls)
	}
	mm := alda.m.Metrics()
	k["vm.ctx_switches"] += float64(mm.CtxSwitches)
	for id, n := range mm.HookCalls {
		cat := "other"
		if id < len(c.cats) {
			cat = c.cats[id]
		}
		switch cat {
		case "mem", "alloc", "sync", "call", "ctrl", "life":
		default:
			cat = "other"
		}
		k["vm.hook_calls."+cat] += float64(n)
	}
	for _, gt := range alda.rt.GroupTraffic() {
		st := gt.Stats
		ops := float64(st.Gets() + st.Sets() + st.Iters)
		k["meta.get"] += float64(st.Gets())
		k["meta.set"] += float64(st.Sets())
		k["meta.iter"] += float64(st.Iters)
		k["meta.rehash"] += float64(st.Rehashes)
		k["meta.cache_hits"] += float64(st.CacheHits)
		k["meta.cache_misses"] += float64(st.CacheMisses)
		// Labels read g<id>.<impl>.<members>.
		if f := strings.SplitN(gt.Label, ".", 3); len(f) == 3 {
			k["meta."+f[1]+".ops"] += ops
		}
	}
}

// ratios returns each cell's median paired ALDA ÷ plain and ALDA ÷
// reference ratios, and every ALDA ÷ plain ratio.
func (m *measurement) ratios(set int) (overhead, overRef, all []float64) {
	for _, s := range m.times[set] {
		ov, vr := s.ratios()
		if len(ov) == 0 {
			continue
		}
		overhead = append(overhead, median(ov))
		overRef = append(overRef, median(vr))
		all = append(all, ov...)
	}
	return overhead, overRef, all
}

// printCells writes each cell's median leg times and ratios, one row
// per cell, from the untraced passes.
func (m *measurement) printCells(w io.Writer) {
	fmt.Fprintf(w, "%-20s %10s %10s %10s %9s %15s %9s\n", "cell", "plain_ms", "ref_ms", "alda_ms", "alda/pl", "(q1-q3)", "alda/ref")
	for ci, s := range m.times[0] {
		if len(s[legALDA]) == 0 {
			continue
		}
		ov, vr := s.ratios()
		fmt.Fprintf(w, "%-20s %10.3f %10.3f %10.3f %9.3f %7.3f-%-7.3f %9.3f\n", m.cells[ci].name,
			median(s[legPlain])*1e3, median(s[legRef])*1e3, median(s[legALDA])*1e3,
			median(ov), quantile(ov, 0.25), quantile(ov, 0.75), median(vr))
	}
}

// printSetups writes the spread of the timed set-ups.
func (m *measurement) printSetups(w io.Writer) {
	fmt.Fprintf(w, "figbench: %d set-ups, ms: min %.3f q1 %.3f median %.3f q3 %.3f max %.3f\n", len(m.setupS),
		quantile(m.setupS, 0)*1e3, quantile(m.setupS, 0.25)*1e3, median(m.setupS)*1e3,
		quantile(m.setupS, 0.75)*1e3, quantile(m.setupS, 1)*1e3)
}

func (m *measurement) p90Samples() int {
	_, _, all := m.ratios(0)
	return len(all)
}

// endToEnd returns the gated metrics, from the untraced passes.
func (m *measurement) endToEnd() map[string]metric {
	ov, vr, all := m.ratios(0)
	var meta uint64
	for _, b := range m.metaBytes {
		meta += b
	}
	return map[string]metric{
		"overhead":      {finite(geomean(ov)), "x"},
		"overhead_p90":  {finite(quantile(all, 0.9)), "x"},
		"alda_over_ref": {finite(geomean(vr)), "x"},
		"meta_mb":       {float64(meta) / 1e6, "MB"},
		"pass_frac":     {1 - float64(m.failed)/float64(m.attempted), "fraction"},
		"setup_s":       {quantile(m.setupS, 0), "s"},
	}
}

// finite maps NaN and infinities, from a ratio without samples or with
// a zero divisor, to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// legSeconds sums, over cells, the median time of one leg in a set.
func (m *measurement) legSeconds(set, leg int) float64 {
	t := 0.0
	for _, s := range m.times[set] {
		if len(s[leg]) > 0 {
			t += median(s[leg])
		}
	}
	return t
}

// perLayer returns the traced run's per-layer metrics. Set-up numbers
// are medians over the set-ups; times come from the traced passes and
// counts from one traced rep of every cell. A metric that does not
// apply to the workload, or divides by a count that is 0 on it, reads 0.
func (m *measurement) perLayer() map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{finite(v), unit} }
	l, k := m.setupLayers, m.counters
	for _, name := range []string{"workloads.build_ms", "lang.parse_ms", "lang.sema_ms", "compiler.access_ms",
		"compiler.layout_ms", "compiler.lower_ms", "compiler.fuse_ms", "compiler.compile_ms",
		"instrument.apply_ms", "trace.record_ms", "trace.decode_ms"} {
		put(name, "ms", l[name])
	}
	for _, name := range []string{"compiler.groups", "compiler.coalesced", "compiler.fused_hooks",
		"compiler.rules", "instrument.sites"} {
		put(name, "count", l[name])
	}
	put("trace.bytes_per_event", "B/event", l["trace.bytes"]/l["trace.events"])

	plainS, refS, aldaS := m.legSeconds(1, legPlain), m.legSeconds(1, legRef), m.legSeconds(1, legALDA)
	hooks, refHooks := k["vm.hook_calls"], k["ref.hook_calls"]
	refRuns := 0
	if len(m.cells) > 0 {
		refRuns = len(m.cells[0].ref)
	}
	put("vm.plain_s", "s", plainS)
	put("vm.ns_per_step", "ns/step", plainS*1e9/k["vm.steps"])
	put("vm.steps", "count", k["vm.steps"])
	put("vm.hook_calls", "count", hooks)
	put("vm.hook_density", "events/step", hooks/k["vm.steps"])
	put("vm.ctx_switches", "count", k["vm.ctx_switches"])
	for _, cat := range []string{"mem", "alloc", "sync", "call", "ctrl", "life", "other"} {
		put("vm.hook_calls."+cat, "count", k["vm.hook_calls."+cat])
	}
	put("run.alda_s", "s", aldaS)
	put("run.ref_s", "s", refS)
	aldaNS := (aldaS - plainS) * 1e9 / hooks
	refNS := (refS - float64(refRuns)*plainS) * 1e9 / refHooks
	put("analysis.ns_per_event", "ns/event", aldaNS)
	put("ref.ns_per_event", "ns/event", refNS)
	put("analysis.gap_ns_per_event", "ns/event", aldaNS-refNS)

	metaOps := k["meta.get"] + k["meta.set"] + k["meta.iter"]
	put("meta.ops_per_event", "ops/event", metaOps/hooks)
	for _, name := range []string{"get", "set", "iter", "rehash"} {
		put("meta."+name, "count", k["meta."+name])
	}
	put("meta.cache_hit_ratio", "ratio", k["meta.cache_hits"]/(k["meta.cache_hits"]+k["meta.cache_misses"]))
	for _, impl := range []string{"shadow", "pagetable", "hash", "hash2", "array"} {
		put("meta."+impl+".ops", "count", k["meta."+impl+".ops"])
	}
	replayNS := 0.0
	if m.cfg.workload == "replay" {
		replayNS = aldaS * 1e9 / k["alda.steps"]
	}
	put("trace.replay_ns_per_step", "ns/step", replayNS)
	put("gc.alloc_bytes_per_event", "B/event", k["gc.alloc_bytes"]/k["gc.hooks"])
	put("gc.cycles", "count/pass", k["gc.cycles"]/float64(m.passes[1]))

	traced, _, _ := m.ratios(1)
	untraced, _, _ := m.ratios(0)
	put("bench.trace_overhead", "ratio", geomean(traced)/geomean(untraced))
	return out
}

func medianLayers(reps []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
