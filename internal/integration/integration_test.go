// Package integration holds the end-to-end validation ladder of
// DESIGN.md §7: every analysis compiled and run on bug/no-bug workload
// pairs, plus the differential checks against the hand-tuned baselines
// (the reproduction's analogue of §6.2's "we ran MSan's unit tests on
// our ALDA MSan and verified the outputs were correct").
package integration

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/analyses"
	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

var opt = core.RunOptions{}

func runALDA(t *testing.T, analysis, workload string, size workloads.Size, bug workloads.Bug) *vm.Result {
	t.Helper()
	a, err := analyses.Compile(analysis, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("compile %s: %v", analysis, err)
	}
	p, err := workloads.BuildBug(workload, size, bug)
	if err != nil {
		t.Fatalf("build %s: %v", workload, err)
	}
	res, err := core.RunAnalysis(p, a, opt)
	if err != nil {
		t.Fatalf("run %s on %s: %v", analysis, workload, err)
	}
	return res
}

func reportLocs(rs []*vm.Report) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Message+"@"+r.Where)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// MSan

// The Figure 3 program list must be MSan-clean (no reports): that is
// the paper's precondition for including them in the performance
// comparison.
func TestMSanCleanOnFig3Programs(t *testing.T) {
	progs := []string{
		"bzip2", "gobmk", "h264ref", "hmmer", "libquantum", "mcf", "perlbench", "sjeng",
		"fft", "lu_c", "lu_nc", "radix", "cholesky", "raytrace", "water_ns", "radiosity",
		"memcached", "sort", "ffmpeg", "nginx",
	}
	for _, w := range progs {
		w := w
		t.Run(w, func(t *testing.T) {
			res := runALDA(t, "msan", w, workloads.SizeTiny, workloads.BugNone)
			if len(res.Reports) != 0 {
				t.Fatalf("ALDA MSan reported on clean %s:\n%s", w, vm.FormatReports(res.Reports))
			}
		})
	}
}

// Table 3: planted uninitialized reads are caught by both MSan
// implementations; gets()-sourced reads are false positives only for
// the hand-tuned MSan (no gets interceptor).
func TestMSanTable3(t *testing.T) {
	type tc struct {
		workload string
		bug      workloads.Bug
		aldaHits bool
		handHits bool
	}
	cases := []tc{
		{"gcc", workloads.BugUninit, true, true},
		{"ocean", workloads.BugUninit, true, true},
		{"volrend", workloads.BugUninit, true, true},
		{"barnes", workloads.BugNone, false, true}, // gets false positive
		{"fmm", workloads.BugNone, false, true},    // gets false positive
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload, func(t *testing.T) {
			alda := runALDA(t, "msan", c.workload, workloads.SizeTiny, c.bug)
			if got := len(alda.Reports) > 0; got != c.aldaHits {
				t.Errorf("ALDA MSan on %s: reports=%v want %v\n%s",
					c.workload, got, c.aldaHits, vm.FormatReports(alda.Reports))
			}

			p, err := workloads.BuildBug(c.workload, workloads.SizeTiny, c.bug)
			if err != nil {
				t.Fatal(err)
			}
			hand, err := core.RunBaseline(p, func() baselines.Baseline {
				return baselines.NewMSan(1 << 28)
			}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(hand.Reports) > 0; got != c.handHits {
				t.Errorf("hand MSan on %s: reports=%v want %v\n%s",
					c.workload, got, c.handHits, vm.FormatReports(hand.Reports))
			}
		})
	}
}

// Differential: on every Figure 3 program the two MSans agree on the
// exact report locations (empty here, by the cleanliness test) and on
// the planted-bug programs they agree on the buggy location.
func TestMSanDifferentialOnBugs(t *testing.T) {
	for _, w := range []string{"gcc", "ocean", "volrend"} {
		w := w
		t.Run(w, func(t *testing.T) {
			alda := runALDA(t, "msan", w, workloads.SizeTiny, workloads.BugUninit)
			p, _ := workloads.BuildBug(w, workloads.SizeTiny, workloads.BugUninit)
			hand, err := core.RunBaseline(p, func() baselines.Baseline {
				return baselines.NewMSan(1 << 28)
			}, opt)
			if err != nil {
				t.Fatal(err)
			}
			al := reportLocs(alda.Reports)
			hl := reportLocs(hand.Reports)
			if len(al) != len(hl) {
				t.Fatalf("report count mismatch: alda=%v hand=%v", al, hl)
			}
			for i := range al {
				// Same program location; analysis names/messages match too
				// because both use the canonical MSan message.
				aw := al[i][strings.Index(al[i], "@"):]
				hw := hl[i][strings.Index(hl[i], "@"):]
				if aw != hw {
					t.Errorf("location mismatch: %s vs %s", al[i], hl[i])
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Eraser / FastTrack

// Differential: hand-tuned Eraser and ALDA Eraser implement the same
// algorithm, so their race-report location sets must be identical on
// every Splash2 program.
func TestEraserDifferential(t *testing.T) {
	for _, w := range workloads.Suite("splash2") {
		w := w
		t.Run(w, func(t *testing.T) {
			alda := runALDA(t, "eraser", w, workloads.SizeTiny, workloads.BugNone)
			p, _ := workloads.Build(w, workloads.SizeTiny)
			hand, err := core.RunBaseline(p, func() baselines.Baseline {
				return baselines.NewEraser()
			}, opt)
			if err != nil {
				t.Fatal(err)
			}
			al := reportLocs(alda.Reports)
			hl := reportLocs(hand.Reports)
			if len(al) != len(hl) {
				t.Fatalf("report sets differ:\nalda: %v\nhand: %v", al, hl)
			}
			for i := range al {
				ai := al[i][strings.Index(al[i], "@"):]
				hi := hl[i][strings.Index(hl[i], "@"):]
				if ai != hi {
					t.Errorf("race location mismatch: %s vs %s", al[i], hl[i])
				}
			}
		})
	}
}

// The radiosity race variant must be caught by Eraser and FastTrack,
// and by neither on the lock-protected variant... Eraser may report
// lockset-refinement false positives on other programs; what we pin
// down is the differential on the injected bug.
func TestRaceDetectionOnInjectedRace(t *testing.T) {
	for _, an := range []string{"eraser", "fasttrack"} {
		an := an
		t.Run(an, func(t *testing.T) {
			clean := runALDA(t, an, "radiosity", workloads.SizeTiny, workloads.BugNone)
			buggy := runALDA(t, an, "radiosity", workloads.SizeTiny, workloads.BugRace)
			if len(buggy.Reports) <= len(clean.Reports) {
				t.Errorf("%s: race variant got %d reports, clean %d — expected strictly more",
					an, len(buggy.Reports), len(clean.Reports))
			}
		})
	}
}

// FastTrack records the fork edge in the hook after the spawn, so the
// child must not run before that hook in any schedule: main's write
// before the spawn happens before the child's accesses. A small quantum
// puts a slice boundary right after the spawn on some seeds.
func TestFastTrackForkEdgeEverySchedule(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	w := p.NewFunc("worker", 1)
	buf := w.Param(0)
	v := w.Load(mir.R(buf), 8)
	v2 := w.Add(mir.R(v), mir.C(5))
	w.Store(mir.R(buf), mir.R(v2), 8)
	w.Ret()
	m := b.Call("malloc", mir.C(8))
	b.Store(mir.R(m), mir.C(1), 8)
	h := b.Spawn("worker", mir.R(m))
	b.Join(mir.R(h))
	b.RetVal(mir.C(0))

	a, err := analyses.Compile("fasttrack", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 64; seed++ {
		res, err := core.RunAnalysis(p, a, core.RunOptions{Seed: seed, Quantum: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Reports) != 0 {
			t.Fatalf("seed %d: the child ran before the fork hook:\n%s", seed, vm.FormatReports(res.Reports))
		}
	}
}

// ---------------------------------------------------------------------------
// UAF / taint

func TestUAFOnMemcached(t *testing.T) {
	clean := runALDA(t, "uaf", "memcached", workloads.SizeTiny, workloads.BugNone)
	if len(clean.Reports) != 0 {
		t.Fatalf("UAF reported on clean memcached:\n%s", vm.FormatReports(clean.Reports))
	}
	buggy := runALDA(t, "uaf", "memcached", workloads.SizeTiny, workloads.BugUAF)
	if len(buggy.Reports) == 0 {
		t.Fatal("UAF missed the injected use-after-free")
	}
	if !strings.Contains(buggy.Reports[0].Message, "use after free") {
		t.Fatalf("unexpected report: %v", buggy.Reports[0])
	}
}

func TestTaintOnFFmpeg(t *testing.T) {
	clean := runALDA(t, "tainttrack", "ffmpeg", workloads.SizeTiny, workloads.BugNone)
	if len(clean.Reports) != 0 {
		t.Fatalf("taint reported on clean ffmpeg:\n%s", vm.FormatReports(clean.Reports))
	}
	buggy := runALDA(t, "tainttrack", "ffmpeg", workloads.SizeTiny, workloads.BugTaint)
	if len(buggy.Reports) == 0 {
		t.Fatal("taint tracking missed the input-derived index")
	}
}

// ---------------------------------------------------------------------------
// Library sanitizers (§6.4.1)

func TestSSLSanFindsPaperBugs(t *testing.T) {
	type tc struct {
		workload string
		bug      workloads.Bug
		want     string
	}
	cases := []tc{
		{"memcached", workloads.BugSSLLeak, "leak"},
		{"memcached", workloads.BugSSLShutdown, "without SSL_shutdown"},
		{"nginx", workloads.BugSSLShutdown, "without SSL_shutdown"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+c.bug.String(), func(t *testing.T) {
			clean := runALDA(t, "sslsan", c.workload, workloads.SizeTiny, workloads.BugNone)
			if len(clean.Reports) != 0 {
				t.Fatalf("SSLSan reported on clean %s:\n%s", c.workload, vm.FormatReports(clean.Reports))
			}
			buggy := runALDA(t, "sslsan", c.workload, workloads.SizeTiny, c.bug)
			found := false
			for _, r := range buggy.Reports {
				if strings.Contains(r.Message, c.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("SSLSan missed %q on %s/%s; got:\n%s",
					c.want, c.workload, c.bug, vm.FormatReports(buggy.Reports))
			}
		})
	}
}

func TestZlibSanFindsFFmpegBug(t *testing.T) {
	clean := runALDA(t, "zlibsan", "ffmpeg", workloads.SizeTiny, workloads.BugNone)
	if len(clean.Reports) != 0 {
		t.Fatalf("ZlibSan reported on clean ffmpeg:\n%s", vm.FormatReports(clean.Reports))
	}
	buggy := runALDA(t, "zlibsan", "ffmpeg", workloads.SizeTiny, workloads.BugZlibUninit)
	if len(buggy.Reports) == 0 {
		t.Fatal("ZlibSan missed the uninitialized z_stream")
	}
	if !strings.Contains(buggy.Reports[0].Message, "uninitialized z_stream") {
		t.Fatalf("unexpected report: %v", buggy.Reports[0])
	}
}

// ---------------------------------------------------------------------------
// Combined analysis (§6.4.2)

func TestCombinedAnalysisConcatenates(t *testing.T) {
	a, err := analyses.CompileCombined(compiler.DefaultOptions(),
		"eraser", "fasttrack", "uaf", "tainttrack")
	if err != nil {
		t.Fatalf("combined compile: %v", err)
	}
	p, err := workloads.Build("fft", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunAnalysis(p, a, opt)
	if err != nil {
		t.Fatalf("combined run: %v", err)
	}
	if res.HookCalls == 0 {
		t.Fatal("combined analysis dispatched no hooks")
	}
}

// Figure 5's saving rests on the dispatch count. Fused, a load
// dispatches uafOnLoad before it and one hook after it, and a store one
// hook before it and one after it; unfused, each access dispatches one
// hook per analysis.
func TestFig5MemoryDispatchesPerAccess(t *testing.T) {
	p, err := workloads.Build("fft", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts compiler.Options
		want uint64
	}{
		{"fused", compiler.DefaultOptions(), 2},
		{"nofuse", compiler.NoFuseOptions(), 4},
	} {
		a, err := analyses.CompileCombined(c.opts, analyses.Fig5Combination...)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Metrics = obs.NewShard()
		if _, err := core.RunAnalysis(p, a, o); err != nil {
			t.Fatal(err)
		}
		accesses := o.Metrics.Counts["vm.op.load"] + o.Metrics.Counts["vm.op.store"]
		var mem uint64
		names := a.HandlerNames()
		for id, cat := range a.HookCategories() {
			if cat == "mem" {
				mem += o.Metrics.Counts["vm.hook."+names[id]+".calls"]
			}
		}
		if accesses == 0 || mem != c.want*accesses {
			t.Errorf("%s: %d memory dispatches for %d loads and stores, want %d per access",
				c.name, mem, accesses, c.want)
		}
	}
}

// Lookup CSE (§5.4) across fused parts: a fused load or store hook
// fetches the coalesced page-table entry once, and tainttrack's
// one-granule mem2taint.get/set reads and writes it through that fetch.
// Fused, an access then issues one page-table operation per dispatch;
// unfused, each of the four hooks issues its own. Operations of the
// allocation hooks are counted apart: only those inside memory hooks
// count.
func TestFig5PageTableOpsPerAccess(t *testing.T) {
	p, err := workloads.Build("fft", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts compiler.Options
		want uint64
	}{
		{"fused", compiler.DefaultOptions(), 2},
		{"nofuse", compiler.NoFuseOptions(), 4},
	} {
		a, err := analyses.CompileCombined(c.opts, analyses.Fig5Combination...)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := instrument.Apply(p, a)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := a.NewRuntime()
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(inst, vm.Config{TrackShadow: a.NeedShadow})
		if err != nil {
			t.Fatal(err)
		}
		pageTableOps := func() (n uint64) {
			for _, gt := range rt.GroupTraffic() {
				if strings.Split(gt.Label, ".")[1] == compiler.ImplPageTable.String() {
					n += gt.Stats.Gets() + gt.Stats.Sets() + gt.Stats.Iters
				}
			}
			return n
		}
		var memOps uint64
		m.Handlers = append([]vm.HandlerFn(nil), rt.Handlers()...)
		for id, cat := range a.HookCategories() {
			if h := m.Handlers[id]; cat == "mem" && h != nil {
				m.Handlers[id] = func(m *vm.Machine, tid uint64, args []uint64) uint64 {
					before := pageTableOps()
					r := h(m, tid, args)
					memOps += pageTableOps() - before
					return r
				}
			}
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		ops := m.Metrics().Ops
		accesses := ops[mir.OpLoad] + ops[mir.OpStore]
		if accesses == 0 || memOps != c.want*accesses {
			t.Errorf("%s: %d page-table operations in memory hooks for %d loads and stores, want %d per access",
				c.name, memOps, accesses, c.want)
		}
	}
}

// The combined analysis finds the same injected bugs its components
// find individually.
func TestCombinedFindsComponentBugs(t *testing.T) {
	a, err := analyses.CompileCombined(compiler.DefaultOptions(), "eraser", "uaf")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workloads.BuildBug("memcached", workloads.SizeTiny, workloads.BugUAF)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunAnalysis(p, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Reports {
		if strings.Contains(r.Message, "use after free") {
			found = true
		}
	}
	if !found {
		t.Fatalf("combined eraser+uaf missed the UAF; got:\n%s", vm.FormatReports(res.Reports))
	}
}

// ---------------------------------------------------------------------------
// Optimization-equivalence: every compiler configuration produces the
// same analysis behavior, only different speed.

func TestOptimizationConfigsAgree(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts compiler.Options
	}{
		{"full", compiler.DefaultOptions()},
		{"ds-only", compiler.DSOnlyOptions()},
		{"naive", compiler.NaiveOptions()},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			a, err := analyses.Compile("eraser", cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := workloads.BuildBug("radiosity", workloads.SizeTiny, workloads.BugRace)
			res, err := core.RunAnalysis(p, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Reports) == 0 {
				t.Errorf("%s config missed the injected race", cfg.name)
			}
		})
	}
}

// The grand unified analysis: the shipped analyses concatenated into
// one compilation (the §6.4.2 mechanism at full width). MSan and taint
// tracking both produce local metadata at LoadInst and therefore cannot
// coexist (one shadow register per instruction — the compiler rejects
// the pair); everything else combines. Each component must still catch
// its own bug class.
func TestAllEightAnalysesCombined(t *testing.T) {
	// First: the conflicting pair is a clean compile error, not silent
	// shadow clobbering.
	if _, err := analyses.CompileCombined(compiler.DefaultOptions(), "msan", "tainttrack"); err == nil ||
		!strings.Contains(err.Error(), "shadow") {
		t.Fatalf("msan+tainttrack must be rejected, got %v", err)
	}

	var all []string
	for _, n := range analyses.Names() {
		if n != "tainttrack" {
			all = append(all, n)
		}
	}
	a, err := analyses.CompileCombined(compiler.DefaultOptions(), all...)
	if err != nil {
		t.Fatalf("compile all %d: %v", len(all), err)
	}
	if len(a.Fused) == 0 {
		t.Error("expected fused hooks in the combined analysis")
	}

	find := func(res *vm.Result, want string) bool {
		for _, r := range res.Reports {
			if strings.Contains(r.Message, want) {
				return true
			}
		}
		return false
	}

	for _, c := range []struct {
		workload string
		bug      workloads.Bug
		want     string
	}{
		{"memcached", workloads.BugUAF, "use after free"},
		{"memcached", workloads.BugSSLLeak, "leak"},
		{"ffmpeg", workloads.BugZlibUninit, "uninitialized z_stream"},
		{"gcc", workloads.BugUninit, "uninitialized value"},
	} {
		p, err := workloads.BuildBug(c.workload, workloads.SizeTiny, c.bug)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunAnalysis(p, a, opt)
		if err != nil {
			t.Fatalf("run all-8 on %s/%s: %v", c.workload, c.bug, err)
		}
		if !find(res, c.want) {
			t.Errorf("all-8 combined missed %q on %s/%s; got:\n%s",
				c.want, c.workload, c.bug, vm.FormatReports(res.Reports))
		}
	}
}
