package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analyses"
	"repro/internal/baselines"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Fig3Programs is the paper's Figure 3 program list: SPECInt minus gcc,
// Splash2 minus the four programs excluded for uninitialized-memory
// reports, plus the four real-world programs.
var Fig3Programs = []string{
	"bzip2", "gobmk", "h264ref", "hmmer", "libquantum", "mcf", "perlbench", "sjeng",
	"fft", "lu_c", "lu_nc", "radix", "cholesky", "raytrace", "water_ns", "radiosity",
	"memcached", "sort", "ffmpeg", "nginx",
}

// Fig4Programs is the full Splash2 suite of Figure 4.
var Fig4Programs = []string{
	"fft", "lu_c", "lu_nc", "radix", "cholesky", "barnes", "fmm",
	"ocean", "raytrace", "water_ns", "volrend", "radiosity",
}

// Fig5Programs is Figure 5's list: Splash2 plus the multi-threadable
// real-world programs (the paper excludes SPEC and nginx).
var Fig5Programs = append(append([]string{}, Fig4Programs...), "memcached", "sort", "ffmpeg")

// Fig3 compares the hand-tuned MemorySanitizer with ALDA MSan across
// the 20-program suite (normalized overhead; Figure 3).
func Fig3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	msan, err := analyses.Compile("msan", compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(gridSpec{
		name:     "fig3",
		title:    fmt.Sprintf("Figure 3: LLVM-style hand-tuned MSan vs ALDA MSan (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		measured: []string{"hand-MSan", "ALDAcc-MSan"},
		programs: Fig3Programs,
		runner: func(c Config, w string, col int) (runnerFn, error) {
			switch col {
			case -1:
				return c.runnerPlain(w)
			case 0:
				return c.runnerBaseline(func() baselines.Baseline { return baselines.NewMSan(1 << 28) }, w)
			default:
				return c.runnerALDA(msan, w)
			}
		},
	})
}

// Fig4 compares hand-tuned Eraser, ALDAcc-full Eraser and the
// ALDAcc-ds-only ablation on Splash2 (Figure 4).
func Fig4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	full, err := analyses.Compile("eraser", compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	dsOnly, err := analyses.Compile("eraser", compiler.DSOnlyOptions())
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(gridSpec{
		name:     "fig4",
		title:    fmt.Sprintf("Figure 4: hand-tuned Eraser vs ALDAcc Eraser on Splash2 (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		measured: []string{"hand-tuned", "ALDAcc-full", "ALDAcc-ds-only"},
		programs: Fig4Programs,
		runner: func(c Config, w string, col int) (runnerFn, error) {
			switch col {
			case -1:
				return c.runnerPlain(w)
			case 0:
				return c.runnerBaseline(func() baselines.Baseline { return baselines.NewEraser() }, w)
			case 1:
				return c.runnerALDA(full, w)
			default:
				return c.runnerALDA(dsOnly, w)
			}
		},
	})
}

// Fig5 runs Eraser, FastTrack, UAF and index taint-tracking
// individually (overheads summed) and combined (one concatenated
// analysis), reporting the combined-analysis speedup (Figure 5).
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	parts := analyses.Fig5Combination
	var individual []*compiler.Analysis
	for _, n := range parts {
		a, err := analyses.Compile(n, compiler.DefaultOptions())
		if err != nil {
			return nil, err
		}
		individual = append(individual, a)
	}
	combined, err := analyses.CompileCombined(compiler.DefaultOptions(), parts...)
	if err != nil {
		return nil, err
	}
	noFuseOpts := compiler.DefaultOptions()
	noFuseOpts.FuseHandlers = false
	combinedNoFuse, err := analyses.CompileCombined(noFuseOpts, parts...)
	if err != nil {
		return nil, err
	}
	t, err := cfg.runGrid(gridSpec{
		name:     "fig5",
		title:    fmt.Sprintf("Figure 5: individual analyses (summed) vs combined analysis (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		measured: []string{"eraser", "fasttrack", "uaf", "indexTT", "comb-nofuse", "combined"},
		columns:  []string{"eraser", "fasttrack", "uaf", "indexTT", "sum", "comb-nofuse", "combined"},
		finish: func(m []float64) []float64 {
			sum := m[0] + m[1] + m[2] + m[3]
			return []float64{m[0], m[1], m[2], m[3], sum, m[4], m[5]}
		},
		finishErrs: func(e []string) []string {
			// The derived sum is degraded if any of its inputs is.
			sumErr := ""
			for _, k := range e[:4] {
				if k != "" {
					sumErr = k
					break
				}
			}
			return []string{e[0], e[1], e[2], e[3], sumErr, e[4], e[5]}
		},
		programs: Fig5Programs,
		runner: func(c Config, w string, col int) (runnerFn, error) {
			switch {
			case col < 0:
				return c.runnerPlain(w)
			case col < len(individual):
				return c.runnerALDA(individual[col], w)
			case col == len(individual):
				return c.runnerALDA(combinedNoFuse, w)
			default:
				return c.runnerALDA(combined, w)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if len(t.Averages) == 7 && t.Averages[4] > 0 {
		fmt.Fprintf(cfg.Out, "combined-analysis speedup vs running individually: %.1f%% (%.1f%% without handler fusion)\n\n",
			(1-t.Averages[6]/t.Averages[4])*100, (1-t.Averages[5]/t.Averages[4])*100)
	}
	return t, nil
}

// Table3Row is one error-report validation row.
type Table3Row struct {
	Program  string
	Location string
	ALDAHit  bool
	HandHit  bool
	Notes    string
}

// Table3 reruns the MSan error-report validation: three planted true
// positives caught by both implementations, and the two gets() false
// positives unique to the hand-tuned (LLVM-style) MSan.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	msan, err := analyses.Compile("msan", compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cases := []struct {
		workload string
		bug      workloads.Bug
		notes    string
	}{
		{"fmm", workloads.BugNone, "gets() parameter read: hand MSan lacks the interceptor -> false positive"},
		{"barnes", workloads.BugNone, "gets() parameter read: hand MSan lacks the interceptor -> false positive"},
		{"ocean", workloads.BugUninit, "true uninitialized grid read, reported by both"},
		{"volrend", workloads.BugUninit, "true uninitialized opacity-table read, reported by both"},
		{"gcc", workloads.BugUninit, "true uninitialized bitmap read, reported by both"},
	}
	var rows []Table3Row
	for _, c := range cases {
		p, err := workloads.BuildBug(c.workload, cfg.Size, c.bug)
		if err != nil {
			return nil, err
		}
		inst, err := core.RunAnalysis(p, msan, cfg.Opt)
		if err != nil {
			return nil, err
		}
		hand, err := core.RunBaseline(p, func() baselines.Baseline { return baselines.NewMSan(1 << 28) }, cfg.Opt)
		if err != nil {
			return nil, err
		}
		loc := "-"
		if len(hand.Reports) > 0 {
			loc = hand.Reports[0].Where
		}
		if len(inst.Reports) > 0 {
			loc = inst.Reports[0].Where
		}
		rows = append(rows, Table3Row{
			Program:  c.workload,
			Location: loc,
			ALDAHit:  len(inst.Reports) > 0,
			HandHit:  len(hand.Reports) > 0,
			Notes:    c.notes,
		})
	}
	fmt.Fprintln(cfg.Out, "Table 3: MSan error-report validation")
	fmt.Fprintf(cfg.Out, "%-10s %-22s %-10s %-10s %s\n", "program", "location", "ALDA-MSan", "hand-MSan", "notes")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-10s %-22s %-10v %-10v %s\n", r.Program, r.Location, r.ALDAHit, r.HandHit, r.Notes)
	}
	fmt.Fprintln(cfg.Out)
	return rows, nil
}

// Table4Row is one analysis's line-count entry.
type Table4Row struct {
	Name string
	LOC  int
}

// Table4 reports ALDA line counts for the eight analyses (Table 4 lists
// six plus the two library sanitizers of §6.4.1), alongside the
// hand-tuned comparator sizes the paper cites.
func Table4(cfg Config) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table4Row
	for _, name := range analyses.Names() {
		src, err := analyses.Source(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{Name: name, LOC: compiler.CountLOC(src)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	fmt.Fprintln(cfg.Out, "Table 4: analysis sizes in lines of ALDA")
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-14s %5d LOC\n", r.Name, r.LOC)
	}
	fmt.Fprintln(cfg.Out, "reference comparators from the paper: LLVM MSan 8146 LOC (C++), hand-tuned Eraser 690 LOC")
	fmt.Fprintln(cfg.Out)
	return rows, nil
}

// LibSanResult is one §6.4.1 bug-detection outcome.
type LibSanResult struct {
	Sanitizer string
	Workload  string
	Bug       workloads.Bug
	Found     bool
	Message   string
}

// LibSan reruns §6.4.1: SSLSan on the memcached and nginx bugs, ZlibSan
// on the ffmpeg bug.
func LibSan(cfg Config) ([]LibSanResult, error) {
	cfg = cfg.withDefaults()
	cases := []struct {
		san, workload string
		bug           workloads.Bug
		want          string
	}{
		{"sslsan", "memcached", workloads.BugSSLLeak, "leak"},
		{"sslsan", "memcached", workloads.BugSSLShutdown, "without SSL_shutdown"},
		{"sslsan", "nginx", workloads.BugSSLShutdown, "without SSL_shutdown"},
		{"zlibsan", "ffmpeg", workloads.BugZlibUninit, "uninitialized z_stream"},
	}
	var out []LibSanResult
	fmt.Fprintln(cfg.Out, "Section 6.4.1: library-specific sanitizers on real-world bug classes")
	for _, c := range cases {
		a, err := analyses.Compile(c.san, compiler.DefaultOptions())
		if err != nil {
			return nil, err
		}
		p, err := workloads.BuildBug(c.workload, cfg.Size, c.bug)
		if err != nil {
			return nil, err
		}
		res, err := core.RunAnalysis(p, a, cfg.Opt)
		if err != nil {
			return nil, err
		}
		found := false
		msg := ""
		for _, r := range res.Reports {
			if strings.Contains(r.Message, c.want) {
				found = true
				msg = r.String()
				break
			}
		}
		out = append(out, LibSanResult{Sanitizer: c.san, Workload: c.workload, Bug: c.bug, Found: found, Message: msg})
		fmt.Fprintf(cfg.Out, "%-8s on %-10s bug=%-13s found=%v  %s\n", c.san, c.workload, c.bug, found, msg)
	}
	fmt.Fprintln(cfg.Out)
	return out, nil
}

// PGO measures profile-guided coalescing (§3.2.1's future work) on
// MSan: statically, addr2label and addr2size share the address key and
// coalesce; a profiling run shows addr2size is cold (touched only at
// malloc/free), so the recompile splits it out, halving the hot shadow
// entry.
func PGO(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	static, err := analyses.Compile("msan", compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Train on one representative workload, apply everywhere — the
	// usual PGO deployment shape. A profile loaded from disk
	// (-profile-in) replaces the inline training run; the deterministic
	// VM makes the two routes produce the same profile. A stale profile
	// (collected against a different analysis) degrades to static
	// selection with a warning — its counts name members this compile
	// does not have, so applying it would be layout roulette.
	prof := cfg.PGOProfile
	if prof != nil {
		if err := prof.MatchesAnalysis(static); err != nil {
			fmt.Fprintf(cfg.Out, "warning: -profile-in %v: degrading to static selection\n", err)
			prof = &compiler.Profile{}
		}
	}
	if prof == nil {
		train, err := workloads.Build("libquantum", workloads.SizeTiny)
		if err != nil {
			return nil, err
		}
		prof, err = core.CollectProfile(static, train, cfg.Opt)
		if err != nil {
			return nil, err
		}
	}
	pgo, err := core.RecompileWithProfile(static, prof)
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(gridSpec{
		name:     "pgo",
		title:    fmt.Sprintf("PGO: static vs profile-guided coalescing, ALDA MSan (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		measured: []string{"static", "pgo"},
		programs: []string{"bzip2", "libquantum", "mcf", "hmmer", "fft", "sort", "memcached"},
		runner: func(c Config, w string, col int) (runnerFn, error) {
			switch col {
			case -1:
				return c.runnerPlain(w)
			case 0:
				return c.runnerALDA(static, w)
			default:
				return c.runnerALDA(pgo, w)
			}
		},
	})
}

// Ablate measures Eraser under finer optimization combinations than
// Figure 4: full, CSE off, coalescing off, both off (ds-only), and the
// naive configuration (hash maps + tree sets everywhere).
func Ablate(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	mk := func(coalesce, cse, smart bool) compiler.Options {
		o := compiler.DefaultOptions()
		o.Coalesce, o.CSE, o.SmartSelect = coalesce, cse, smart
		return o
	}
	configs := []struct {
		name string
		opts compiler.Options
	}{
		{"full", mk(true, true, true)},
		{"no-cse", mk(true, false, true)},
		{"no-coalesce", mk(false, true, true)},
		{"ds-only", mk(false, false, true)},
		{"naive", mk(false, false, false)},
	}
	var compiled []*compiler.Analysis
	var names []string
	for _, c := range configs {
		a, err := analyses.Compile("eraser", c.opts)
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, a)
		names = append(names, c.name)
	}
	return cfg.runGrid(gridSpec{
		name:     "ablate",
		title:    fmt.Sprintf("Ablation: Eraser under ALDAcc optimization subsets (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		measured: names,
		programs: []string{"fft", "lu_c", "radix", "water_ns", "radiosity"},
		runner: func(c Config, w string, col int) (runnerFn, error) {
			if col < 0 {
				return c.runnerPlain(w)
			}
			return c.runnerALDA(compiled[col], w)
		},
	})
}

// ensure vm import is used in signatures above
var _ = vm.FormatReports

// MemRow is one memory-footprint measurement (bytes of analysis
// metadata after a run).
type MemRow struct {
	Workload  string
	HandBytes uint64
	ALDABytes uint64
	// PGOBytes is set for the MSan rows: footprint after profile-guided
	// coalescing splits the cold sidecar back out.
	PGOBytes uint64
}

// Mem reruns §6.2's memory comparison: metadata footprint of the
// hand-tuned implementations vs the ALDAcc-compiled ones, measured at
// the end of one run. MSan compares on single-threaded programs, Eraser
// on Splash2.
func Mem(cfg Config) ([]MemRow, error) {
	cfg = cfg.withDefaults()
	var out []MemRow

	measureALDA := func(a *compiler.Analysis, w string) (uint64, error) {
		p, err := workloads.Build(w, cfg.Size)
		if err != nil {
			return 0, err
		}
		inst, err := instrument.Apply(p, a)
		if err != nil {
			return 0, err
		}
		rt, err := a.NewRuntime()
		if err != nil {
			return 0, err
		}
		m, err := vm.New(inst, vm.Config{TrackShadow: a.NeedShadow, Seed: cfg.Opt.Seed})
		if err != nil {
			return 0, err
		}
		m.Handlers = rt.Handlers()
		if _, err := m.Run(); err != nil {
			return 0, err
		}
		return rt.MetadataBytes(), nil
	}
	measureHand := func(b baselines.Baseline, w string) (uint64, error) {
		p, err := workloads.Build(w, cfg.Size)
		if err != nil {
			return 0, err
		}
		inst, err := baselines.InstrumentBaseline(p, b)
		if err != nil {
			return 0, err
		}
		m, err := vm.New(inst, vm.Config{TrackShadow: b.NeedShadow(), Seed: cfg.Opt.Seed})
		if err != nil {
			return 0, err
		}
		m.Handlers = b.Handlers()
		if _, err := m.Run(); err != nil {
			return 0, err
		}
		return b.Footprint(), nil
	}

	fmt.Fprintln(cfg.Out, "Memory: analysis metadata footprint after one run (hand-tuned vs ALDAcc)")
	msan, err := analyses.Compile("msan", compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Static coalescing folds the cold addr2size sidecar into the hot
	// shadow entry (2 words); the PGO recompile splits it back out, so
	// measure both.
	train, err := workloads.Build("libquantum", workloads.SizeTiny)
	if err != nil {
		return nil, err
	}
	prof, err := core.CollectProfile(msan, train, cfg.Opt)
	if err != nil {
		return nil, err
	}
	msanPGO, err := core.RecompileWithProfile(msan, prof)
	if err != nil {
		return nil, err
	}
	for _, w := range []string{"bzip2", "libquantum", "memcached", "sort"} {
		hb, err := measureHand(baselines.NewMSan(1<<28), w)
		if err != nil {
			return nil, err
		}
		ab, err := measureALDA(msan, w)
		if err != nil {
			return nil, err
		}
		pb, err := measureALDA(msanPGO, w)
		if err != nil {
			return nil, err
		}
		out = append(out, MemRow{Workload: "msan/" + w, HandBytes: hb, ALDABytes: ab, PGOBytes: pb})
	}
	eraser, err := analyses.Compile("eraser", compiler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for _, w := range []string{"fft", "lu_c", "water_ns", "radiosity"} {
		hb, err := measureHand(baselines.NewEraser(), w)
		if err != nil {
			return nil, err
		}
		ab, err := measureALDA(eraser, w)
		if err != nil {
			return nil, err
		}
		out = append(out, MemRow{Workload: "eraser/" + w, HandBytes: hb, ALDABytes: ab})
	}
	for _, r := range out {
		ratio := float64(r.ALDABytes) / float64(r.HandBytes)
		if r.PGOBytes > 0 {
			fmt.Fprintf(cfg.Out, "%-18s hand=%10d B  alda=%10d B  ratio=%.2f  alda+pgo=%10d B  ratio=%.2f\n",
				r.Workload, r.HandBytes, r.ALDABytes, ratio, r.PGOBytes, float64(r.PGOBytes)/float64(r.HandBytes))
			continue
		}
		fmt.Fprintf(cfg.Out, "%-18s hand=%10d B  alda=%10d B  ratio=%.2f\n",
			r.Workload, r.HandBytes, r.ALDABytes, ratio)
	}
	fmt.Fprintln(cfg.Out)
	return out, nil
}

// Granularity sweeps the metadata granularity (§5.1: byte,
// quarter-word, half-word, word) for the use-after-free checker. Finer
// granularity is more precise (see the byte-granularity facade test)
// and costs more range work per allocation event.
func Granularity(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	grans := []int{1, 2, 4, 8}
	var compiled []*compiler.Analysis
	var names []string
	for _, g := range grans {
		opts := compiler.DefaultOptions()
		opts.Granularity = g
		a, err := analyses.Compile("uaf", opts)
		if err != nil {
			return nil, err
		}
		compiled = append(compiled, a)
		names = append(names, fmt.Sprintf("g=%dB", g))
	}
	return cfg.runGrid(gridSpec{
		name:     "gran",
		title:    fmt.Sprintf("Granularity sweep (§5.1): UAF checker at byte/quarter/half/word (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		measured: names,
		programs: []string{"memcached", "sort", "bzip2", "mcf"},
		runner: func(c Config, w string, col int) (runnerFn, error) {
			if col < 0 {
				return c.runnerPlain(w)
			}
			return c.runnerALDA(compiled[col], w)
		},
	})
}
