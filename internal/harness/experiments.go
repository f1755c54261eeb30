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
	g, err := gridSpec{
		name:     "fig3",
		title:    fmt.Sprintf("Figure 3: LLVM-style hand-tuned MSan vs ALDA MSan (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		programs: Fig3Programs,
	}.measure(
		column{name: "hand-MSan", hand: handMSan},
		column{name: "ALDAcc-MSan", variant: "msan"},
	)
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(g)
}

// Fig4 compares hand-tuned Eraser, ALDAcc-full Eraser and the
// ALDAcc-ds-only ablation on Splash2 (Figure 4).
func Fig4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	g, err := gridSpec{
		name:     "fig4",
		title:    fmt.Sprintf("Figure 4: hand-tuned Eraser vs ALDAcc Eraser on Splash2 (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		programs: Fig4Programs,
	}.measure(
		column{name: "hand-tuned", hand: handEraser},
		column{name: "ALDAcc-full", variant: "eraser"},
		column{name: "ALDAcc-ds-only", variant: "eraser/dsonly"},
	)
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(g)
}

// Fig5 runs Eraser, FastTrack, UAF and index taint-tracking
// individually (overheads summed) and combined (one concatenated
// analysis), reporting the combined-analysis speedup (Figure 5).
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	g, err := gridSpec{
		name:    "fig5",
		title:   fmt.Sprintf("Figure 5: individual analyses (summed) vs combined analysis (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		columns: []string{"eraser", "fasttrack", "uaf", "indexTT", "sum", "comb-nofuse", "combined"},
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
	}.measure(
		column{name: "eraser", variant: "eraser"},
		column{name: "fasttrack", variant: "fasttrack"},
		column{name: "uaf", variant: "uaf"},
		column{name: "indexTT", variant: "tainttrack"},
		column{name: "comb-nofuse", variant: "combined/nofuse"},
		column{name: "combined", variant: "combined"},
	)
	if err != nil {
		return nil, err
	}
	t, err := cfg.runGrid(g)
	if t != nil && t.Averages[4] > 0 {
		fmt.Fprintf(cfg.Out, "combined-analysis speedup vs running individually: %.1f%% (%.1f%% without handler fusion)\n\n",
			(1-t.Averages[6]/t.Averages[4])*100, (1-t.Averages[5]/t.Averages[4])*100)
	}
	return t, err
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
	msan, err := analyses.Variant("msan")
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
		hand, err := core.RunBaseline(p, handMSan, cfg.Opt)
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
		a, err := analyses.Variant(c.san)
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

// PGO measures the cold split (Options.SplitCold, the compile-time
// answer to §3.2.1's profile-guided future work) on MSan: by key type,
// addr2label and addr2size coalesce, but only the allocation handlers
// touch addr2size, so the split moves it to a cold page-table group and
// halves the per-access shadow entry. The grid keeps the name pgo,
// under which older checkpoints were written.
func PGO(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	g, err := gridSpec{
		name:     "pgo",
		title:    fmt.Sprintf("Cold split: full vs split coalescing, ALDA MSan (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		programs: []string{"bzip2", "libquantum", "mcf", "hmmer", "fft", "sort", "memcached"},
	}.measure(
		column{name: "full", variant: "msan"},
		column{name: "split", variant: "msan/split"},
	)
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(g)
}

// Ablate measures Eraser under finer optimization combinations than
// Figure 4: full, CSE off, coalescing off, both off (ds-only, Figure 4's
// column), and the naive configuration (hash maps + tree sets
// everywhere).
func Ablate(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	g, err := gridSpec{
		name:     "ablate",
		title:    fmt.Sprintf("Ablation: Eraser under ALDAcc optimization subsets (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		programs: []string{"fft", "lu_c", "radix", "water_ns", "radiosity"},
	}.measure(
		column{name: "full", variant: "eraser"},
		column{name: "no-cse", variant: "eraser/nocse"},
		column{name: "no-coalesce", variant: "eraser/nocoalesce"},
		column{name: "ds-only", variant: "eraser/dsonly"},
		column{name: "naive", variant: "eraser/naive"},
	)
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(g)
}

// MemRow is one memory-footprint measurement (bytes of analysis
// metadata after a run).
type MemRow struct {
	Workload  string
	HandBytes uint64
	ALDABytes uint64
	// SplitBytes is set for the MSan rows: footprint after the cold
	// split moves the allocation-size sidecar out of the shadow entry.
	SplitBytes uint64
}

// Mem reruns §6.2's memory comparison: metadata footprint of the
// hand-tuned implementations vs the ALDAcc-compiled ones, measured at
// the end of one run. MSan compares on single-threaded programs, Eraser
// on Splash2. Each run goes through core with cfg.Opt, so the run
// budgets bound it as they bound every grid cell.
func Mem(cfg Config) ([]MemRow, error) {
	cfg = cfg.withDefaults()
	// footprint runs col on workload w once and returns the metadata
	// bytes it ends with.
	footprint := func(col column, w string) (uint64, error) {
		p, err := workloads.Build(w, cfg.Size)
		if err != nil {
			return 0, err
		}
		if col.hand != nil {
			var b baselines.Baseline
			_, err := core.RunBaseline(p, func() baselines.Baseline { b = col.hand(); return b }, cfg.Opt)
			if err != nil {
				return 0, err
			}
			return b.Footprint(), nil
		}
		a, err := analyses.Variant(col.variant)
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
		if _, err := core.RunRuntime(inst, rt, cfg.Opt); err != nil {
			return 0, err
		}
		return rt.MetadataBytes(), nil
	}

	fmt.Fprintln(cfg.Out, "Memory: analysis metadata footprint after one run (hand-tuned vs ALDAcc)")
	// Coalescing by key type folds MSan's addr2size sidecar into the
	// shadow entry (2 words); the cold split moves it back out, so
	// measure both.
	var out []MemRow
	for _, set := range []struct {
		analysis, split string
		hand            func() baselines.Baseline
		programs        []string
	}{
		{"msan", "msan/split", handMSan, []string{"bzip2", "libquantum", "memcached", "sort"}},
		{"eraser", "", handEraser, []string{"fft", "lu_c", "water_ns", "radiosity"}},
	} {
		for _, w := range set.programs {
			row := MemRow{Workload: set.analysis + "/" + w}
			var err error
			if row.HandBytes, err = footprint(column{hand: set.hand}, w); err != nil {
				return nil, err
			}
			if row.ALDABytes, err = footprint(column{variant: set.analysis}, w); err != nil {
				return nil, err
			}
			if set.split != "" {
				if row.SplitBytes, err = footprint(column{variant: set.split}, w); err != nil {
					return nil, err
				}
			}
			out = append(out, row)
		}
	}
	for _, r := range out {
		ratio := float64(r.ALDABytes) / float64(r.HandBytes)
		if r.SplitBytes > 0 {
			fmt.Fprintf(cfg.Out, "%-18s hand=%10d B  alda=%10d B  ratio=%.2f  split=%10d B  ratio=%.2f\n",
				r.Workload, r.HandBytes, r.ALDABytes, ratio, r.SplitBytes, float64(r.SplitBytes)/float64(r.HandBytes))
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
	g, err := gridSpec{
		name:     "gran",
		title:    fmt.Sprintf("Granularity sweep (§5.1): UAF checker at byte/quarter/half/word (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		programs: []string{"memcached", "sort", "bzip2", "mcf"},
	}.measure(
		column{name: "g=1B", variant: "uaf/gran1"},
		column{name: "g=2B", variant: "uaf/gran2"},
		column{name: "g=4B", variant: "uaf/gran4"},
		column{name: "g=8B", variant: "uaf"},
	)
	if err != nil {
		return nil, err
	}
	return cfg.runGrid(g)
}
