// Command aldaexplain dumps ALDAcc's compilation plan for an analysis:
// coalescing groups, chosen containers with shadow factors, entry
// layouts, and per-handler lookup-savings — the "why is my analysis
// fast (or not)" tool. Where the cold split (compiler.SplitOptions)
// changes the layout, it prints that plan after the full one; -compare
// adds the ds-only and naive plans.
//
// Usage:
//
//	aldaexplain -analysis eraser
//	aldaexplain -analysis eraser,fasttrack,uaf,tainttrack -compare
//	aldaexplain -file my.alda
//	aldaexplain -trace traces/fft.trc          # recorded replay-trace statistics
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aldaexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analysisName := fs.String("analysis", "", "built-in analysis name or comma-separated combination: "+strings.Join(analyses.Names(), ", "))
	file := fs.String("file", "", "path to an ALDA source file")
	compare := fs.Bool("compare", false, "also show the ds-only and naive plans")
	stats := fs.Bool("stats", false, "run -workload (size tiny) under the analysis and print its observability counters")
	workload := fs.String("workload", "fft", "workload for -stats")
	traceFile := fs.String("trace", "", "print the event and compression statistics of a recorded replay trace (.trc) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFile != "" {
		if err := showTraceStats(stdout, *traceFile); err != nil {
			fmt.Fprintln(stderr, "aldaexplain:", err)
			return 1
		}
		return 0
	}
	var src string
	switch {
	case *file != "":
		b, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(stderr, "aldaexplain:", err)
			return 1
		}
		src = string(b)
	case *analysisName != "":
		s, err := analyses.Combined(strings.Split(*analysisName, ",")...)
		if err != nil {
			fmt.Fprintln(stderr, "aldaexplain:", err)
			return 1
		}
		src = s
	default:
		fmt.Fprintln(stderr, "need -analysis or -file")
		return 2
	}

	titles := []struct {
		title string
		opts  compiler.Options
	}{
		{"ALDAcc-full", compiler.DefaultOptions()},
		{"ALDAcc-split (per-event members split out of per-access groups)", compiler.SplitOptions()},
		{"ALDAcc-ds-only (no coalescing, no CSE)", compiler.DSOnlyOptions()},
		{"naive (hash maps and tree sets everywhere)", compiler.NaiveOptions()},
	}
	if !*compare {
		titles = titles[:2]
	}
	var full string
	for _, t := range titles {
		a, err := compiler.Compile(src, t.opts)
		if err != nil {
			fmt.Fprintln(stderr, "aldaexplain:", err)
			return 1
		}
		plan := a.Plan()
		if full == "" {
			full = plan
		} else if t.opts.SplitCold && plan == full {
			continue
		}
		fmt.Fprintf(stdout, "=== %s ===\n%s", t.title, plan)
		fmt.Fprintf(stdout, "analysis source: %d LOC\n\n", a.SourceLOC)
	}
	if *stats {
		if err := showStats(stdout, src, *workload); err != nil {
			fmt.Fprintln(stderr, "aldaexplain:", err)
			return 1
		}
	}
	return 0
}

// showTraceStats decodes a recorded replay trace and prints what the
// stream holds: recording identity, per-kind event counts, and the
// compression the stride/varint encoding achieved over a fixed-width
// layout of the same events.
func showTraceStats(stdout io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	tr, err := trace.Decode(data)
	if err != nil {
		return err
	}
	s := tr.Stats()
	fmt.Fprintf(stdout, "=== trace %s ===\n", path)
	fmt.Fprintf(stdout, "program fingerprint: %#016x\n", s.ProgFP)
	fmt.Fprintf(stdout, "recorded with: seed=%d quantum=%d\n", s.Seed, s.Quantum)
	fmt.Fprintf(stdout, "scheduler quanta: %d\n", s.Batches)
	fmt.Fprintf(stdout, "events: %d\n", s.Events)
	for _, row := range []struct {
		name string
		n    uint64
	}{
		{"load", s.Loads}, {"store", s.Stores}, {"lib", s.Libs},
		{"lock", s.Locks}, {"unlock", s.Unlocks},
		{"spawn", s.Spawns}, {"join", s.Joins},
		{"alloc", s.Allocs}, {"free", s.Frees},
	} {
		if row.n > 0 {
			fmt.Fprintf(stdout, "  %-8s %12d\n", row.name, row.n)
		}
	}
	fmt.Fprintf(stdout, "run-length records: %d\n", s.RepRuns)
	fmt.Fprintf(stdout, "encoded: %d bytes (%d fixed-width) — %.2fx compression, %.2f bytes/event\n",
		s.Bytes, s.RawBytes, s.Ratio(), float64(s.Bytes)/float64(max(1, s.Events)))
	return nil
}

// showStats runs one tiny workload under the analysis's DefaultOptions
// build with metrics collection on and prints the counters the obs
// registry would hold: hook dispatch counts (with the event category
// the attribution report uses) and per-container traffic.
func showStats(stdout io.Writer, src, workload string) error {
	a, err := compiler.Compile(src, compiler.DefaultOptions())
	if err != nil {
		return err
	}
	analyses.RegisterExternals(a)
	prog, err := workloads.Build(workload, workloads.SizeTiny)
	if err != nil {
		return err
	}
	sh := obs.NewShard()
	if _, err := core.RunAnalysis(prog, a, core.RunOptions{Seed: 1, Metrics: sh}); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "=== runtime stats (%s, size tiny) ===\n", workload)
	fmt.Fprintf(stdout, "vm: steps=%d quanta=%d ctx_switches=%d hook_dispatches=%d\n",
		sh.Counts["vm.steps"], sh.Counts["vm.sched.quanta"],
		sh.Counts["vm.sched.ctx_switches"], sh.Counts["vm.op.hook"])

	names := a.HandlerNames()
	cats := a.HookCategories()
	fmt.Fprintln(stdout, "hooks:")
	for i, n := range names {
		if calls := sh.Counts["vm.hook."+n+".calls"]; calls > 0 {
			fmt.Fprintf(stdout, "  %-36s %-6s %12d calls\n", n, cats[i], calls)
		}
	}

	keys := make([]string, 0, len(sh.Counts))
	for k := range sh.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type cstat struct {
		get, set, iter, rehash, hit, miss uint64
	}
	byLabel := map[string]*cstat{}
	var order []string
	for _, k := range keys {
		rest, ok := strings.CutPrefix(k, "meta.")
		if !ok {
			continue
		}
		dot := strings.LastIndexByte(rest, '.')
		label, op := rest[:dot], rest[dot+1:]
		cs := byLabel[label]
		if cs == nil {
			cs = &cstat{}
			byLabel[label] = cs
			order = append(order, label)
		}
		switch op {
		case "get":
			cs.get = sh.Counts[k]
		case "set":
			cs.set = sh.Counts[k]
		case "iter":
			cs.iter = sh.Counts[k]
		case "rehash":
			cs.rehash = sh.Counts[k]
		case "cache_hit":
			cs.hit = sh.Counts[k]
		case "cache_miss":
			cs.miss = sh.Counts[k]
		}
	}
	fmt.Fprintln(stdout, "containers:")
	for _, l := range order {
		cs := byLabel[l]
		fmt.Fprintf(stdout, "  %-44s get=%d set=%d iter=%d rehash=%d", l, cs.get, cs.set, cs.iter, cs.rehash)
		if cs.hit+cs.miss > 0 {
			fmt.Fprintf(stdout, " cache-hit=%.1f%%", 100*float64(cs.hit)/float64(cs.hit+cs.miss))
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
