// Command aldacc is the ALDA compiler driver: it compiles an ALDA
// analysis (from a file or one of the built-in analyses), instruments a
// workload program, runs it on the VM, and prints the analysis reports
// and overhead — the full Figure 1 workflow in one invocation.
//
// Usage:
//
//	aldacc -analysis uaf -workload memcached -bug uaf
//	aldacc -file my.alda -workload fft -size small
//	aldacc -analysis eraser -workload radiosity -bug race -explain
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/mir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	analysisName := flag.String("analysis", "", "built-in analysis name (or comma-separated list to combine): "+strings.Join(analyses.Names(), ", "))
	file := flag.String("file", "", "path to an ALDA source file (alternative to -analysis)")
	workload := flag.String("workload", "", "workload program: "+strings.Join(workloads.Names(), ", "))
	mirFile := flag.String("mir", "", "path to a MIR text program to analyze instead of a named workload")
	sizeFlag := flag.String("size", "tiny", "workload size: tiny|small|medium|large")
	bugFlag := flag.String("bug", "none", "bug injection: none|uninit|ssl-leak|ssl-shutdown|zlib-uninit|uaf|race|taint")
	seed := flag.Int64("seed", 1, "scheduler seed")
	explain := flag.Bool("explain", false, "print ALDAcc's compilation plan")
	dsOnly := flag.Bool("ds-only", false, "disable coalescing and CSE (Figure 4 ablation)")
	naive := flag.Bool("naive", false, "disable all layout optimizations")
	baseline := flag.Bool("baseline", false, "also run uninstrumented and report overhead")
	flag.Parse()

	opts := compiler.DefaultOptions()
	if *dsOnly {
		opts = compiler.DSOnlyOptions()
	}
	if *naive {
		opts = compiler.NaiveOptions()
	}

	var a *compiler.Analysis
	var err error
	switch {
	case *file != "":
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatal(rerr)
		}
		a, err = compiler.Compile(string(src), opts)
		if err == nil {
			analyses.RegisterExternals(a)
		}
	case *analysisName != "":
		names := strings.Split(*analysisName, ",")
		if len(names) == 1 {
			a, err = analyses.Compile(names[0], opts)
		} else {
			a, err = analyses.CompileCombined(opts, names...)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -analysis or -file; try -analysis uaf -workload memcached -bug uaf")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	if *explain {
		fmt.Print(a.Plan())
	}
	if *workload == "" && *mirFile == "" {
		if !*explain {
			fmt.Println("analysis compiled OK (use -workload or -mir to run it, -explain to see the plan)")
		}
		return
	}

	size, serr := workloads.ParseSize(*sizeFlag)
	bug, berr := workloads.ParseBug(*bugFlag)
	if err := cmp.Or(serr, berr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var p *mir.Program
	if *mirFile != "" {
		src, rerr := os.ReadFile(*mirFile)
		if rerr != nil {
			fatal(rerr)
		}
		p, err = mir.ParseText(string(src))
		if err != nil {
			fatal(err)
		}
		if err := p.Verify(); err != nil {
			fatal(err)
		}
	} else {
		p, err = workloads.BuildBug(*workload, size, bug)
		if err != nil {
			fatal(err)
		}
	}

	opt := core.RunOptions{Seed: *seed}

	res, err := core.RunAnalysis(p, a, opt)
	if err != nil {
		fatal(err)
	}

	if *mirFile != "" {
		fmt.Printf("program=%s\n", *mirFile)
	} else {
		fmt.Printf("workload=%s size=%s bug=%s\n", *workload, size, bug)
	}
	fmt.Printf("steps=%d hooks=%d threads=%d wall=%v\n", res.Steps, res.HookCalls, res.Threads, res.Wall)
	if *baseline {
		plain, err := core.RunPlain(p, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("baseline wall=%v normalized overhead=%.2fx\n", plain.Wall, core.Overhead(res, plain))
	}
	if len(res.Reports) == 0 {
		fmt.Println("no analysis reports")
		return
	}
	fmt.Printf("%d report(s):\n%s", len(res.Reports), vm.FormatReports(res.Reports))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aldacc:", err)
	os.Exit(1)
}
