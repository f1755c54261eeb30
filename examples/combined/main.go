// combined reproduces §6.4.2's headline: combining analyses is as
// simple as concatenating their ALDA sources, and the combined analysis
// runs faster than the sum of its parts because ALDAcc coalesces their
// metadata and shares lookups across them.
package main

import (
	"fmt"
	"log"
	"time"

	alda "repro"
	"repro/internal/analyses"
	"repro/internal/workloads"
)

func timeRun(an *alda.Analysis, prog *alda.Program) (time.Duration, int) {
	inst, err := an.Instrument(prog)
	if err != nil {
		log.Fatal(err)
	}
	// Warm-up + three measured runs, best-of to damp scheduler noise.
	best := time.Duration(0)
	reports := 0
	for i := 0; i < 4; i++ {
		res, err := alda.Run(inst, an, alda.RunConfig{})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			continue
		}
		if best == 0 || res.Wall < best {
			best = res.Wall
		}
		reports = len(res.Reports)
	}
	return best, reports
}

func compile(names ...string) *alda.Analysis {
	src, err := analyses.Combined(names...)
	if err != nil {
		log.Fatal(err)
	}
	an, err := alda.Compile(src, alda.DefaultOptions())
	if err != nil {
		log.Fatalf("compile %v: %v", names, err)
	}
	for name, fn := range analyses.FastTrackExternals() {
		an.RegisterExternal(name, fn)
	}
	return an
}

func main() {
	parts := []string{"eraser", "fasttrack", "uaf", "tainttrack"}
	prog, err := workloads.Build("fft", workloads.SizeSmall)
	if err != nil {
		log.Fatal(err)
	}

	plain, err := alda.Run(prog, nil, alda.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fft baseline: %v\n\n", plain.Wall)

	var sum time.Duration
	partFindings := 0
	for _, name := range parts {
		an := compile(name)
		wall, nrep := timeRun(an, prog)
		sum += wall
		partFindings += nrep
		fmt.Printf("%-11s alone:    %10v (%.1fx, %d findings)\n",
			name, wall, float64(wall)/float64(plain.Wall), nrep)
	}

	combined := compile(parts...)
	wall, nrep := timeRun(combined, prog)
	fmt.Printf("\nsum of individual runs: %10v (%.1fx)\n", sum, float64(sum)/float64(plain.Wall))
	fmt.Printf("combined (one run):     %10v (%.1fx, %d findings)\n",
		wall, float64(wall)/float64(plain.Wall), nrep)
	fmt.Printf("speedup from combining: %.1f%%\n", (1-float64(wall)/float64(sum))*100)
	if nrep != partFindings {
		log.Fatalf("combined run reported %d findings, the four parts %d together", nrep, partFindings)
	}
}
