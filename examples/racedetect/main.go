// racedetect runs the paper's two data-race detectors — Eraser
// (lockset) and FastTrack (happens-before epochs) — over the radiosity
// workload with and without its injected race, showing how the two
// algorithms agree on the real bug.
package main

import (
	"fmt"
	"log"

	alda "repro"
	"repro/internal/analyses"
	"repro/internal/workloads"
)

func run(analysis string, bug workloads.Bug) int {
	an, err := alda.Compile(analyses.MustSource(analysis), alda.DefaultOptions())
	if err != nil {
		log.Fatalf("compile %s: %v", analysis, err)
	}
	// FastTrack's vector clocks live in external functions (ALDA's
	// escape hatch); wire in their Go implementations.
	for name, fn := range analyses.FastTrackExternals() {
		an.RegisterExternal(name, fn)
	}
	prog, err := workloads.BuildBug("radiosity", workloads.SizeTiny, bug)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := an.Instrument(prog)
	if err != nil {
		log.Fatal(err)
	}
	res, err := alda.Run(inst, an, alda.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Reports {
		fmt.Printf("  %v\n", r)
	}
	return len(res.Reports)
}

func main() {
	for _, analysis := range []string{"eraser", "fasttrack"} {
		fmt.Printf("== %s on radiosity (lock-protected total) ==\n", analysis)
		clean := run(analysis, workloads.BugNone)
		fmt.Printf("== %s on radiosity (unprotected total — injected race) ==\n", analysis)
		buggy := run(analysis, workloads.BugRace)
		fmt.Printf("%s: %d findings clean, %d findings with the race injected\n\n", analysis, clean, buggy)
		if buggy <= clean {
			log.Fatalf("%s: the injected race added no findings", analysis)
		}
	}
}
