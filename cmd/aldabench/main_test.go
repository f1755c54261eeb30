package main

import (
	"testing"

	"repro/internal/analyses"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// TestKnownExperiment pins -exp to exact names: a fragment or a run of
// several names used to pass the check and run nothing.
func TestKnownExperiment(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"all", true},
		{"fig3", true},
		{"fig4", true},
		{"table4", true},
		{"gran", true},
		{"replay", true},
		{"fig", false},
		{"ig4 f", false},
		{"fig4 fig5", false},
		{"Fig4", false},
		{"fig4 ", false},
		{"", false},
		{"bogus", false},
	} {
		if got := knownExperiment(tc.name); got != tc.want {
			t.Errorf("knownExperiment(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEveryExperimentRuns runs every -exp at tiny size on the virtual
// clock, and -attrib for every shipped analysis. Their columns name
// staged variants, and analyses.Variant refuses one the staged table
// does not cover, so a column that would run on the closure emitter
// fails here.
func TestEveryExperimentRuns(t *testing.T) {
	cfg := harness.Config{Size: workloads.SizeTiny, Virtual: true, TraceDir: t.TempDir(), TraceRecord: true}
	for _, e := range experiments {
		if err := e.run(cfg); err != nil {
			t.Errorf("-exp %s: %v", e.name, err)
		}
	}
	for _, n := range analyses.Names() {
		if _, err := harness.Attrib(cfg, n, nil); err != nil {
			t.Errorf("-attrib %s: %v", n, err)
		}
	}
}
