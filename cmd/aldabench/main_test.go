package main

import "testing"

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
