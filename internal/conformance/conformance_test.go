package conformance

import (
	"flag"
	"testing"
)

// -conform-seeds scales the sweep: tier-1 `go test` uses a small fixed
// corpus; `make conform` runs 200; a nightly job can go higher. Seeds
// are 0..N-1, so every sweep is a superset of the smaller ones.
var conformSeeds = flag.Int("conform-seeds", 24, "number of generated workloads for TestConform")

// TestConform is the differential sweep: every generated workload,
// every shipped analysis, every applicable ablation configuration,
// plus oracle legs and schedule invariance for threaded workloads.
func TestConform(t *testing.T) {
	r := NewRunner()
	for seed := uint64(0); seed < uint64(*conformSeeds); seed++ {
		seed := seed
		w := Generate(seed)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ms, err := r.Check(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				t.Errorf("%s", m)
			}
		})
	}
}

// TestConformCombined covers the fusion and union metamorphic
// properties on a slice of the corpus (the combined analysis compiles
// once; per-workload cost is instrumentation + runs).
func TestConformCombined(t *testing.T) {
	r := NewRunner()
	n := uint64(*conformSeeds) / 2
	if n == 0 {
		n = 1
	}
	for seed := uint64(0); seed < n; seed++ {
		seed := seed
		w := Generate(seed)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ms, err := r.CheckCombined(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				t.Errorf("%s", m)
			}
		})
	}
}

// TestConformStaged is the staged leg of the sweep: every staged
// variant, every generated workload, the staged handler table against
// the closure emitter over the same configuration.
func TestConformStaged(t *testing.T) {
	pairs, err := CompileStagedPairs()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	for seed := uint64(0); seed < uint64(*conformSeeds); seed++ {
		w := Generate(seed)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			ms, err := r.CheckStaged(w, pairs)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				t.Errorf("%s", m)
			}
		})
	}
}
