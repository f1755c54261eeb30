// Package perf is the hot-path micro-benchmark suite and the paired
// comparator that gates it. BenchHotPath covers the two places every
// overhead figure in the paper flows through: per-access container
// operations (internal/meta) and per-event handler dispatch
// (internal/vm + compiler-generated closures). Results serialize to
// BENCH_<rev>.json. CompareDirs pairs two builds' rounds, as
// scripts/ab.sh runs them, and fails a regression of one bench or of
// their geometric mean (`make benchgate`).
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// Entry is one benchmark result.
type Entry struct {
	NsPerOp float64 `json:"ns_per_op"`
}

// File is the on-disk BENCH_<rev>.json schema.
type File struct {
	Rev     string           `json:"rev"`
	Benches map[string]Entry `json:"benches"`
}

// Bench is one micro-benchmark. Setup builds all fixture state and
// returns the measured closure; fn(n) performs the operation n times.
type Bench struct {
	Name  string
	Setup func() func(n int)
}

// GateThreshold is the regression the bench gate tolerates: a bench,
// or the geomean, fails when its median paired ratio change ÷ base
// exceeds 1+GateThreshold (see gateStats).
const GateThreshold = 0.15

// sink defeats dead-code elimination in read benchmarks.
var sink uint64

// Measure times one bench. A positive budget grows the iteration count
// until a single timed batch spans at least the budget (testing.B-style
// calibration); budget <= 0 is the smoke mode — one fixed small batch
// that exercises the path without trying to be statistically meaningful.
func Measure(b Bench, budget time.Duration) Entry {
	fn := b.Setup()
	fn(1) // warm caches, materialize fixtures
	if budget <= 0 {
		const n = 256
		start := time.Now()
		fn(n)
		return Entry{NsPerOp: float64(time.Since(start).Nanoseconds()) / n}
	}
	n := 64
	for {
		start := time.Now()
		fn(n)
		el := time.Since(start)
		if el >= budget || n >= 1<<28 {
			return Entry{NsPerOp: float64(el.Nanoseconds()) / float64(n)}
		}
		next := n * 2
		if el > 0 {
			// Aim 20% past the budget to finish in one more batch.
			if t := int(float64(n) * 1.2 * float64(budget) / float64(el)); t > next {
				next = t
			}
		} else {
			next = n * 100
		}
		n = next
	}
}

// RunSuite measures the benches of BenchHotPath that names lists, or
// every bench when names is empty. An unknown name is an error.
func RunSuite(budget time.Duration, names ...string) (File, error) {
	f := File{
		Rev:     "dev",
		Benches: make(map[string]Entry),
	}
	for _, b := range HotPathBenches() {
		if len(names) == 0 || slices.Contains(names, b.Name) {
			f.Benches[b.Name] = Measure(b, budget)
		}
	}
	for _, n := range names {
		if _, ok := f.Benches[n]; !ok {
			return f, fmt.Errorf("perf: no bench %q", n)
		}
	}
	return f, nil
}

// WriteFile writes f as deterministic, human-diffable JSON.
func WriteFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
