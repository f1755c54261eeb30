// Package perf is the hot-path micro-benchmark suite and the
// benchmark-regression gate around it. BenchHotPath covers the two
// places every overhead figure in the paper flows through: per-access
// container operations (internal/meta) and per-event handler dispatch
// (internal/vm + compiler-generated closures). Results serialize to
// BENCH_<rev>.json; Compare implements `make benchgate`, failing on a
// >15% geometric-mean regression against the checked-in baseline.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// Entry is one benchmark result.
type Entry struct {
	NsPerOp float64 `json:"ns_per_op"`
}

// File is the on-disk BENCH_<rev>.json schema.
type File struct {
	Rev     string           `json:"rev"`
	Go      string           `json:"go"`
	Benches map[string]Entry `json:"benches"`
}

// Bench is one micro-benchmark. Setup builds all fixture state and
// returns the measured closure; fn(n) performs the operation n times.
type Bench struct {
	Name  string
	Setup func() func(n int)
}

// GateThreshold is the geomean regression ratio above which the bench
// gate fails: cur/base geomean > 1+GateThreshold.
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

// RunSuite measures every bench in BenchHotPath.
func RunSuite(budget time.Duration) File {
	f := File{
		Rev:     "dev",
		Go:      runtime.Version(),
		Benches: make(map[string]Entry),
	}
	for _, b := range HotPathBenches() {
		f.Benches[b.Name] = Measure(b, budget)
	}
	return f
}

// WriteFile writes f as deterministic, human-diffable JSON.
func WriteFile(path string, f File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a BENCH_*.json.
func ReadFile(path string) (File, error) {
	var f File
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benches) == 0 {
		return f, fmt.Errorf("%s: no benches recorded", path)
	}
	return f, nil
}

// Compare computes the geometric-mean ratio cur/base over the benches
// present in both files, plus the sorted list of individual benches that
// regressed by more than threshold. It errors when the files share no
// benches (a renamed suite would otherwise pass vacuously).
func Compare(base, cur File, threshold float64) (geomean float64, regressed []string, err error) {
	var logSum float64
	n := 0
	for name, b := range base.Benches {
		c, ok := cur.Benches[name]
		if !ok || b.NsPerOp <= 0 || c.NsPerOp <= 0 {
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		logSum += math.Log(ratio)
		n++
		if ratio > 1+threshold {
			regressed = append(regressed, fmt.Sprintf("%s: %.1fns -> %.1fns (%.2fx)", name, b.NsPerOp, c.NsPerOp, ratio))
		}
	}
	if n == 0 {
		return 0, nil, fmt.Errorf("no common benches between baseline and current run")
	}
	sort.Strings(regressed)
	return math.Exp(logSum / float64(n)), regressed, nil
}

// Gate runs Compare and turns the result into pass/fail: the gate fails
// when the geomean ratio exceeds 1+threshold. Individual regressions are
// reported but only the geomean gates, so one noisy micro-bench cannot
// fail CI by itself.
func Gate(base, cur File, threshold float64) error {
	geomean, regressed, err := Compare(base, cur, threshold)
	if err != nil {
		return err
	}
	for _, r := range regressed {
		fmt.Fprintf(os.Stderr, "benchgate: slower: %s\n", r)
	}
	if geomean > 1+threshold {
		return fmt.Errorf("geomean regression %.2fx exceeds the %.0f%% gate", geomean, threshold*100)
	}
	fmt.Fprintf(os.Stderr, "benchgate: geomean ratio %.3fx (gate at %.2fx), %d benches\n", geomean, 1+threshold, len(cur.Benches))
	return nil
}

// speedupPairs maps each flat-arena container bench to its map-backed
// reference bench; SpeedupVsRef aggregates over these.
var speedupPairs = [][2]string{
	{"refmap/hash/get", "container/hash/get"},
	{"refmap/hash/set", "container/hash/set"},
	{"refmap/hash2/get", "container/hash2/get"},
	{"refmap/hash2/set", "container/hash2/set"},
}

// SpeedupVsRef returns the geometric-mean Get/Set speedup of the
// flat-arena hash containers over the retained map-backed reference
// implementations, as recorded in f (reference ns / container ns).
func SpeedupVsRef(f File) (float64, error) {
	var logSum float64
	n := 0
	for _, p := range speedupPairs {
		ref, ok1 := f.Benches[p[0]]
		cur, ok2 := f.Benches[p[1]]
		if !ok1 || !ok2 || ref.NsPerOp <= 0 || cur.NsPerOp <= 0 {
			return 0, fmt.Errorf("bench pair %s/%s missing from file", p[0], p[1])
		}
		logSum += math.Log(ref.NsPerOp / cur.NsPerOp)
		n++
	}
	return math.Exp(logSum / float64(n)), nil
}
