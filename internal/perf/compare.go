package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Sample is one metric's value in one round.
type Sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Round is one side's measurements in one round, by metric name.
type Round map[string]Sample

// nsPerOp is the unit of a micro bench; gateStats judges only such metrics.
const nsPerOp = "ns/op"

// readRounds reads one side's rounds from dir. Each subdirectory, in
// name order, is one round, and every file in it, one JSON object,
// merges into it: a bench file as -bench-json writes it (every bench a
// metric in ns/op) or a figbench result line (its metrics). A bench
// measured more than once in a round keeps its fastest run, as a
// harness leg does.
func readRounds(dir string) ([]Round, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		return nil, err
	}
	var rounds []Round
	for i, path := range files {
		if i == 0 || filepath.Dir(path) != filepath.Dir(files[i-1]) {
			rounds = append(rounds, Round{})
		}
		var v struct {
			Benches map[string]Entry  `json:"benches"`
			Metrics map[string]Sample `json:"metrics"`
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &v)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r := rounds[len(rounds)-1]
		maps.Copy(r, v.Metrics)
		for name, e := range v.Benches {
			if old, ok := r[name]; !ok || e.NsPerOp < old.Value {
				r[name] = Sample{Value: e.NsPerOp, Unit: nsPerOp}
			}
		}
	}
	return rounds, nil
}

// Stat compares one metric over paired rounds: each side's first
// quartile, median and third quartile, the rounds in which the change
// read below and above the base, and the median of the per-round
// ratios change ÷ base.
type Stat struct {
	Name, Unit            string
	Base, Change          [3]float64
	Lower, Higher, Rounds int
	Ratio                 float64
}

// compareRounds pairs base[i] with change[i], round by round, for every
// metric both sides measured in every round, and adds the per-round
// geometric mean of the micro benches as "geomean". Stats come out
// sorted by name, the geomean last.
func compareRounds(base, change []Round) ([]Stat, error) {
	if len(base) == 0 || len(base) != len(change) {
		return nil, fmt.Errorf("perf: %d base rounds against %d change rounds", len(base), len(change))
	}
	var names []string
	all := slices.Concat(base, change)
	for name := range base[0] {
		if !slices.ContainsFunc(all, func(r Round) bool { _, ok := r[name]; return !ok }) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("perf: no metric measured in every round of both sides")
	}
	sort.Strings(names)
	var stats []Stat
	// logs sums each side's per-round logs of the micro benches.
	logs, micro := [2][]float64{make([]float64, len(base)), make([]float64, len(base))}, 0.0
	for _, name := range names {
		var v [2][]float64
		for r := range base {
			v[0] = append(v[0], base[r][name].Value)
			v[1] = append(v[1], change[r][name].Value)
		}
		unit := base[0][name].Unit
		stats = append(stats, compareOne(name, unit, v[0], v[1]))
		if unit == nsPerOp {
			micro++
			for side := range v {
				for r, x := range v[side] {
					logs[side][r] += math.Log(x)
				}
			}
		}
	}
	if micro > 0 {
		for side := range logs {
			for r := range logs[side] {
				logs[side][r] = math.Exp(logs[side][r] / micro)
			}
		}
		stats = append(stats, compareOne("geomean", nsPerOp, logs[0], logs[1]))
	}
	return stats, nil
}

func compareOne(name, unit string, b, c []float64) Stat {
	s := Stat{Name: name, Unit: unit, Rounds: len(b), Base: quartiles(b), Change: quartiles(c)}
	ratios := make([]float64, len(b))
	for r := range b {
		ratios[r] = c[r] / b[r]
		if c[r] < b[r] {
			s.Lower++
		} else if c[r] > b[r] {
			s.Higher++
		}
	}
	s.Ratio = quartiles(ratios)[1]
	return s
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		q[i] = s[lo]
		if lo+1 < len(s) {
			q[i] += (pos - float64(lo)) * (s[lo+1] - s[lo])
		}
	}
	return q
}

// writeStats prints one line per metric: each side's median with its
// quartiles, the rounds in which the change read lower, and the median
// paired ratio.
func writeStats(w io.Writer, stats []Stat) {
	fmt.Fprintf(w, "%-28s %-6s %-34s %-34s %6s %7s\n", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "lower", "ratio")
	side := func(q [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2]) }
	for _, s := range stats {
		fmt.Fprintf(w, "%-28s %-6s %-34s %-34s %6s %7.3f\n", s.Name, s.Unit,
			side(s.Base), side(s.Change), fmt.Sprintf("%d/%d", s.Lower, s.Rounds), s.Ratio)
	}
}

// CompareDirs reads the rounds in the base and change directories,
// writes their comparison to w and gates it at GateThreshold.
func CompareDirs(w io.Writer, base, change string) error {
	var sides [2][]Round
	for i, dir := range []string{base, change} {
		var err error
		if sides[i], err = readRounds(dir); err != nil {
			return err
		}
	}
	stats, err := compareRounds(sides[0], sides[1])
	if err != nil {
		return err
	}
	writeStats(w, stats)
	return gateStats(stats, GateThreshold)
}

// gateStats fails when a micro bench (a metric in ns/op), or their geomean,
// is slower in at least 9 of every 10 rounds with a median paired
// ratio above 1+threshold. Pairing absorbs what a whole round shares,
// such as the machine's load, and the 9-in-10 rule one disturbed round.
func gateStats(stats []Stat, threshold float64) error {
	var slow []string
	for _, s := range stats {
		if s.Unit == nsPerOp && 10*s.Higher >= 9*s.Rounds && s.Ratio > 1+threshold {
			slow = append(slow, fmt.Sprintf("%s %.2fx, slower in %d/%d rounds", s.Name, s.Ratio, s.Higher, s.Rounds))
		}
	}
	if len(slow) > 0 {
		return fmt.Errorf("slower beyond the %.0f%% gate: %s", threshold*100, strings.Join(slow, "; "))
	}
	return nil
}
