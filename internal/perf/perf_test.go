package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuiteSmoke runs every bench in smoke mode: fixture setup must
// succeed (containers, compiled analyses, instrumented machines) and
// every measurement must come back positive.
func TestSuiteSmoke(t *testing.T) {
	f, err := RunSuite(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benches) < 20 {
		t.Fatalf("suite has %d benches, expected the full hot-path matrix", len(f.Benches))
	}
	for name, e := range f.Benches {
		if e.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v, want > 0", name, e.NsPerOp)
		}
	}
}

func synthFile(scale float64) File {
	f := File{Rev: "synth", Benches: map[string]Entry{}}
	for i, name := range []string{"a", "b", "c", "d"} {
		f.Benches[name] = Entry{NsPerOp: float64(10+i) * scale}
	}
	return f
}

// synthRounds returns ten rounds of the synthetic suite with a little
// deterministic jitter, each bench scaled by scale(round, bench).
func synthRounds(scale func(r int, name string) float64) []Round {
	var rounds []Round
	for r := 0; r < 10; r++ {
		f := synthFile(1 + 0.01*float64(r%3))
		round := Round{}
		for name, e := range f.Benches {
			round[name] = Sample{Value: e.NsPerOp * scale(r, name), Unit: "ns/op"}
		}
		rounds = append(rounds, round)
	}
	return rounds
}

// TestGateSelfTest pins the paired gate: a uniform 2x slowdown fails,
// identical rounds and a uniform 2x speedup pass, a spike in one round
// on one bench passes, one bench 20% slower in every round fails, and
// disjoint bench sets are an error rather than a vacuous pass.
func TestGateSelfTest(t *testing.T) {
	base := synthRounds(func(int, string) float64 { return 1 })
	for _, tc := range []struct {
		name  string
		scale func(r int, name string) float64
		fail  bool
	}{
		{"2x slower", func(int, string) float64 { return 2 }, true},
		{"identical", func(int, string) float64 { return 1 }, false},
		{"2x faster", func(int, string) float64 { return 0.5 }, false},
		{"one spike", func(r int, name string) float64 {
			if r == 4 && name == "b" {
				return 3
			}
			return 1
		}, false},
		{"one bench 20% slower", func(_ int, name string) float64 {
			if name == "c" {
				return 1.2
			}
			return 1
		}, true},
	} {
		stats, err := compareRounds(base, synthRounds(tc.scale))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := gateStats(stats, GateThreshold); (err != nil) != tc.fail {
			var out strings.Builder
			writeStats(&out, stats)
			t.Errorf("%s: gate error %v, want failure %v\n%s", tc.name, err, tc.fail, out.String())
		}
	}
	disjoint := synthRounds(func(int, string) float64 { return 1 })
	for _, r := range disjoint {
		r["zzz"] = r["a"]
		delete(r, "a")
		delete(r, "b")
		delete(r, "c")
		delete(r, "d")
	}
	if _, err := compareRounds(base, disjoint); err == nil {
		t.Fatal("compare of disjoint bench sets did not error")
	}
}

// TestJSONRoundTrip writes bench files with WriteFile and reads them
// back as scripts/ab.sh lays them out: one directory per round, whose
// bench files (-bench-json's, one per bench or one for the suite, a
// bench's fastest run kept) and figbench result lines merge.
func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for r := 1; r <= 2; r++ {
		round := filepath.Join(dir, fmt.Sprintf("r%02d", r))
		if err := os.Mkdir(round, 0o755); err != nil {
			t.Fatal(err)
		}
		f := synthFile(float64(r))
		for name, e := range f.Benches {
			one := File{Rev: "synth", Benches: map[string]Entry{name: e}}
			if err := WriteFile(filepath.Join(round, name+".json"), one); err != nil {
				t.Fatal(err)
			}
		}
	}
	fig := filepath.Join(dir, "r03")
	if err := os.Mkdir(fig, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fig, "0.json"), []byte(`{"correct":true,"metrics":{"overhead":{"value":2.5,"unit":"x"}}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A second, slower run of b in round 1, read last, leaves the faster.
	if err := WriteFile(filepath.Join(dir, "r01", "z.json"), File{Benches: map[string]Entry{"b": {NsPerOp: 30}}}); err != nil {
		t.Fatal(err)
	}
	rounds, err := readRounds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || len(rounds[0]) != 4 || rounds[0]["b"] != (Sample{11, "ns/op"}) ||
		rounds[1]["b"] != (Sample{22, "ns/op"}) || rounds[2]["overhead"] != (Sample{2.5, "x"}) {
		t.Fatalf("rounds = %v", rounds)
	}
}
