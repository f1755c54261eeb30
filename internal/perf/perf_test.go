package perf

import (
	"path/filepath"
	"testing"
)

// TestSuiteSmoke runs every bench in smoke mode: fixture setup must
// succeed (containers, compiled analyses, instrumented machines) and
// every measurement must come back positive.
func TestSuiteSmoke(t *testing.T) {
	f := RunSuite(0)
	if len(f.Benches) < 20 {
		t.Fatalf("suite has %d benches, expected the full hot-path matrix", len(f.Benches))
	}
	for name, e := range f.Benches {
		if e.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %v, want > 0", name, e.NsPerOp)
		}
	}
	for _, p := range speedupPairs {
		for _, name := range p {
			if _, ok := f.Benches[name]; !ok {
				t.Errorf("speedup pair bench %s missing from suite", name)
			}
		}
	}
}

func synthFile(scale float64) File {
	f := File{Rev: "synth", Go: "go", Benches: map[string]Entry{}}
	for i, name := range []string{"a", "b", "c", "d"} {
		f.Benches[name] = Entry{NsPerOp: float64(10+i) * scale}
	}
	return f
}

// TestGateSelfTest is the deliberate-slowdown check from the issue: a
// uniform 2x slowdown must fail the 15% gate, an identical run must
// pass, and a uniform 2x speedup must pass.
func TestGateSelfTest(t *testing.T) {
	base := synthFile(1)
	if err := Gate(base, synthFile(2), GateThreshold); err == nil {
		t.Fatal("gate passed a 2x slowdown")
	}
	if err := Gate(base, synthFile(1), GateThreshold); err != nil {
		t.Fatalf("gate failed an identical run: %v", err)
	}
	if err := Gate(base, synthFile(0.5), GateThreshold); err != nil {
		t.Fatalf("gate failed a 2x speedup: %v", err)
	}
	// A single outlier bench must not fail the gate while the geomean
	// holds — and disjoint bench sets must error, not pass vacuously.
	outlier := synthFile(1)
	outlier.Benches["a"] = Entry{NsPerOp: outlier.Benches["a"].NsPerOp * 1.5}
	if err := Gate(base, outlier, GateThreshold); err != nil {
		t.Fatalf("gate failed on a single outlier with a passing geomean: %v", err)
	}
	if _, _, err := Compare(base, File{Benches: map[string]Entry{"zzz": {NsPerOp: 1}}}, GateThreshold); err == nil {
		t.Fatal("compare of disjoint bench sets did not error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := synthFile(1)
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Rev != want.Rev || len(got.Benches) != len(want.Benches) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, want)
	}
	for k, e := range want.Benches {
		if got.Benches[k] != e {
			t.Fatalf("bench %s: %v != %v", k, got.Benches[k], e)
		}
	}
}

// TestBaselineRecordsSpeedup pins the acceptance criterion: the
// checked-in baseline must record a >=1.3x geomean Get/Set speedup of
// the flat-arena hash containers over the map-backed references.
func TestBaselineRecordsSpeedup(t *testing.T) {
	f, err := ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatalf("checked-in baseline unreadable: %v", err)
	}
	s, err := SpeedupVsRef(f)
	if err != nil {
		t.Fatalf("speedup: %v", err)
	}
	if s < 1.3 {
		t.Fatalf("recorded hash Get/Set speedup %.2fx, want >= 1.3x", s)
	}
	t.Logf("recorded flat-arena vs map-backed Get/Set geomean speedup: %.2fx", s)
}
