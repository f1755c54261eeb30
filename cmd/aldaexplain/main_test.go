package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analyses"
	"repro/internal/core"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestGolden pins the full three-configuration plan dump for every
// built-in analysis: the compilation plan (groups, containers, shadow
// factors, savings) is the tool's entire output surface, so any layout
// or selection change shows up as a golden diff here — deliberate
// changes regenerate with -update.
func TestGolden(t *testing.T) {
	for _, name := range analyses.Names() {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-analysis", name, "-compare"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			checkGolden(t, name, stdout.Bytes())
		})
	}
}

// TestGoldenCombined pins the plan for the shipped four-way
// combination (fusion changes the group structure, which this output
// makes visible).
func TestGoldenCombined(t *testing.T) {
	var stdout, stderr bytes.Buffer
	arg := "eraser,fasttrack,uaf,tainttrack"
	if code := run([]string{"-analysis", arg, "-compare"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	checkGolden(t, "combined", stdout.Bytes())
}

// TestGoldenFiles runs the -file path over the examples' extracted
// .alda sources.
func TestGoldenFiles(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*/*.alda")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example .alda files found")
	}
	for _, p := range paths {
		name := filepath.Base(filepath.Dir(p)) + "_" + strings.TrimSuffix(filepath.Base(p), ".alda")
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-file", p}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			checkGolden(t, name, stdout.Bytes())
		})
	}
}

// TestTraceStats: the -trace mode decodes a freshly recorded replay
// trace and reports its event counts and compression ratio.
func TestTraceStats(t *testing.T) {
	prog, err := workloads.Build("fft", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := core.RecordTrace(prog, core.RunOptions{Seed: 1, MaxSteps: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fft.trc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{"program fingerprint:", "scheduler quanta:", "load", "compression"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}

	stderr.Reset()
	if code := run([]string{"-trace", filepath.Join(t.TempDir(), "missing.trc")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing trace: exit %d, want 1", code)
	}
	corrupt := filepath.Join(t.TempDir(), "bad.trc")
	if err := os.WriteFile(corrupt, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-trace", corrupt}, &stdout, &stderr); code != 1 {
		t.Errorf("corrupt trace: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
}

// TestErrors: the documented exit codes for bad invocations.
func TestErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-analysis", "nosuch"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown analysis: exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-file", filepath.Join(t.TempDir(), "missing.alda")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	// An analysis the compiler cannot run: has on a pair-keyed map.
	pair := filepath.Join(t.TempDir(), "pair.alda")
	src := "address := pointer\nv := int64\nm = map(address, map(address, v))\n" +
		"h(address a, address b) { alda_assert(m[a].has(b), 1, \"has\"); }\ninsert after LoadInst call h($1, $1)\n"
	if err := os.WriteFile(pair, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-file", pair}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "has unsupported on m") {
		t.Errorf("pair-keyed has: exit %d, stderr %q; want 1 and the compile error", code, stderr.String())
	}
}
