package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one workload at size tiny with the fewest passes and
// returns its info line and parsed result.
func runTiny(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--size", "tiny", "--seconds", "0", "--out-dir", t.TempDir()}, args...)
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("figbench %v: %v\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("figbench %v printed %q", args, stdout.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("figbench %v: correct=%v failed=%d attempted=%d\n%s",
			args, res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	return lines[len(lines)-2], res
}

// checkMetrics asserts the result holds exactly the named metrics with
// their units.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s missing", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestProgramSets runs every workload at size tiny on seeds 1 and 2:
// every program of every figure runs clean, every verdict check passes,
// and the result carries the six end-to-end metrics.
func TestProgramSets(t *testing.T) {
	spec := loadSpec(t)
	cells := map[string]int{"msan": 20, "eraser": 12, "combined": 15, "replay": 18}
	if len(spec.Workloads) != len(cells) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(cells))
	}
	for _, w := range spec.Workloads {
		for _, seed := range []string{"1", "2"} {
			t.Run(w.Name+"/seed"+seed, func(t *testing.T) {
				info, res := runTiny(t, "--workload", w.Name, "--seed", seed)
				if want := "cells=" + strconv.Itoa(cells[w.Name]) + " "; !strings.Contains(info, want) {
					t.Errorf("info line %q, want %s", info, want)
				}
				checkMetrics(t, res.Metrics, spec.EndToEnd)
				if v := res.Metrics["pass_frac"].Value; v != 1 {
					t.Errorf("pass_frac = %v, want 1", v)
				}
			})
		}
	}
}

// TestTracedRun checks the traced run's per-layer metrics and trace file.
func TestTracedRun(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range []string{"combined", "replay"} {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := []string{"--size", "tiny", "--seconds", "0", "--out-dir", dir, "--workload", w, "--trace", "1"}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run not correct:\n%s", stderr.String())
			}
			checkMetrics(t, res.Metrics, spec.PerLayer)
			for _, name := range []string{"bench.trace_overhead", "vm.hook_calls", "compiler.compile_ms", "meta.ops_per_event"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			if w == "replay" && res.Metrics["trace.replay_ns_per_step"].Value <= 0 {
				t.Errorf("trace.replay_ns_per_step not reported on replay")
			}
			if w == "combined" && res.Metrics["compiler.fused_hooks"].Value <= 0 {
				t.Errorf("compiler.fused_hooks not reported on combined")
			}
			if _, err := os.Stat(filepath.Join(dir, "figbench-"+w+"-seed1.trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBadArguments: a bad invocation fails without a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "msan", "--trace", "2"},
		{"--workload", "msan", "--engine", "jit"},
		{"--workload", "msan", "--engine", "replay"},
		{"--workload", "msan", "--size", "medium"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("figbench %v succeeded", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("figbench %v printed %q", args, stdout.String())
		}
	}
}
