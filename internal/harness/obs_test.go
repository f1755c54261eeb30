package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestObsGoldenVirtual pins the -virtual observability surface byte for
// byte: the rendered attribution table and the deterministic metrics
// JSON for two tiny workloads. The VM is deterministic, so any drift
// here is a real behavior change (an opcode added to a hot path, a
// container picking a different impl, a hook firing more often), not
// noise — exactly the class of change that should show up in review.
func TestObsGoldenVirtual(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	cfg := Config{
		Size:        workloads.SizeTiny,
		Reps:        1,
		Out:         &buf,
		Parallelism: 1,
		Virtual:     true,
		Metrics:     reg,
		Opt:         core.RunOptions{Seed: 1},
	}
	if _, err := Attrib(cfg, "uaf", []string{"bzip2", "fft"}); err != nil {
		t.Fatalf("attrib: %v", err)
	}
	checkGolden(t, "attrib_uaf_tiny", buf.String())

	var js bytes.Buffer
	if err := reg.WriteJSON(&js, false); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	checkGolden(t, "metrics_uaf_tiny", js.String())
}

// TestMetricsPromGoldenVirtual pins the Prometheus text exposition of
// the same deterministic sweep: the format aldabench -metrics-out
// FILE.prom emits. The export is validated with the strict in-repo
// parser before pinning, so the golden can never encode an exposition
// a real scraper would reject.
func TestMetricsPromGoldenVirtual(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	cfg := Config{
		Size:        workloads.SizeTiny,
		Reps:        1,
		Out:         &buf,
		Parallelism: 1,
		Virtual:     true,
		Metrics:     reg,
		Opt:         core.RunOptions{Seed: 1},
	}
	if _, err := Attrib(cfg, "uaf", []string{"bzip2", "fft"}); err != nil {
		t.Fatalf("attrib: %v", err)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom, false); err != nil {
		t.Fatalf("metrics prom: %v", err)
	}
	if _, err := obs.ValidatePromText(prom.Bytes()); err != nil {
		t.Fatalf("exposition fails its own validator: %v", err)
	}
	checkGolden(t, "metrics_uaf_tiny_prom", prom.String())
}

// fig4Metrics runs Figure 4 at tiny/virtual with the given parallelism
// and checkpoint settings and returns the deterministic metrics export.
func fig4Metrics(t *testing.T, parallelism int, ckpt string, resume bool) string {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := Config{
		Size:           workloads.SizeTiny,
		Reps:           1,
		Parallelism:    parallelism,
		Virtual:        true,
		Metrics:        reg,
		Opt:            core.RunOptions{Seed: 1},
		CheckpointPath: ckpt,
		Resume:         resume,
	}
	if _, err := Fig4(cfg); err != nil {
		t.Fatalf("fig4 (parallelism=%d resume=%v): %v", parallelism, resume, err)
	}
	var js bytes.Buffer
	if err := reg.WriteJSON(&js, false); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	return js.String()
}

// TestMetricsDeterministicAcrossModes asserts the deterministic counter
// export is byte-identical whether the sweep ran serially, fanned out
// across workers, or was interrupted and resumed from a truncated
// checkpoint — the shard-merge discipline is commutative addition, so
// scheduling must not leak into the numbers.
func TestMetricsDeterministicAcrossModes(t *testing.T) {
	serial := fig4Metrics(t, 1, "", false)

	if parallel := fig4Metrics(t, 8, "", false); parallel != serial {
		t.Errorf("parallel sweep metrics differ from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}

	ckpt := filepath.Join(t.TempDir(), "fig4.ckpt.jsonl")
	if full := fig4Metrics(t, 4, ckpt, false); full != serial {
		t.Errorf("checkpointing sweep metrics differ from serial:\n--- serial ---\n%s--- checkpointed ---\n%s", serial, full)
	}

	// Simulate an interrupted sweep: keep only the first few checkpoint
	// records, then resume. Resumed cells merge their recorded counts;
	// the rest re-run live.
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	var trunc []byte
	for i := 0; i < 7 && i < len(lines); i++ {
		trunc = append(trunc, lines[i]...)
	}
	if err := os.WriteFile(ckpt, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	if resumed := fig4Metrics(t, 4, ckpt, true); resumed != serial {
		t.Errorf("resumed sweep metrics differ from serial:\n--- serial ---\n%s--- resumed ---\n%s", serial, resumed)
	}
}
