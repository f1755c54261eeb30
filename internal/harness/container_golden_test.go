package harness

import (
	"bytes"
	"testing"

	"repro/internal/workloads"
)

// Virtual-table goldens over real experiment runs. Unlike the rendering
// goldens in golden_test.go (hand-built tables), these execute actual
// workload×analysis grids in Virtual mode and pin the byte-exact output
// — verdicts, step-derived timings and table layout. They are the
// regression gate for data-structure swaps: a container rewrite must
// not move a single step count, hook count or report, so these files
// must never need -update for a pure-optimization PR.
func virtualGridConfig() Config {
	return Config{
		Size:        workloads.SizeTiny,
		Virtual:     true,
		Parallelism: 4,
	}
}

func TestVirtualGoldenFig4(t *testing.T) {
	cfg := virtualGridConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	if _, err := Fig4(cfg); err != nil {
		t.Fatalf("fig4: %v", err)
	}
	checkGolden(t, "virtual_fig4_tiny", buf.String())
}

func TestVirtualGoldenFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("combined-analysis grid is the slow one; skipped in -short")
	}
	cfg := virtualGridConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	if _, err := Fig5(cfg); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	checkGolden(t, "virtual_fig5_tiny", buf.String())
}

func TestVirtualGoldenGranularity(t *testing.T) {
	cfg := virtualGridConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	if _, err := Granularity(cfg); err != nil {
		t.Fatalf("gran: %v", err)
	}
	checkGolden(t, "virtual_gran_tiny", buf.String())
}

// TestVirtualGoldenAblate pins the ablation grid. Virtual time counts
// steps and hook dispatches, which the handler backend does not change,
// so staging a configuration leaves this table byte-identical.
func TestVirtualGoldenAblate(t *testing.T) {
	cfg := virtualGridConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	if _, err := Ablate(cfg); err != nil {
		t.Fatalf("ablate: %v", err)
	}
	checkGolden(t, "virtual_ablate_tiny", buf.String())
}
