package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/workloads"
)

// fixedAdaptProfile is the pinned training profile for the golden and
// determinism tests: addr2label hot, addr2size cold (16 < 4096/16), the
// split the adaptive pass must decide.
func fixedAdaptProfile() *compiler.Profile {
	return &compiler.Profile{Counts: map[string]uint64{"addr2label": 4096, "addr2size": 16}}
}

// TestAdaptiveTableGolden pins the adaptive -virtual table AND the
// adaptation decision log for a fixed profile, and asserts the render
// is byte-identical between serial and 8-way parallel sweeps — the
// hot-swap must not make cell results order-dependent.
func TestAdaptiveTableGolden(t *testing.T) {
	render := func(parallelism int) string {
		var buf bytes.Buffer
		cfg := Config{
			Size:        workloads.SizeTiny,
			Reps:        1,
			Virtual:     true,
			Parallelism: parallelism,
			Out:         &buf,
			PGOProfile:  fixedAdaptProfile(),
		}
		if _, err := Adapt(cfg); err != nil {
			t.Fatalf("Adapt parallelism=%d: %v", parallelism, err)
		}
		return buf.String()
	}
	serial := render(1)
	if parallel := render(8); parallel != serial {
		t.Errorf("adaptive render differs between serial and parallel runs\n--- serial ---\n%s--- parallel=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "split-cold addr2size") {
		t.Errorf("output lacks the cold-split decision\n%s", serial)
	}
	checkGolden(t, "adapt_virtual", serial)
}

// TestAdaptiveResumeMidSwap: a sweep checkpointed and killed BEFORE any
// hot-swapped cell completed (truncated to the profiling-quantum
// prefix) must resume to a byte-identical table — the resumed sweep
// re-derives the same profile, the same adaptation decisions, and the
// same adapted analysis.
func TestAdaptiveResumeMidSwap(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "adapt.jsonl")
	render := func(path string, resume bool, parallelism int, progress io.Writer) string {
		var buf bytes.Buffer
		cfg := Config{
			Size: workloads.SizeTiny, Reps: 1, Virtual: true, Parallelism: parallelism,
			Out: &buf, KeepGoing: true, CheckpointPath: path, Resume: resume,
			Progress: progress,
		}
		if _, err := Adapt(cfg); err != nil {
			t.Fatalf("Adapt (resume=%v): %v", resume, err)
		}
		return buf.String()
	}
	clean := render("", false, 4, nil)
	// Serial run: cells complete in index order, so the checkpoint's
	// record order is the grid order and a prefix cut lands exactly
	// "before the swap".
	full := render(ckpt, false, 1, nil)
	if full != clean {
		t.Fatalf("checkpointing changed the rendered output\n--- clean ---\n%s--- checkpointed ---\n%s", clean, full)
	}

	// Keep the first program's cells plus the next baseline: everything
	// recorded so far ran static or profiling layouts — the hot swap has
	// not happened yet.
	const keep = 7
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) <= keep {
		t.Fatalf("checkpoint has only %d records", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:keep], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	var progress bytes.Buffer
	resumed := render(ckpt, true, 4, &progress)
	if resumed != clean {
		t.Errorf("mid-swap resume differs from uninterrupted run\n--- clean ---\n%s--- resumed ---\n%s", clean, resumed)
	}
	if n := strings.Count(progress.String(), "resumed from checkpoint"); n != keep {
		t.Errorf("resumed %d cells from the truncated checkpoint, want %d", n, keep)
	}
}

// TestAdaptiveConcurrentSwap is the -race proof that concurrent cells
// share one adapted CachedCompile entry during the swap: 8 workers race
// into the hot swap, and a second identical sweep (fresh adaptState,
// same fingerprint) performs zero additional compiles — every adapted
// cell of both sweeps used the one cached entry.
func TestAdaptiveConcurrentSwap(t *testing.T) {
	compiler.ResetCompileCache()
	defer compiler.ResetCompileCache()
	run := func() string {
		var buf bytes.Buffer
		cfg := Config{
			Size: workloads.SizeTiny, Reps: 1, Virtual: true, Parallelism: 8,
			Out: &buf,
		}
		if _, err := Adapt(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := run()
	_, m1, _ := compiler.CompileCacheStats()
	second := run()
	_, m2, _ := compiler.CompileCacheStats()
	if second != first {
		t.Errorf("adaptive sweep not deterministic across runs\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if m2 != m1 {
		t.Errorf("second sweep recompiled (misses %d -> %d): the adapted compile did not hit the cache", m1, m2)
	}
	if !strings.Contains(first, "re-select") {
		t.Errorf("trained adaptation did not re-select layout\n%s", first)
	}
}

// TestAdaptiveStaleProfileDegrades: a -profile-in profile naming
// members the analysis does not have must degrade to static selection
// with a warning, in both the Adapt and PGO experiments.
func TestAdaptiveStaleProfileDegrades(t *testing.T) {
	stale := &compiler.Profile{Counts: map[string]uint64{"addr2label": 4096, "lockset": 16}}
	renderAdapt := func(p *compiler.Profile) string {
		var buf bytes.Buffer
		cfg := Config{
			Size: workloads.SizeTiny, Reps: 1, Virtual: true, Parallelism: 4,
			Out: &buf, PGOProfile: p,
		}
		if _, err := Adapt(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	got := renderAdapt(stale)
	if !strings.Contains(got, "warning: -profile-in") || !strings.Contains(got, "lockset") {
		t.Errorf("stale profile did not warn\n%s", got)
	}
	if !strings.Contains(got, "static cost model retained") {
		t.Errorf("stale profile did not degrade to static selection\n%s", got)
	}
	// Apart from the warning line, the degraded sweep must equal one
	// run with an explicitly empty profile (pure static selection).
	want := renderAdapt(&compiler.Profile{})
	if i := strings.IndexByte(got, '\n'); i < 0 || got[i+1:] != want {
		t.Errorf("degraded sweep differs from static selection\n--- degraded ---\n%s--- static ---\n%s", got, want)
	}

	// Same contract on the PGO experiment's -profile-in path.
	renderPGO := func(p *compiler.Profile) string {
		var buf bytes.Buffer
		cfg := Config{
			Size: workloads.SizeTiny, Reps: 1, Virtual: true, Parallelism: 4,
			Out: &buf, PGOProfile: p,
		}
		if _, err := PGO(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	gotPGO := renderPGO(stale)
	if !strings.Contains(gotPGO, "warning: -profile-in") {
		t.Errorf("PGO with stale profile did not warn\n%s", gotPGO)
	}
	wantPGO := renderPGO(&compiler.Profile{})
	if i := strings.IndexByte(gotPGO, '\n'); i < 0 || gotPGO[i+1:] != wantPGO {
		t.Errorf("PGO degraded sweep differs from empty-profile run\n--- degraded ---\n%s--- empty ---\n%s", gotPGO, wantPGO)
	}
}

// TestAdaptFingerprintPinned pins the adaptive checkpoint fingerprint
// byte for byte, training budget included, so checkpoints written by
// earlier builds still resume.
func TestAdaptFingerprintPinned(t *testing.T) {
	cfg := Config{Size: workloads.SizeTiny, Reps: 1, Virtual: true}.withDefaults()
	cfg.Opt.Seed = 1
	want := "size=tiny reps=1 seed=1 virtual=true metrics=false engine=interp adapt=1/1048576"
	if got := cfg.fingerprint("adapt"); got != want {
		t.Errorf("fingerprint = %q, want %q", got, want)
	}
}

// TestProfileFingerprintPerGrid: a -profile-in profile binds the adapt
// and pgo checkpoints, whose cells it steers, and leaves every other
// grid's fingerprint plain.
func TestProfileFingerprintPerGrid(t *testing.T) {
	cfg := Config{Size: workloads.SizeTiny, Reps: 1, Virtual: true}.withDefaults()
	plain := cfg.fingerprint("fig4")
	cfg.PGOProfile = fixedAdaptProfile()
	aprof := fmt.Sprintf(" aprof=%016x", cfg.PGOProfile.Hash())
	if got := cfg.fingerprint("pgo"); got != plain+aprof {
		t.Errorf("pgo fingerprint = %q, want %q", got, plain+aprof)
	}
	if got, want := cfg.fingerprint("adapt"), plain+" adapt=1/1048576"+aprof; got != want {
		t.Errorf("adapt fingerprint = %q, want %q", got, want)
	}
	if got := cfg.fingerprint("fig4"); got != plain {
		t.Errorf("fig4 fingerprint = %q, want %q", got, plain)
	}
}

// TestCompilerFingerprintPinned pins the default compiler options
// fingerprint byte for byte, ",enginterp" included. Serve journals
// adaptation epochs under keys that embed it, so a drifted string
// would make recovery silently drop restored adaptations.
func TestCompilerFingerprintPinned(t *testing.T) {
	want := "cotrue,csetrue,seltrue,fusetrue,pcfalse,g8,sft3,bits512,arr1048576,as268435456,enginterp"
	if got := compiler.DefaultOptions().Fingerprint(); got != want {
		t.Errorf("fingerprint = %q, want %q", got, want)
	}
}
