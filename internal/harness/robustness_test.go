package harness

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// tinyVirtual is the base configuration the robustness tests sweep
// under: deterministic virtual timing, so rendered bytes are exact.
func tinyVirtual(out *bytes.Buffer) Config {
	return Config{
		Size:        workloads.SizeTiny,
		Reps:        1,
		Virtual:     true,
		Parallelism: 4,
		Out:         out,
	}
}

// countERR returns how many degraded ERR(...) cells a rendered table
// contains.
func countERR(s string) int { return strings.Count(s, "ERR(") }

// wantKind fails the test unless err is a vm.RunError of kind k: the
// error a degraded sweep returns beside its complete table.
func wantKind(t *testing.T, err error, k vm.ErrKind) {
	t.Helper()
	var re *vm.RunError
	if !errors.As(err, &re) || re.Kind != k {
		t.Fatalf("err = %v, want a %v failure", err, k)
	}
}

// TestFaultInjectedCellDegrades is the acceptance scenario: an injected
// nth-malloc fault in one cell yields a complete figure with exactly
// one ERR(LibFault) cell, and the cell's error; every other cell still
// measures.
func TestFaultInjectedCellDegrades(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyVirtual(&buf)
	cfg.CellFaults = func(program, column string) vm.FaultSpec {
		if program == "fft" && column == "ALDAcc-full" {
			return vm.FaultSpec{MallocFailNth: 1}
		}
		return vm.FaultSpec{}
	}
	tbl, err := Fig4(cfg)
	wantKind(t, err, vm.KindLibFault)
	out := buf.String()
	if n := countERR(out); n != 1 {
		t.Fatalf("ERR cells = %d, want exactly 1\n%s", n, out)
	}
	if !strings.Contains(out, "ERR(LibFault)") {
		t.Fatalf("degraded cell lost its kind\n%s", out)
	}
	if len(tbl.Rows) != len(Fig4Programs) {
		t.Fatalf("rows = %d, want the full figure (%d)", len(tbl.Rows), len(Fig4Programs))
	}
	// The degraded column's average must still be computed from the
	// surviving eleven programs.
	if tbl.Averages[1] <= 0 {
		t.Fatalf("ALDAcc-full average lost to one degraded cell: %v", tbl.Averages)
	}
}

// TestHandlerPanicCellDegrades: a panicking analysis handler in one
// cell degrades to ERR(Trap) without killing the worker pool, and the
// figure comes back complete with the Trap.
func TestHandlerPanicCellDegrades(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyVirtual(&buf)
	cfg.CellFaults = func(program, column string) vm.FaultSpec {
		if program == "lu_c" && column == "ALDAcc-ds-only" {
			return vm.FaultSpec{HandlerPanicNth: 1}
		}
		return vm.FaultSpec{}
	}
	tbl, err := Fig4(cfg)
	wantKind(t, err, vm.KindTrap)
	if len(tbl.Rows) != len(Fig4Programs) {
		t.Fatalf("rows = %d, want the full figure (%d)", len(tbl.Rows), len(Fig4Programs))
	}
	out := buf.String()
	if n := countERR(out); n != 1 {
		t.Fatalf("ERR cells = %d, want exactly 1\n%s", n, out)
	}
	if !strings.Contains(out, "ERR(Trap)") {
		t.Fatalf("handler panic did not degrade as Trap\n%s", out)
	}
}

// TestBaseCellFaultDegradesRow: when the uninstrumented baseline cell
// fails, the row renders ERR in the base column and "-" for every
// overhead (a ratio against a failed denominator is meaningless), and
// the sweep returns the base cell's LibFault.
func TestBaseCellFaultDegradesRow(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyVirtual(&buf)
	cfg.CellFaults = func(program, column string) vm.FaultSpec {
		if program == "radix" && column == "base" {
			return vm.FaultSpec{MallocFailNth: 1}
		}
		return vm.FaultSpec{}
	}
	tbl, err := Fig4(cfg)
	wantKind(t, err, vm.KindLibFault)
	if len(tbl.Rows) != len(Fig4Programs) {
		t.Fatalf("rows = %d, want the full figure (%d)", len(tbl.Rows), len(Fig4Programs))
	}
	out := buf.String()
	var radixLine string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "radix") {
			radixLine = l
		}
	}
	if !strings.Contains(radixLine, "ERR(LibFault)") || strings.Count(radixLine, " -") < 3 {
		t.Fatalf("degraded base row rendered wrong: %q", radixLine)
	}
}

// TestKeepGoingRunsAllCells: the sweep keeps going past a failing cell
// at any parallelism, so no cell is skipped, and the lowest-indexed
// error is reported.
func TestKeepGoingRunsAllCells(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		cfg := Config{Parallelism: parallelism}
		var ran atomic.Int64
		err := cfg.forEachCell(16, func(i int) error {
			ran.Add(1)
			if i == 3 || i == 11 {
				return errIndexed(i)
			}
			return nil
		})
		if got := ran.Load(); got != 16 {
			t.Errorf("parallelism=%d: ran %d cells, want all 16", parallelism, got)
		}
		if err == nil || err.Error() != errIndexed(3).Error() {
			t.Errorf("parallelism=%d: err = %v, want %v", parallelism, err, errIndexed(3))
		}
	}
}

// fakeGrid builds a minimal 1-program × 1-column grid whose measured
// cell behaves as fn dictates; the base cell always succeeds.
func fakeGrid(fn runnerFn) gridSpec {
	return gridSpec{
		name:     "fake",
		title:    "fake grid",
		measured: []string{"m"},
		programs: []string{"p"},
		runner: func(c Config, program string, col int) (runnerFn, error) {
			if col < 0 {
				return func() (*vm.Result, error) { return &vm.Result{Steps: 100}, nil }, nil
			}
			return fn, nil
		},
	}
}

// TestRetryableCellRecovers: a cell that fails with the retryable kind
// (Deadline) and then succeeds must land as a measured value after its
// one retry.
func TestRetryableCellRecovers(t *testing.T) {
	var attempts atomic.Int64
	cfg := Config{Virtual: true, Parallelism: 1, Out: &bytes.Buffer{}}
	tbl, err := cfg.withDefaults().runGrid(fakeGrid(func() (*vm.Result, error) {
		if attempts.Add(1) == 1 {
			return nil, &vm.RunError{Kind: vm.KindDeadline, Msg: "deadline 1ms exceeded"}
		}
		return &vm.Result{Steps: 300}, nil
	}))
	if err != nil {
		t.Fatalf("the retry did not rescue the cell: %v", err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2 (one retry)", attempts.Load())
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0].Overheads[0] != 3.0 {
		t.Fatalf("rescued cell mismeasured: %+v", tbl.Rows)
	}
}

// TestNonRetryableKindsFailFast: deterministic kinds are never retried
// — re-running a deterministic VM can only reproduce the failure. The
// sweep returns the failure, named by grid and cell, with its table.
func TestNonRetryableKindsFailFast(t *testing.T) {
	var attempts atomic.Int64
	cfg := Config{Virtual: true, Parallelism: 1, Out: &bytes.Buffer{}}
	tbl, err := cfg.withDefaults().runGrid(fakeGrid(func() (*vm.Result, error) {
		attempts.Add(1)
		return nil, &vm.RunError{Kind: vm.KindTrap, Msg: "bad store"}
	}))
	wantKind(t, err, vm.KindTrap)
	if !strings.Contains(err.Error(), "fake p/m") {
		t.Errorf("err = %v, want it to name the failing cell", err)
	}
	if tbl == nil || len(tbl.Rows) != 1 || tbl.Rows[0].Errs[0] != "Trap" {
		t.Errorf("table = %+v, want the one row with its degraded cell", tbl)
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (Trap is not retryable)", attempts.Load())
	}
}

// TestRetryBudgetBounded: a cell that never stops timing out is
// degraded after its one retry, not retried forever.
func TestRetryBudgetBounded(t *testing.T) {
	var attempts atomic.Int64
	var buf bytes.Buffer
	cfg := Config{Virtual: true, Parallelism: 1, Out: &buf}
	_, err := cfg.withDefaults().runGrid(fakeGrid(func() (*vm.Result, error) {
		attempts.Add(1)
		return nil, &vm.RunError{Kind: vm.KindDeadline, Msg: "deadline 1ms exceeded"}
	}))
	wantKind(t, err, vm.KindDeadline)
	if attempts.Load() != 2 {
		t.Fatalf("attempts = %d, want 2 (initial + 1 retry)", attempts.Load())
	}
	if !strings.Contains(buf.String(), "ERR(Deadline)") {
		t.Fatalf("exhausted retries did not degrade:\n%s", buf.String())
	}
}

// TestBuilderPanicDegrades: a panic while constructing a cell (not in
// the VM) is recovered per cell and renders as ERR(panic).
func TestBuilderPanicDegrades(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Virtual: true, Parallelism: 2, Out: &buf}
	g := fakeGrid(nil)
	g.runner = func(c Config, program string, col int) (runnerFn, error) {
		if col == 0 {
			panic("builder exploded")
		}
		return func() (*vm.Result, error) { return &vm.Result{Steps: 100}, nil }, nil
	}
	if _, err := cfg.withDefaults().runGrid(g); errKindLabel(err) != "panic" {
		t.Fatalf("err = %v, want the builder's panic", err)
	}
	if !strings.Contains(buf.String(), "ERR(panic)") {
		t.Fatalf("builder panic not degraded:\n%s", buf.String())
	}
}

// TestMemObeysHeapBudget: Mem runs its hand and ALDA cells through core
// with the sweep's run options, so the heap budget bounds them as it
// bounds every grid cell.
func TestMemObeysHeapBudget(t *testing.T) {
	rows, err := Mem(Config{Size: workloads.SizeTiny, Opt: core.RunOptions{MaxHeapBytes: 1 << 8}})
	var re *vm.RunError
	if !errors.As(err, &re) || re.Kind != vm.KindHeapLimit {
		t.Fatalf("Mem under a 256-byte heap budget: %d rows, err %v; want a HeapLimit failure", len(rows), err)
	}
}

// TestTable3ReturnsInjectedFault: Table 3 runs under the sweep's fault
// plan like every other run, and returns the fault.
func TestTable3ReturnsInjectedFault(t *testing.T) {
	_, err := Table3(Config{Size: workloads.SizeTiny, Opt: core.RunOptions{Faults: vm.FaultSpec{MallocFailNth: 2}}})
	wantKind(t, err, vm.KindLibFault)
}
