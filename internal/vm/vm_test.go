package vm

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mir"
	"repro/internal/trace"
)

// wantKind asserts err is a *RunError of the given taxonomy kind —
// the typed replacement for matching message substrings.
func wantKind(t *testing.T, err error, kind ErrKind) *RunError {
	t.Helper()
	if err == nil {
		t.Fatalf("expected a %s error, got nil", kind)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T (%v), want *RunError", err, err)
	}
	if re.Kind != kind {
		t.Fatalf("error kind %s (%v), want %s", re.Kind, re, kind)
	}
	return re
}

func run(t *testing.T, p *mir.Program, cfg Config) *Result {
	t.Helper()
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// exprProg builds main() { return <expr built by f> }.
func exprProg(f func(b *mir.FuncBuilder) mir.Reg) *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	r := f(b)
	b.RetVal(mir.R(r))
	return p
}

func TestArithmeticSemantics(t *testing.T) {
	cases := []struct {
		name string
		op   mir.Op
		a, b int64
		want int64
	}{
		{"add", mir.OpAdd, 3, 4, 7},
		{"sub", mir.OpSub, 3, 4, -1},
		{"mul", mir.OpMul, -3, 4, -12},
		{"div", mir.OpDiv, -7, 2, -3},
		{"div0", mir.OpDiv, 5, 0, 0},
		{"rem", mir.OpRem, -7, 2, -1},
		{"rem0", mir.OpRem, 5, 0, 0},
		{"and", mir.OpAnd, 0b1100, 0b1010, 0b1000},
		{"or", mir.OpOr, 0b1100, 0b1010, 0b1110},
		{"xor", mir.OpXor, 0b1100, 0b1010, 0b0110},
		{"shl", mir.OpShl, 1, 10, 1024},
		{"shr", mir.OpShr, 1024, 10, 1},
		{"shl-mask", mir.OpShl, 1, 64, 1}, // shift counts mask to 6 bits
		{"lt-signed", mir.OpLt, -1, 1, 1},
		{"gt-signed", mir.OpGt, -1, 1, 0},
		{"eq", mir.OpEq, 5, 5, 1},
		{"ne", mir.OpNe, 5, 5, 0},
		{"le", mir.OpLe, -5, -5, 1},
		{"ge", mir.OpGe, -6, -5, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
				return b.Bin(c.op, mir.C(c.a), mir.C(c.b))
			}), Config{})
			if int64(res.Exit) != c.want {
				t.Fatalf("%s(%d, %d) = %d, want %d", c.op, c.a, c.b, int64(res.Exit), c.want)
			}
		})
	}
}

func TestMemorySizes(t *testing.T) {
	res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		buf := b.Alloca(16)
		// Write bytes 0..7, read back a word.
		for i := int64(0); i < 8; i++ {
			a := b.Add(mir.R(buf), mir.C(i))
			b.Store(mir.R(a), mir.C(i+1), 1)
		}
		w := b.Load(mir.R(buf), 8)
		// Little-endian: 0x0807060504030201
		want := b.Const(0x0807060504030201)
		return b.Bin(mir.OpEq, mir.R(w), mir.R(want))
	}), Config{})
	if res.Exit != 1 {
		t.Fatal("byte/word aliasing wrong")
	}

	res = run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		buf := b.Alloca(8)
		b.Store(mir.R(buf), mir.C(0x11223344), 4)
		a4 := b.Add(mir.R(buf), mir.C(4))
		b.Store(mir.R(a4), mir.C(0x55667788), 4)
		lo := b.Load(mir.R(buf), 4)
		hi := b.Load(mir.R(a4), 4)
		s := b.Bin(mir.OpShl, mir.R(hi), mir.C(32))
		return b.Bin(mir.OpOr, mir.R(s), mir.R(lo))
	}), Config{})
	if res.Exit != 0x5566778811223344 {
		t.Fatalf("4-byte halves = %#x", res.Exit)
	}
}

func TestHeapReuseAfterFree(t *testing.T) {
	res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		a1 := b.Call("malloc", mir.C(32))
		b.CallVoid("free", mir.R(a1))
		a2 := b.Call("malloc", mir.C(32))
		return b.Bin(mir.OpEq, mir.R(a1), mir.R(a2))
	}), Config{})
	if res.Exit != 1 {
		t.Fatal("freed block not reused (UAF would be unobservable)")
	}
}

func TestCallsAndRecursion(t *testing.T) {
	p := mir.NewProgram()
	fib := p.NewFunc("fib", 1)
	n := fib.Param(0)
	base := fib.NewBlock()
	rec := fib.NewBlock()
	c := fib.Bin(mir.OpLe, mir.R(n), mir.C(1))
	fib.CondBr(mir.R(c), base, rec)
	fib.SetBlock(base)
	fib.RetVal(mir.R(n))
	fib.SetBlock(rec)
	n1 := fib.Sub(mir.R(n), mir.C(1))
	n2 := fib.Sub(mir.R(n), mir.C(2))
	f1 := fib.Call("fib", mir.R(n1))
	f2 := fib.Call("fib", mir.R(n2))
	s := fib.Add(mir.R(f1), mir.R(f2))
	fib.RetVal(mir.R(s))

	b := p.NewFunc("main", 0)
	r := b.Call("fib", mir.C(15))
	b.RetVal(mir.R(r))

	res := run(t, p, Config{})
	if res.Exit != 610 {
		t.Fatalf("fib(15) = %d", res.Exit)
	}
}

func TestThreadsAndLocks(t *testing.T) {
	p := mir.NewProgram()
	w := p.NewFunc("worker", 2)
	acc, lock := w.Param(0), w.Param(1)
	w.Loop(mir.C(100), func(i mir.Reg) {
		w.Lock(mir.R(lock))
		v := w.Load(mir.R(acc), 8)
		v2 := w.Add(mir.R(v), mir.C(1))
		w.Store(mir.R(acc), mir.R(v2), 8)
		w.Unlock(mir.R(lock))
	})
	w.Ret()

	b := p.NewFunc("main", 0)
	acc2 := b.Call("calloc", mir.C(1), mir.C(8))
	lock2 := b.Call("malloc", mir.C(8))
	var hs []mir.Reg
	for i := 0; i < 4; i++ {
		hs = append(hs, b.Spawn("worker", mir.R(acc2), mir.R(lock2)))
	}
	for _, h := range hs {
		b.Join(mir.R(h))
	}
	v := b.Load(mir.R(acc2), 8)
	b.RetVal(mir.R(v))

	res := run(t, p, Config{Quantum: 7}) // small quantum forces interleaving
	if res.Exit != 400 {
		t.Fatalf("locked counter = %d, want 400", res.Exit)
	}
	if res.Threads != 5 {
		t.Fatalf("threads = %d", res.Threads)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	build := func() *mir.Program {
		p := mir.NewProgram()
		w := p.NewFunc("worker", 1)
		arr := w.Param(0)
		w.Loop(mir.C(50), func(i mir.Reg) {
			v := w.Load(mir.R(arr), 8)
			v2 := w.Add(mir.R(v), mir.C(1))
			w.Store(mir.R(arr), mir.R(v2), 8) // intentionally racy
		})
		w.Ret()
		b := p.NewFunc("main", 0)
		arr2 := b.Call("calloc", mir.C(1), mir.C(8))
		h1 := b.Spawn("worker", mir.R(arr2))
		h2 := b.Spawn("worker", mir.R(arr2))
		b.Join(mir.R(h1))
		b.Join(mir.R(h2))
		v := b.Load(mir.R(arr2), 8)
		b.RetVal(mir.R(v))
		return p
	}
	r1 := run(t, build(), Config{Seed: 3, Quantum: 5})
	r2 := run(t, build(), Config{Seed: 3, Quantum: 5})
	if r1.Exit != r2.Exit || r1.Steps != r2.Steps {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", r1.Exit, r1.Steps, r2.Exit, r2.Steps)
	}
}

func TestDeadlockDetected(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	l := b.Call("malloc", mir.C(8))
	b.Lock(mir.R(l))
	b.Lock(mir.R(l)) // self-deadlock (recursive lock)
	b.Ret()
	m, _ := New(p, Config{})
	_, err := m.Run()
	re := wantKind(t, err, KindTrap)
	if !strings.Contains(re.Msg, "recursive lock") {
		t.Fatalf("msg = %q", re.Msg)
	}
}

func TestUnlockNotHeld(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	l := b.Const(7)
	b.Unlock(mir.R(l))
	b.Ret()
	m, _ := New(p, Config{})
	_, err := m.Run()
	wantKind(t, err, KindTrap)
}

func TestBlockedLockDeadlock(t *testing.T) {
	// Worker holds the lock forever; main blocks on it — when only
	// blocked threads remain the VM reports a deadlock.
	p := mir.NewProgram()
	w := p.NewFunc("worker", 1)
	w.Lock(mir.R(w.Param(0)))
	loop := w.NewBlock()
	w.Br(loop)
	w.SetBlock(loop)
	w.Br(loop) // spin forever holding the lock
	b := p.NewFunc("main", 0)
	l := b.Call("malloc", mir.C(8))
	b.Spawn("worker", mir.R(l))
	// Burn enough instructions for the scheduler to hand the worker its
	// first slice (and the lock) before main tries to take it.
	b.Loop(mir.C(200), func(i mir.Reg) { b.Add(mir.R(i), mir.C(1)) })
	b.Lock(mir.R(l))
	b.Ret()
	m, _ := New(p, Config{MaxSteps: 100000})
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected an error (deadlock or step cap)")
	}
}

func TestStepLimit(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	m, _ := New(p, Config{MaxSteps: 1000})
	_, err := m.Run()
	wantKind(t, err, KindStepLimit)
}

func TestUnresolvedCallee(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	b.Call("no_such_function")
	b.Ret()
	if _, err := New(p, Config{}); err == nil || !strings.Contains(err.Error(), "unresolved callee") {
		t.Fatalf("err = %v", err)
	}
}

func TestHookDispatchAndShadow(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	x := b.Const(5)
	y := b.Const(6)
	sum := b.Add(mir.R(x), mir.R(y))
	f := b.Func()
	// Hand-plant a hook after the add: handler receives (sum value,
	// tid) and its return value lands in sum's shadow register.
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, mir.Instr{
		Op: mir.OpHook, Dst: mir.NoReg,
		Hook: &mir.HookRef{
			HandlerID: 0,
			Args: []mir.HookArg{
				{Kind: mir.HookReg, Reg: sum},
				{Kind: mir.HookThread},
				{Kind: mir.HookConst, Const: 9},
			},
			MetaDst: sum,
			Name:    "testHook",
		},
	})
	// Propagate shadow: z = sum + 1 must carry the shadow.
	z := b.Add(mir.R(sum), mir.C(1))
	// Second hook reads z's shadow.
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, mir.Instr{
		Op: mir.OpHook, Dst: mir.NoReg,
		Hook: &mir.HookRef{
			HandlerID: 1,
			Args:      []mir.HookArg{{Kind: mir.HookRegMeta, Reg: z}},
			MetaDst:   mir.NoReg,
			Name:      "checkHook",
		},
	})
	b.RetVal(mir.R(z))

	var got []uint64
	var gotShadow uint64
	m, err := New(p, Config{TrackShadow: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Handlers = []HandlerFn{
		func(m *Machine, tid uint64, args []uint64) uint64 {
			got = append(got, args...)
			return 0xAB // becomes sum's shadow
		},
		func(m *Machine, tid uint64, args []uint64) uint64 {
			gotShadow = args[0]
			return 0
		},
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 12 {
		t.Fatalf("exit = %d", res.Exit)
	}
	if len(got) != 3 || got[0] != 11 || got[1] != 0 || got[2] != 9 {
		t.Fatalf("hook args = %v", got)
	}
	if gotShadow != 0xAB {
		t.Fatalf("shadow did not propagate through add: %#x", gotShadow)
	}
	if res.HookCalls != 2 {
		t.Fatalf("hook calls = %d", res.HookCalls)
	}
}

func TestLibcModels(t *testing.T) {
	res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		// memset + memcpy + strlen + gets round trip.
		a := b.Call("malloc", mir.C(64))
		c := b.Call("malloc", mir.C(64))
		b.CallVoid("memset", mir.R(a), mir.C('x'), mir.C(10))
		zero := b.Add(mir.R(a), mir.C(10))
		b.Store(mir.R(zero), mir.C(0), 1)
		n1 := b.Call("strlen", mir.R(a)) // 10
		b.CallVoid("memcpy", mir.R(c), mir.R(a), mir.C(11))
		n2 := b.Call("strlen", mir.R(c)) // 10
		g := b.Call("gets", mir.R(a))
		n3 := b.Call("strlen", mir.R(g)) // 16
		s1 := b.Add(mir.R(n1), mir.R(n2))
		return b.Add(mir.R(s1), mir.R(n3))
	}), Config{})
	if res.Exit != 36 {
		t.Fatalf("libc round trip = %d, want 36", res.Exit)
	}
}

func TestSSLModel(t *testing.T) {
	res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		ctx := b.Call("SSL_CTX_new")
		ssl := b.Call("SSL_new", mir.R(ctx))
		r0 := b.Call("SSL_read", mir.R(ssl), mir.C(0), mir.C(4)) // not connected: -1
		b.CallVoid("SSL_connect", mir.R(ssl))
		buf := b.Call("malloc", mir.C(16))
		r1 := b.Call("SSL_read", mir.R(ssl), mir.R(buf), mir.C(8)) // 8
		b.CallVoid("SSL_shutdown", mir.R(ssl))
		b.CallVoid("SSL_free", mir.R(ssl))
		neg := b.Bin(mir.OpLt, mir.R(r0), mir.C(0))
		s := b.Add(mir.R(r1), mir.R(neg))
		return s
	}), Config{})
	if res.Exit != 9 {
		t.Fatalf("ssl model = %d, want 9", res.Exit)
	}
}

func TestZlibModel(t *testing.T) {
	res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		strm := b.Call("calloc", mir.C(1), mir.C(48))
		in := b.Call("malloc", mir.C(64))
		out := b.Call("malloc", mir.C(64))
		b.CallVoid("memset", mir.R(in), mir.C(7), mir.C(64))
		b.CallVoid("deflateInit", mir.R(strm))
		b.Store(mir.R(strm), mir.R(in), 8)
		ai := b.Add(mir.R(strm), mir.C(8))
		b.Store(mir.R(ai), mir.C(64), 8)
		no := b.Add(mir.R(strm), mir.C(16))
		b.Store(mir.R(no), mir.R(out), 8)
		ao := b.Add(mir.R(strm), mir.C(24))
		b.Store(mir.R(ao), mir.C(64), 8)
		b.CallVoid("deflate", mir.R(strm), mir.C(4))
		to := b.Add(mir.R(strm), mir.C(32))
		total := b.Load(mir.R(to), 8) // 64/2 = 32
		b.CallVoid("deflateEnd", mir.R(strm))
		return total
	}), Config{})
	if res.Exit != 32 {
		t.Fatalf("deflate produced %d bytes, want 32", res.Exit)
	}
}

func TestReportDedup(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	b.Loop(mir.C(10), func(i mir.Reg) {
		x := b.Add(mir.R(i), mir.C(0))
		f := b.Func()
		f.Blocks[b.CurBlock()].Instrs = append(f.Blocks[b.CurBlock()].Instrs, mir.Instr{
			Op: mir.OpHook, Dst: mir.NoReg,
			Hook: &mir.HookRef{HandlerID: 0, Args: []mir.HookArg{{Kind: mir.HookReg, Reg: x}}, MetaDst: mir.NoReg, Name: "h"},
		})
	})
	b.Ret()
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Handlers = []HandlerFn{func(m *Machine, tid uint64, args []uint64) uint64 {
		m.Report("test", "same site", args[0], 0)
		return 0
	}}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1 (deduped)", len(res.Reports))
	}
	if res.Reports[0].Count != 10 {
		t.Fatalf("count = %d, want 10", res.Reports[0].Count)
	}
	if !strings.Contains(res.Reports[0].String(), "same site") {
		t.Fatalf("report string: %v", res.Reports[0])
	}
}

func TestOutOfRangeMemoryFails(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	big := b.Const(1 << 60)
	b.Load(mir.R(big), 8)
	b.Ret()
	m, _ := New(p, Config{})
	_, err := m.Run()
	re := wantKind(t, err, KindTrap)
	if len(re.Backtrace) == 0 {
		t.Fatal("trap lost its backtrace")
	}
	if !strings.Contains(err.Error(), "vm:") {
		t.Fatalf("error rendering: %v", err)
	}
}

func TestStackOverflowDetected(t *testing.T) {
	p := mir.NewProgram()
	f := p.NewFunc("rec", 0)
	f.Alloca(1 << 12)
	f.CallVoid("rec")
	f.Ret()
	b := p.NewFunc("main", 0)
	b.CallVoid("rec")
	b.Ret()
	m, _ := New(p, Config{})
	_, err := m.Run()
	re := wantKind(t, err, KindTrap)
	if !strings.Contains(re.Msg, "stack overflow") {
		t.Fatalf("msg = %q", re.Msg)
	}
}

func TestGetsDeterministic(t *testing.T) {
	prog := func() *mir.Program {
		return exprProg(func(b *mir.FuncBuilder) mir.Reg {
			buf := b.Call("malloc", mir.C(32))
			g := b.Call("gets", mir.R(buf))
			return b.Load(mir.R(g), 8)
		})
	}
	r1 := run(t, prog(), Config{})
	r2 := run(t, prog(), Config{})
	if r1.Exit != r2.Exit {
		t.Fatal("gets not deterministic")
	}
}

func TestHeapBudgetEnforced(t *testing.T) {
	// 1 KiB budget; the third 400-byte allocation must trip it long
	// before the 256 MiB address space would.
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	b.Loop(mir.C(4), func(i mir.Reg) {
		b.Call("malloc", mir.C(400))
	})
	b.Ret()
	m, _ := New(p, Config{MaxHeapBytes: 1024})
	_, err := m.Run()
	wantKind(t, err, KindHeapLimit)
}

func TestHeapBudgetCountsLiveBytesOnly(t *testing.T) {
	// Alloc/free churn far beyond the budget total must succeed: the
	// budget bounds live bytes, not cumulative allocations.
	res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		b.Loop(mir.C(64), func(i mir.Reg) {
			a := b.Call("malloc", mir.C(400))
			b.CallVoid("free", mir.R(a))
		})
		return b.Const(7)
	}), Config{MaxHeapBytes: 1024})
	if res.Exit != 7 {
		t.Fatalf("exit = %d", res.Exit)
	}
}

func TestDeadlineEnforced(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	m, _ := New(p, Config{Deadline: 20 * time.Millisecond})
	_, err := m.Run()
	re := wantKind(t, err, KindDeadline)
	if !re.Retryable() {
		t.Fatal("deadline misses must be retryable (load-dependent)")
	}
}

func TestOnlyDeadlineRetryable(t *testing.T) {
	for kind, want := range map[ErrKind]bool{
		KindTrap: false, KindStepLimit: false, KindHeapLimit: false,
		KindDeadline: true, KindLibFault: false,
	} {
		if got := (&RunError{Kind: kind}).Retryable(); got != want {
			t.Errorf("Retryable(%s) = %v, want %v", kind, got, want)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []ErrKind{KindTrap, KindStepLimit, KindHeapLimit, KindDeadline, KindLibFault} {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted garbage")
	}
}

func TestInjectedMallocFault(t *testing.T) {
	prog := func() *mir.Program {
		return exprProg(func(b *mir.FuncBuilder) mir.Reg {
			a := b.Call("malloc", mir.C(8))
			c := b.Call("malloc", mir.C(8))
			d := b.Call("malloc", mir.C(8))
			s := b.Add(mir.R(a), mir.R(c))
			return b.Add(mir.R(s), mir.R(d))
		})
	}
	// Unfaulted control run.
	run(t, prog(), Config{})
	// Fault the second allocation; the run fails with LibFault, and the
	// failure is deterministic: same spec, same step count.
	steps := make([]uint64, 2)
	for i := range steps {
		m, err := New(prog(), Config{Faults: FaultSpec{MallocFailNth: 2}})
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := m.Run()
		re := wantKind(t, rerr, KindLibFault)
		if !strings.Contains(re.Msg, "allocation #2") {
			t.Fatalf("msg = %q", re.Msg)
		}
		steps[i] = m.Steps()
	}
	if steps[0] != steps[1] {
		t.Fatalf("injected fault not deterministic: %d vs %d steps", steps[0], steps[1])
	}
}

func TestInjectedHandlerPanicRecovered(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	x := b.Const(1)
	f := b.Func()
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, mir.Instr{
		Op: mir.OpHook, Dst: mir.NoReg,
		Hook: &mir.HookRef{HandlerID: 0, Args: []mir.HookArg{{Kind: mir.HookReg, Reg: x}}, MetaDst: mir.NoReg, Name: "h"},
	})
	b.Ret()
	m, err := New(p, Config{Faults: FaultSpec{HandlerPanicNth: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m.Handlers = []HandlerFn{func(m *Machine, tid uint64, args []uint64) uint64 { return 0 }}
	_, rerr := m.Run()
	re := wantKind(t, rerr, KindTrap)
	if !strings.Contains(re.Msg, "injected fault: handler panic") {
		t.Fatalf("msg = %q", re.Msg)
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	// A genuinely panicking handler (broken analysis code) must surface
	// as a KindTrap RunError, not kill the process.
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	x := b.Const(1)
	f := b.Func()
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, mir.Instr{
		Op: mir.OpHook, Dst: mir.NoReg,
		Hook: &mir.HookRef{HandlerID: 0, Args: []mir.HookArg{{Kind: mir.HookReg, Reg: x}}, MetaDst: mir.NoReg, Name: "h"},
	})
	b.Ret()
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Handlers = []HandlerFn{func(m *Machine, tid uint64, args []uint64) uint64 {
		var s []int
		return uint64(s[3]) // index out of range
	}}
	_, rerr := m.Run()
	re := wantKind(t, rerr, KindTrap)
	if !strings.Contains(re.Msg, "panic in handler") {
		t.Fatalf("msg = %q", re.Msg)
	}
}

func TestSchedPerturbDeterministicAndDistinct(t *testing.T) {
	// A racy counter: perturbation may change the final value, but the
	// same perturbation must reproduce the identical run.
	build := func() *mir.Program {
		p := mir.NewProgram()
		w := p.NewFunc("worker", 1)
		arr := w.Param(0)
		w.Loop(mir.C(50), func(i mir.Reg) {
			v := w.Load(mir.R(arr), 8)
			v2 := w.Add(mir.R(v), mir.C(1))
			w.Store(mir.R(arr), mir.R(v2), 8)
		})
		w.Ret()
		b := p.NewFunc("main", 0)
		arr2 := b.Call("calloc", mir.C(1), mir.C(8))
		h1 := b.Spawn("worker", mir.R(arr2))
		h2 := b.Spawn("worker", mir.R(arr2))
		b.Join(mir.R(h1))
		b.Join(mir.R(h2))
		v := b.Load(mir.R(arr2), 8)
		b.RetVal(mir.R(v))
		return p
	}
	at := func(perturb uint64) *Result {
		return run(t, build(), Config{Seed: 3, Quantum: 5, Faults: FaultSpec{SchedPerturb: perturb}})
	}
	a1, a2 := at(12345), at(12345)
	if a1.Exit != a2.Exit || a1.Steps != a2.Steps {
		t.Fatalf("same perturbation diverged: %d/%d vs %d/%d", a1.Exit, a1.Steps, a2.Exit, a2.Steps)
	}
	base := at(0)
	distinct := false
	for p := uint64(1); p <= 8 && !distinct; p++ {
		r := at(p * 7919)
		distinct = r.Exit != base.Exit || r.Steps != base.Steps
	}
	if !distinct {
		t.Error("no perturbation changed the racy interleaving at all")
	}
}

func TestStraddlingSubWordLoadTraps(t *testing.T) {
	// A 4-byte access at offset 6 of an 8-aligned buffer crosses its
	// containing 64-bit word. Memory shifts within one word only, so a
	// load used to return bytes from the wrong locations and a store
	// used to drop the bytes past the word; both must trap instead, on
	// both tiers and on a replayed run.
	for _, op := range []string{"load", "store"} {
		p := mir.NewProgram()
		b := p.NewFunc("main", 0)
		buf := b.Alloca(16)
		a := b.Add(mir.R(buf), mir.C(6))
		if op == "load" {
			b.Load(mir.R(a), 4)
		} else {
			b.Store(mir.R(a), mir.C(0x11223344), 4)
		}
		b.Ret()
		if err := p.Verify(); err != nil {
			t.Fatalf("verify: %v", err)
		}
		var rec bytes.Buffer
		for _, name := range []string{"interp", "threaded", "record", "replay"} {
			var cfg Config
			switch name {
			case "threaded":
				cfg.Engine = EngineThreaded
			case "record":
				cfg.TraceSink = &rec
			case "replay":
				tr, err := trace.Decode(rec.Bytes())
				if err != nil {
					t.Fatalf("%s: decode: %v", op, err)
				}
				cfg.Replay = tr
			}
			m, err := New(p, cfg)
			if err != nil {
				t.Fatalf("%s %s: new: %v", op, name, err)
			}
			_, err = m.Run()
			re := wantKind(t, err, KindTrap)
			if !strings.Contains(re.Msg, "4-byte "+op+" at 0x") || !strings.Contains(re.Msg, "straddles") {
				t.Fatalf("%s %s: trap message %q, want straddle diagnostic", op, name, re.Msg)
			}
		}
	}

	// Aligned sub-word loads and stores and full-word accesses at any
	// alignment within a word stay legal.
	res := run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		buf := b.Alloca(16)
		b.Store(mir.R(buf), mir.C(0x1122334455667788), 8)
		a4 := b.Add(mir.R(buf), mir.C(4))
		return b.Load(mir.R(a4), 4)
	}), Config{})
	if res.Exit != 0x11223344 {
		t.Fatalf("aligned 4-byte load = %#x, want 0x11223344", res.Exit)
	}
	res = run(t, exprProg(func(b *mir.FuncBuilder) mir.Reg {
		buf := b.Alloca(16)
		b.Store(mir.R(buf), mir.C(0x1122334455667788), 8)
		a6 := b.Add(mir.R(buf), mir.C(6))
		b.Store(mir.R(a6), mir.C(0xaabb), 2)
		return b.Load(mir.R(buf), 8)
	}), Config{})
	if res.Exit != 0xaabb334455667788 {
		t.Fatalf("aligned 2-byte store left %#x, want 0xaabb334455667788", res.Exit)
	}
}

// TestExtStateCache pins ExtState's contract around its last-slot
// cache: keys used alternately each keep their own slot, init runs once
// per key per Machine, the empty key is a key like any other, and a new
// Machine starts with no slots.
func TestExtStateCache(t *testing.T) {
	p := mir.NewProgram()
	p.NewFunc("main", 0).Ret()
	newMachine := func() *Machine {
		m, err := New(p, Config{})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		return m
	}
	inits := map[string]int{}
	get := func(m *Machine, key string) *int {
		return m.ExtState(key, func() any { inits[key]++; return new(int) }).(*int)
	}

	m := newMachine()
	a, b := get(m, "a"), get(m, "b")
	if a == b {
		t.Fatal("keys a and b share a slot")
	}
	for i := 0; i < 3; i++ {
		if get(m, "a") != a || get(m, "b") != b {
			t.Fatalf("round %d: alternating keys lost their slots", i)
		}
	}
	if e := get(m, ""); e == a || e == b {
		t.Fatal("empty key aliases an earlier slot")
	}
	if inits["a"] != 1 || inits["b"] != 1 || inits[""] != 1 {
		t.Fatalf("init calls = %v, want one per key", inits)
	}

	m2 := newMachine()
	if get(m2, "b") == b || inits["b"] != 2 {
		t.Fatal("a new Machine reused the previous Machine's slot")
	}
}
