package vm

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/mir"
)

// runWith verifies and runs p once with the handler table handlers
// builds (nil installs none) and returns the run's outcome.
//
// The TestEngineDifferential* names date from when these tests compared
// the interpreter with a second execution tier; each now checks the
// interpreter alone.
func runWith(t *testing.T, p *mir.Program, cfg Config, handlers func(m *Machine) []HandlerFn) (*Result, error) {
	t.Helper()
	if err := p.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	m, err := New(p, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if handlers != nil {
		m.Handlers = handlers(m)
	}
	return m.Run()
}

// mixProg builds a loop whose body is a long run of pure arithmetic in
// every operand shape — reg-reg, reg-const, const-reg, const-const,
// shifts, compares, division and remainder by a maybe-zero register —
// feeding a store/load pair and a memory-carried accumulator.
func mixProg(iters int64) *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(512))
	accAddr := b.Add(mir.R(buf), mir.C(256))
	b.Store(mir.R(accAddr), mir.C(0), 8)
	b.Loop(mir.C(iters), func(i mir.Reg) {
		x := b.Mul(mir.R(i), mir.C(0x9E37))          // reg-const
		y := b.Add(mir.C(7), mir.R(x))               // const-reg
		z := b.Bin(mir.OpSub, mir.C(1000), mir.R(y)) // const-reg, not commutative
		s := b.Bin(mir.OpShl, mir.R(x), mir.C(3))    // reg-const shift
		q := b.Bin(mir.OpShr, mir.C(-1), mir.R(i))   // const-reg shift
		c1 := b.Bin(mir.OpLt, mir.C(5), mir.R(i))    // const-reg compare
		c2 := b.Bin(mir.OpGe, mir.R(i), mir.C(3))    // reg-const compare
		d := b.Bin(mir.OpDiv, mir.R(z), mir.R(c2))   // reg-reg div, divisor may be 0
		r := b.Bin(mir.OpRem, mir.R(q), mir.C(0))    // rem by zero
		f := b.Bin(mir.OpXor, mir.C(3), mir.C(5))    // const-const
		sum := b.Add(mir.R(c1), mir.R(d))
		sum = b.Add(mir.R(sum), mir.R(r))
		sum = b.Add(mir.R(sum), mir.R(f))
		sum = b.Add(mir.R(sum), mir.R(s))
		idx := b.Bin(mir.OpAnd, mir.R(i), mir.C(31))
		off := b.Mul(mir.R(idx), mir.C(8))
		addr := b.Add(mir.R(buf), mir.R(off))
		b.Store(mir.R(addr), mir.R(sum), 8)
		l := b.Load(mir.R(addr), 8)
		acc := b.Load(mir.R(accAddr), 8)
		acc2 := b.Add(mir.R(acc), mir.R(l))
		b.Store(mir.R(accAddr), mir.R(acc2), 8)
	})
	ret := b.Load(mir.R(accAddr), 8)
	b.CallVoid("free", mir.R(buf))
	b.RetVal(mir.R(ret))
	return p
}

// TestEngineDifferentialMix runs mixProg to completion under shadow
// tracking, another seed and quanta from 3 to 1024 instructions.
func TestEngineDifferentialMix(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"shadow", Config{TrackShadow: true}},
		{"seed7", Config{Seed: 7}},
		{"quantum3", Config{Quantum: 3}},
		{"quantum17", Config{Quantum: 17}},
		{"quantum1024", Config{Quantum: 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runWith(t, mixProg(20000), tc.cfg, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Steps == 0 {
				t.Fatal("no steps retired")
			}
		})
	}
}

// TestEngineDifferentialBranchIntoChain drives a data-dependent branch
// into a block of pure arithmetic from both the fallthrough and the
// taken edge.
func TestEngineDifferentialBranchIntoChain(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(64))
	b.Loop(mir.C(5000), func(i mir.Reg) {
		odd := b.Bin(mir.OpAnd, mir.R(i), mir.C(1))
		b.If(mir.R(odd), func() {
			v := b.Mul(mir.R(i), mir.C(3))
			v = b.Add(mir.R(v), mir.C(11))
			v = b.Bin(mir.OpXor, mir.R(v), mir.C(0x5555))
			v = b.Bin(mir.OpShl, mir.R(v), mir.C(1))
			v = b.Bin(mir.OpShr, mir.R(v), mir.C(2))
			b.Store(mir.R(buf), mir.R(v), 8)
		}, func() {
			w := b.Add(mir.R(i), mir.C(1))
			b.Store(mir.R(buf), mir.R(w), 8)
		})
	})
	r := b.Load(mir.R(buf), 8)
	b.RetVal(mir.R(r))
	if _, err := runWith(t, p, Config{}, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestEngineDifferentialTraps plants one trap of each kind the
// interpreter raises, most of them amid pure arithmetic: each must fail
// the run with a KindTrap RunError.
func TestEngineDifferentialTraps(t *testing.T) {
	cases := []struct {
		name string
		prog func() *mir.Program
		kind ErrKind
	}{
		{"load-out-of-range-mid-chain", func() *mir.Program {
			p := mir.NewProgram()
			b := p.NewFunc("main", 0)
			x := b.Const(3)
			y := b.Add(mir.R(x), mir.C(4))
			z := b.Mul(mir.R(y), mir.C(5))
			bad := b.Load(mir.C(1<<40), 8)
			w := b.Add(mir.R(z), mir.R(bad))
			b.RetVal(mir.R(w))
			return p
		}, KindTrap},
		{"straddling-load", func() *mir.Program {
			p := mir.NewProgram()
			b := p.NewFunc("main", 0)
			buf := b.Call("malloc", mir.C(64))
			a := b.Add(mir.R(buf), mir.C(5))
			v := b.Load(mir.R(a), 4) // 4 bytes at offset 5 straddle a word
			b.RetVal(mir.R(v))
			return p
		}, KindTrap},
		{"store-out-of-range", func() *mir.Program {
			p := mir.NewProgram()
			b := p.NewFunc("main", 0)
			x := b.Const(1)
			y := b.Add(mir.R(x), mir.C(2))
			b.Store(mir.C(1<<40), mir.R(y), 8)
			b.Ret()
			return p
		}, KindTrap},
		{"recursive-lock", func() *mir.Program {
			p := mir.NewProgram()
			b := p.NewFunc("main", 0)
			l := b.Const(0x1000)
			b.Lock(mir.R(l))
			b.Lock(mir.R(l))
			b.Ret()
			return p
		}, KindTrap},
		{"unlock-not-held", func() *mir.Program {
			p := mir.NewProgram()
			b := p.NewFunc("main", 0)
			l := b.Const(0x1000)
			b.Unlock(mir.R(l))
			b.Ret()
			return p
		}, KindTrap},
		{"join-invalid-handle", func() *mir.Program {
			p := mir.NewProgram()
			b := p.NewFunc("main", 0)
			h := b.Const(99)
			b.Join(mir.R(h))
			b.Ret()
			return p
		}, KindTrap},
		{"stack-overflow", func() *mir.Program {
			p := mir.NewProgram()
			f := p.NewFunc("f", 0)
			f.Alloca(64)
			f.CallVoid("f")
			f.Ret()
			b := p.NewFunc("main", 0)
			r := b.Call("f")
			b.RetVal(mir.R(r))
			p.Entry = "main"
			return p
		}, KindTrap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runWith(t, tc.prog(), Config{}, nil)
			wantKind(t, err, tc.kind)
		})
	}
}

// TestEngineDifferentialThreads interleaves three lock-stepping workers
// under three scheduler seeds: the lock must serialize every increment
// whatever the interleaving.
func TestEngineDifferentialThreads(t *testing.T) {
	build := func() *mir.Program {
		p := mir.NewProgram()
		w := p.NewFunc("worker", 2)
		acc, lock := w.Param(0), w.Param(1)
		w.Loop(mir.C(500), func(i mir.Reg) {
			w.Lock(mir.R(lock))
			v := w.Load(mir.R(acc), 8)
			v2 := w.Add(mir.R(v), mir.C(1))
			w.Store(mir.R(acc), mir.R(v2), 8)
			w.Unlock(mir.R(lock))
		})
		w.Ret()
		b := p.NewFunc("main", 0)
		buf := b.Call("malloc", mir.C(16))
		lk := b.Const(0x4000)
		h1 := b.Spawn("worker", mir.R(buf), mir.R(lk))
		h2 := b.Spawn("worker", mir.R(buf), mir.R(lk))
		h3 := b.Spawn("worker", mir.R(buf), mir.R(lk))
		b.Join(mir.R(h1))
		b.Join(mir.R(h2))
		b.Join(mir.R(h3))
		v := b.Load(mir.R(buf), 8)
		b.RetVal(mir.R(v))
		p.Entry = "main"
		return p
	}
	for _, seed := range []int64{1, 7, 1337} {
		res, err := runWith(t, build(), Config{Seed: seed}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Exit != 1500 {
			t.Fatalf("seed %d: exit = %d, want 1500", seed, res.Exit)
		}
	}
}

// TestEngineDifferentialDeadlock blocks main on a lock a spinning
// worker never releases: the run must fail instead of hanging.
func TestEngineDifferentialDeadlock(t *testing.T) {
	p := mir.NewProgram()
	w := p.NewFunc("worker", 1)
	w.Lock(mir.R(w.Param(0)))
	w.Loop(mir.C(1<<20), func(i mir.Reg) {})
	w.Ret()
	b := p.NewFunc("main", 0)
	l := b.Const(0x2000)
	b.Spawn("worker", mir.R(l))
	b.Loop(mir.C(200), func(i mir.Reg) {})
	b.Lock(mir.R(l)) // blocks forever: worker never unlocks
	b.Ret()
	p.Entry = "main"
	_, err := runWith(t, p, Config{MaxSteps: 1 << 22}, nil)
	if err == nil {
		t.Fatal("expected a failure")
	}
}

// TestEngineDifferentialHooks plants two hooks amid pure arithmetic:
// argument marshalling (reg, tid, const, shadow), the MetaDst shadow
// write and the handler-visible Steps() clock.
func TestEngineDifferentialHooks(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	x := b.Const(5)
	y := b.Const(6)
	sum := b.Add(mir.R(x), mir.R(y))
	f := b.Func()
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
	z := b.Add(mir.R(sum), mir.C(1))
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

	type seen struct {
		args   []uint64
		steps  []uint64
		shadow uint64
	}
	var got seen
	handlers := func(m *Machine) []HandlerFn {
		return []HandlerFn{
			func(m *Machine, tid uint64, args []uint64) uint64 {
				got.args = append(got.args, args...)
				got.steps = append(got.steps, m.Steps())
				return 0xAB
			},
			func(m *Machine, tid uint64, args []uint64) uint64 {
				got.shadow = args[0]
				got.steps = append(got.steps, m.Steps())
				return 0
			},
		}
	}
	if _, err := runWith(t, p, Config{TrackShadow: true}, handlers); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The first hook sees sum=11, thread 0 and the constant 9 at step 4;
	// its 0xAB return becomes sum's shadow, which z inherits and the
	// second hook reads at step 6.
	want := seen{args: []uint64{11, 0, 9}, steps: []uint64{4, 6}, shadow: 0xAB}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("handler-visible state %+v, want %+v", got, want)
	}
}

// TestEngineDifferentialFaults exercises the deterministic fault
// clocks: nth-allocation NULL, nth-hook handler panic (recovered by Run
// into a trap) and scheduler perturbation.
func TestEngineDifferentialFaults(t *testing.T) {
	hooked := func() *mir.Program {
		p := mir.NewProgram()
		b := p.NewFunc("main", 0)
		b.Loop(mir.C(64), func(i mir.Reg) {
			v := b.Add(mir.R(i), mir.C(1))
			f := b.Func()
			f.Blocks[b.CurBlock()].Instrs = append(f.Blocks[b.CurBlock()].Instrs, mir.Instr{
				Op: mir.OpHook, Dst: mir.NoReg,
				Hook: &mir.HookRef{
					HandlerID: 0,
					Args:      []mir.HookArg{{Kind: mir.HookReg, Reg: v}},
					MetaDst:   mir.NoReg,
					Name:      "ev",
				},
			})
		})
		b.Ret()
		return p
	}
	countHandler := func(m *Machine) []HandlerFn {
		return []HandlerFn{func(m *Machine, tid uint64, args []uint64) uint64 { return 0 }}
	}
	t.Run("handler-panic", func(t *testing.T) {
		for _, nth := range []uint64{1, 20, 23} {
			_, err := runWith(t, hooked(), Config{Faults: FaultSpec{HandlerPanicNth: nth}}, countHandler)
			wantKind(t, err, KindTrap)
		}
	})
	t.Run("malloc-null", func(t *testing.T) {
		p := mir.NewProgram()
		b := p.NewFunc("main", 0)
		b.Loop(mir.C(8), func(i mir.Reg) {
			buf := b.Call("malloc", mir.C(64))
			b.Store(mir.R(buf), mir.R(i), 8)
			b.CallVoid("free", mir.R(buf))
		})
		b.Ret()
		_, err := runWith(t, p, Config{Faults: FaultSpec{MallocFailNth: 3}}, nil)
		wantKind(t, err, KindLibFault)
	})
	t.Run("sched-perturb", func(t *testing.T) {
		if _, err := runWith(t, mixProg(3000), Config{Faults: FaultSpec{SchedPerturb: 0xDEADBEEF}}, nil); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
}

// TestEngineDifferentialBudgets trips each resource budget: the step
// limit, the heap budget and the (first-check) deadline, each with its
// own RunError kind.
func TestEngineDifferentialBudgets(t *testing.T) {
	t.Run("step-limit", func(t *testing.T) {
		_, err := runWith(t, mixProg(1<<30), Config{MaxSteps: 1 << 16}, nil)
		wantKind(t, err, KindStepLimit)
	})
	t.Run("heap-budget", func(t *testing.T) {
		p := mir.NewProgram()
		b := p.NewFunc("main", 0)
		b.Loop(mir.C(1024), func(i mir.Reg) {
			buf := b.Call("malloc", mir.C(1024))
			b.Store(mir.R(buf), mir.R(i), 8)
		})
		b.Ret()
		_, err := runWith(t, p, Config{MaxHeapBytes: 1 << 14}, nil)
		wantKind(t, err, KindHeapLimit)
	})
	t.Run("deadline-first-check", func(t *testing.T) {
		// A 1ns deadline trips at the first wall-clock check (slice 128)
		// on any machine.
		_, err := runWith(t, mixProg(1<<30), Config{Deadline: time.Nanosecond}, nil)
		wantKind(t, err, KindDeadline)
	})
}

// TestEngineDifferentialCalls covers user calls and returns: a deep
// recursive call tree and its return values.
func TestEngineDifferentialCalls(t *testing.T) {
	p := mir.NewProgram()
	fib := p.NewFunc("fib", 1)
	n := fib.Param(0)
	isSmall := fib.Bin(mir.OpLt, mir.R(n), mir.C(2))
	small := fib.NewBlock()
	big := fib.NewBlock()
	fib.CondBr(mir.R(isSmall), small, big)
	fib.SetBlock(small)
	fib.RetVal(mir.R(n))
	fib.SetBlock(big)
	a := fib.Sub(mir.R(n), mir.C(1))
	c := fib.Sub(mir.R(n), mir.C(2))
	ra := fib.Call("fib", mir.R(a))
	rb := fib.Call("fib", mir.R(c))
	s := fib.Add(mir.R(ra), mir.R(rb))
	fib.RetVal(mir.R(s))
	b := p.NewFunc("main", 0)
	r := b.Call("fib", mir.C(17))
	b.RetVal(mir.R(r))
	p.Entry = "main"
	res, err := runWith(t, p, Config{}, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Exit != 1597 {
		t.Fatalf("fib(17) = %d, want 1597", res.Exit)
	}
}

// TestNewRejectsThreadedEngine: the closure-threaded tier was removed,
// and a machine that names it fails at construction instead of running
// on the interpreter unnoticed.
func TestNewRejectsThreadedEngine(t *testing.T) {
	p := mir.NewProgram()
	p.NewFunc("main", 0).Ret()
	if _, err := New(p, Config{Engine: EngineThreaded}); err == nil {
		t.Fatal("New accepted EngineThreaded")
	}
	if _, err := New(p, Config{Engine: EngineInterp}); err != nil {
		t.Fatalf("New rejected EngineInterp: %v", err)
	}
}
