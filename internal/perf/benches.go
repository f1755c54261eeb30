package perf

import (
	"fmt"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/meta"
	"repro/internal/mir"
	"repro/internal/vm"
)

// Bench fixture dimensions. 4096 warm keys keeps every container's
// working set resident while still exercising real probing; entries are
// two words like the common coalesced-group layouts.
const (
	benchKeys = 4096
	benchEW   = 2
)

// benchKeySet returns a deterministic pseudo-random key stream
// (SplitMix64) bounded below limit; limit 0 keeps full 64-bit spread.
func benchKeySet(n int, limit uint64) []uint64 {
	keys := make([]uint64, n)
	x := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for i := range keys {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		if limit != 0 {
			z %= limit
		}
		keys[i] = z
	}
	return keys
}

// singleKeyed abstracts the one-key containers for fixture reuse.
type singleKeyed interface {
	Entry(key uint64) []uint64
	Peek(key uint64) []uint64
	ForEach(fn func(key uint64, entry []uint64))
}

func getBench(c singleKeyed, keys []uint64) func(n int) {
	for _, k := range keys {
		meta.StoreField(c.Entry(k), 0, 64, k)
	}
	return func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			e := c.Peek(keys[i%len(keys)])
			if e != nil {
				acc += meta.LoadField(e, 0, 64)
			}
		}
		sink += acc
	}
}

func setBench(c singleKeyed, keys []uint64) func(n int) {
	for _, k := range keys {
		c.Entry(k)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			meta.StoreField(c.Entry(keys[i%len(keys)]), 0, 64, uint64(i))
		}
	}
}

func iterateBench(c singleKeyed, keys []uint64) func(n int) {
	for _, k := range keys {
		meta.StoreField(c.Entry(k), 0, 64, k)
	}
	return func(n int) {
		var acc uint64
		// One fn unit = one full sweep; per-op cost is amortized per
		// visited entry below by sweeping max(1, n/len(keys)) times.
		sweeps := n / len(keys)
		if sweeps == 0 {
			sweeps = 1
		}
		for s := 0; s < sweeps; s++ {
			c.ForEach(func(_ uint64, e []uint64) { acc += e[0] })
		}
		sink += acc
	}
}

// containerBenches builds Get/Set/Iterate for every single-key
// container and the pair-keyed hash table (meta.NewHashMap2).
func containerBenches() []Bench {
	tmpl := []uint64{0, 0}
	type mk struct {
		name string
		new  func() singleKeyed
		keys []uint64
	}
	// ArrayMap needs a bounded domain, shadow memory and the page table
	// (one ChunkMap type) a key ceiling, and HashMap takes raw 64-bit
	// keys. Address-shaped keys (clustered, 8-byte granules) exercise the
	// chunk TLB and the page table's leaves the way instrumented loads do.
	addrKeys := benchKeySet(benchKeys, 1<<24)
	makers := []mk{
		{"array", func() singleKeyed { return meta.NewArrayMap(benchKeys, benchEW, tmpl) }, benchKeySet(benchKeys, benchKeys)},
		{"shadow", func() singleKeyed { return meta.NewShadowMap(1<<24, benchEW, tmpl) }, addrKeys},
		{"pagetable", func() singleKeyed { return meta.NewPageTableMap(1<<24, benchEW, tmpl) }, addrKeys},
		{"hash", func() singleKeyed { return meta.NewHashMap(benchEW, tmpl) }, benchKeySet(benchKeys, 0)},
	}
	var out []Bench
	for _, m := range makers {
		m := m
		prefix := "container/" + m.name
		out = append(out,
			Bench{prefix + "/get", func() func(int) { return getBench(m.new(), m.keys) }},
			Bench{prefix + "/set", func() func(int) { return setBench(m.new(), m.keys) }},
			Bench{prefix + "/iterate", func() func(int) { return iterateBench(m.new(), m.keys) }},
		)
	}

	// Pair tables have their own API shape.
	k1 := benchKeySet(benchKeys, 0)
	k2 := benchKeySet(benchKeys, 64)
	out = append(out,
		Bench{"container/hash2/get", func() func(int) {
			c := meta.NewHashMap2(benchEW, tmpl)
			for i := range k1 {
				meta.StoreField(c.Entry2(k1[i], k2[i]), 0, 64, k1[i])
			}
			return func(n int) {
				var acc uint64
				for i := 0; i < n; i++ {
					j := i % len(k1)
					if e := c.Peek2(k1[j], k2[j]); e != nil {
						acc += meta.LoadField(e, 0, 64)
					}
				}
				sink += acc
			}
		}},
		Bench{"container/hash2/set", func() func(int) {
			c := meta.NewHashMap2(benchEW, tmpl)
			for i := range k1 {
				c.Entry2(k1[i], k2[i])
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					j := i % len(k1)
					meta.StoreField(c.Entry2(k1[j], k2[j]), 0, 64, uint64(i))
				}
			}
		}},
		Bench{"container/hash2/iterate", func() func(int) {
			c := meta.NewHashMap2(benchEW, tmpl)
			for i := range k1 {
				meta.StoreField(c.Entry2(k1[i], k2[i]), 0, 64, k1[i])
			}
			return func(n int) {
				var acc uint64
				sweeps := n / len(k1)
				if sweeps == 0 {
					sweeps = 1
				}
				for s := 0; s < sweeps; s++ {
					c.ForEach2(func(_, _ uint64, e []uint64) { acc += e[0] })
				}
				sink += acc
			}
		}},
	)
	return out
}

// dispatchProgram builds an effectively endless store/load loop over a
// small buffer — the steady-state access stream every per-access
// analysis hooks. withLocks adds a lock/unlock pair per iteration for
// lock-discipline analyses.
func dispatchProgram(withLocks bool) *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(512))
	b.Loop(mir.C(1<<40), func(i mir.Reg) {
		idx := b.Bin(mir.OpAnd, mir.R(i), mir.C(63))
		off := b.Mul(mir.R(idx), mir.C(8))
		addr := b.Add(mir.R(buf), mir.R(off))
		b.Store(mir.R(addr), mir.R(i), 8)
		b.Load(mir.R(addr), 8)
		if withLocks {
			b.Lock(mir.C(0x4000))
			b.Unlock(mir.C(0x4000))
		}
	})
	b.RetVal(mir.C(0))
	return p
}

// arithProgram builds the instrumented-quantum dispatch stress: a loop
// whose body is dominated by pure register arithmetic — eight
// independent xorshift-style mixer lanes, interleaved so the hardware
// always has ready work — with one store/load pair per iteration
// keeping the per-access analysis hooked in. The lanes matter: a
// single serial mixer is latency-bound on its own dependency chain and
// out-of-order execution hides any dispatch cost inside the stalls.
// With eight parallel chains the per-instruction overhead (switch
// dispatch, per-op step and opcode accounting) is the bottleneck,
// which is precisely what a dispatch benchmark must expose.
func arithProgram() *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(512))
	// Register-carried loop state: Loop's memory-carried induction
	// variable would add hooked load/store traffic every iteration,
	// drowning the dispatch signal under handler time.
	i := b.Const(0)
	lanes := [8]mir.Reg{
		b.Const(0x9E3779B9),
		b.Const(0x1CE4E5B9),
		b.Const(0x133111EB),
		b.Const(0x6659FD93),
		b.Const(0x7F4A7C15),
		b.Const(0x2545F491),
		b.Const(0x4F6CDD1D),
		b.Const(0x5851F42D),
	}
	var s [8]mir.Reg
	for l := range s {
		s[l] = b.NewReg()
	}
	x := b.NewReg()
	body := b.NewBlock()
	exit := b.NewBlock()
	b.Br(body)
	b.SetBlock(body)
	for k := 0; k < 8; k++ {
		for l := range lanes {
			b.BinTo(s[l], mir.OpShr, mir.R(lanes[l]), mir.C(13))
		}
		for l := range lanes {
			b.BinTo(lanes[l], mir.OpXor, mir.R(lanes[l]), mir.R(s[l]))
		}
		for l := range lanes {
			b.BinTo(s[l], mir.OpShl, mir.R(lanes[l]), mir.C(17))
		}
		for l := range lanes {
			b.BinTo(lanes[l], mir.OpAdd, mir.R(lanes[l]), mir.R(s[l]))
		}
	}
	b.BinTo(x, mir.OpXor, mir.R(lanes[0]), mir.R(lanes[1]))
	b.BinTo(x, mir.OpXor, mir.R(x), mir.R(lanes[2]))
	b.BinTo(x, mir.OpXor, mir.R(x), mir.R(lanes[4]))
	b.BinTo(x, mir.OpAnd, mir.R(x), mir.C(63))
	b.BinTo(x, mir.OpMul, mir.R(x), mir.C(8))
	b.BinTo(x, mir.OpAdd, mir.R(buf), mir.R(x))
	b.Store(mir.R(x), mir.R(lanes[3]), 8)
	b.Load(mir.R(x), 8)
	b.BinTo(i, mir.OpAdd, mir.R(i), mir.C(1))
	cond := b.Bin(mir.OpLt, mir.R(i), mir.C(1<<40))
	b.CondBr(mir.R(cond), body, exit)
	b.SetBlock(exit)
	b.RetVal(mir.C(0))
	return p
}

// dispatchBench compiles the named analysis, instruments the program
// built by prog and measures RunQuantum throughput — dispatch plus
// compiled-handler bodies, end to end.
func dispatchBench(name, analysis string, prog func() *mir.Program) Bench {
	return dispatchBenchOf(name, analysis, prog, func() (*compiler.Analysis, error) {
		return analyses.Compile(analysis, compiler.DefaultOptions())
	})
}

// closureDispatchBench is dispatchBench on the closure emitter: the
// analysis compiles as a runtime-supplied source (one extra unused
// constant, so the staged table has no entry for it) at the same
// options and layout. It gates the path ablations and runtime-supplied
// analyses still take now that the shipped ones run staged handlers.
func closureDispatchBench(name, analysis string, prog func() *mir.Program) Bench {
	return dispatchBenchOf(name, analysis, prog, func() (*compiler.Analysis, error) {
		a, err := compiler.Compile(analyses.MustSource(analysis)+"\nconst RUNTIME_SUPPLIED = 1\n", compiler.DefaultOptions())
		if err == nil && a.Staged() {
			err = fmt.Errorf("closure twin compiled to %s", a.HandlerBackend())
		}
		return a, err
	})
}

func dispatchBenchOf(name, analysis string, prog func() *mir.Program, compile func() (*compiler.Analysis, error)) Bench {
	return Bench{name, func() func(int) {
		a, err := compile()
		if err != nil {
			panic(fmt.Sprintf("perf: compile %s: %v", analysis, err))
		}
		analyses.RegisterExternals(a)
		inst, err := instrument.Apply(prog(), a)
		if err != nil {
			panic(fmt.Sprintf("perf: instrument %s: %v", analysis, err))
		}
		rt, err := a.NewRuntime()
		if err != nil {
			panic(fmt.Sprintf("perf: runtime %s: %v", analysis, err))
		}
		m, err := vm.New(inst, vm.Config{TrackShadow: a.NeedShadow, MaxSteps: 1 << 62})
		if err != nil {
			panic(fmt.Sprintf("perf: vm %s: %v", analysis, err))
		}
		m.Handlers = rt.Handlers()
		if err := m.Start(); err != nil {
			panic(fmt.Sprintf("perf: start %s: %v", analysis, err))
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				if !m.RunQuantum() {
					panic(fmt.Sprintf("perf: %s workload terminated mid-bench", analysis))
				}
			}
		}
	}}
}

// dispatchBenches is the analysis-dispatch half of the suite: every
// dispatch workload on the staged handlers, plus closure-emitter twins
// of msan and eraser.
func dispatchBenches() []Bench {
	accesses := func() *mir.Program { return dispatchProgram(false) }
	withLocks := func() *mir.Program { return dispatchProgram(true) }
	return []Bench{
		dispatchBench("dispatch/uaf", "uaf", accesses),
		dispatchBench("dispatch/msan", "msan", accesses),
		dispatchBench("dispatch/eraser", "eraser", withLocks),
		closureDispatchBench("dispatch/msan/closures", "msan", accesses),
		closureDispatchBench("dispatch/eraser/closures", "eraser", withLocks),
		dispatchBench("dispatch/uaf/arith", "uaf", arithProgram),
	}
}

// HotPathBenches is the BenchHotPath suite: per-container Get/Set/
// Iterate, per-analysis handler dispatch, and trace record and replay.
func HotPathBenches() []Bench {
	out := append(containerBenches(), dispatchBenches()...)
	return append(out, traceBenches()...)
}
