package compiler_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/vm"
)

// runSrc compiles an analysis, instruments the program, runs it and
// returns the result.
func runSrc(t *testing.T, src string, opts compiler.Options, p *mir.Program,
	ext map[string]compiler.ExternalFn) *vm.Result {
	t.Helper()
	a, err := compiler.Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for n, f := range ext {
		a.Externals[n] = f
	}
	inst, err := instrument.Apply(p, a)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	rt, err := a.NewRuntime()
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	m, err := vm.New(inst, vm.Config{TrackShadow: a.NeedShadow})
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	m.Handlers = rt.Handlers()
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func mustInstrument(t *testing.T, a *compiler.Analysis) *mir.Program {
	t.Helper()
	inst, err := instrument.Apply(loadsProg(5), a)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func mustMachine(t *testing.T, p *mir.Program, shadow bool) *vm.Machine {
	t.Helper()
	m, err := vm.New(p, vm.Config{TrackShadow: shadow})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// loadsProg emits exactly n straight-line loads from distinct heap
// addresses (no loop machinery, so LoadInst hooks fire exactly n times).
func loadsProg(n int64) *mir.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(n*8))
	for i := int64(0); i < n; i++ {
		a := b.Add(mir.R(buf), mir.C(i*8))
		b.Store(mir.R(a), mir.C(i), 8)
		b.Load(mir.R(a), 8)
	}
	b.RetVal(mir.C(0))
	return p
}

// assertReports is a helper matching report messages.
func assertReports(t *testing.T, res *vm.Result, want ...string) {
	t.Helper()
	if len(res.Reports) != len(want) {
		t.Fatalf("got %d reports, want %d:\n%s", len(res.Reports), len(want), vm.FormatReports(res.Reports))
	}
	for i, w := range want {
		if !strings.Contains(res.Reports[i].Message, w) {
			t.Fatalf("report %d = %q, want %q", i, res.Reports[i].Message, w)
		}
	}
}

func TestScalarSignedMetadata(t *testing.T) {
	// An int8 metadata value stores -1 and compares signed.
	src := `
address := pointer
v := int8
m = map(address, v)
h(address p) {
    m[p] = -1;
    alda_assert(m[p] < 0, 1, "sign lost");
    m[p] = m[p] + 1;
    alda_assert(m[p], 0, "wraparound wrong");
}
insert after LoadInst call h($1)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(3), nil)
	assertReports(t, res) // no failures
}

func TestUniverseScalarTemplate(t *testing.T) {
	// universe:: scalar starts all-ones (-1 signed).
	src := `
address := pointer
v := int8
m = universe::map(address, v)
probe(address p) {
    alda_assert(m[p], -1, "universe scalar not all-ones");
}
insert after LoadInst call probe($1)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(1), nil)
	assertReports(t, res)
}

func TestGlobalCounters(t *testing.T) {
	src := `
counter := int64
n = counter
h(counter x) { n = n + 1; }
fin() { alda_assert(n, 5, "global count wrong"); }
insert after LoadInst call h($1)
insert before ProgramEnd call fin()
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(5), nil)
	assertReports(t, res)
}

func TestSetOperations(t *testing.T) {
	src := `
address := pointer
e := lockid : 100
s = map(address, set(e))
u = universe::map(address, universe::set(e))
h(address p) {
    alda_assert(s[p].empty(), 1, "new set not empty");
    s[p].add(3);
    s[p].add(7);
    s[p].add(3);
    alda_assert(s[p].size(), 2, "size wrong");
    alda_assert(s[p].find(3), 1, "find miss");
    alda_assert(s[p].find(4), 0, "phantom element");
    s[p].remove(3);
    alda_assert(s[p].find(3), 0, "remove failed");
    alda_assert(u[p].find(99), 1, "universe missing element");
    u[p] = u[p] & s[p];
    alda_assert(u[p].size(), 1, "intersection with universe wrong");
    s[p] = s[p] | u[p];
    alda_assert(s[p].size(), 1, "union wrong");
    s[p].clear();
    alda_assert(s[p].empty(), 1, "clear failed");
}
insert after LoadInst call h($1)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(1), nil)
	assertReports(t, res)
}

func TestTreeSetOperations(t *testing.T) {
	// Unbounded element domain forces the tree representation,
	// including the universe complement form.
	src := `
address := pointer
e := lockid
s = map(address, set(e))
u = universe::map(address, universe::set(e))
h(address p) {
    s[p].add(1000000);
    alda_assert(s[p].find(1000000), 1, "tree add/find");
    alda_assert(u[p].find(123456789), 1, "tree universe");
    u[p].remove(42);
    alda_assert(u[p].find(42), 0, "tree universe remove");
    u[p] = u[p] & s[p];
    alda_assert(u[p].find(1000000), 1, "tree intersect");
    alda_assert(u[p].find(2000000), 0, "tree intersect extra");
}
insert after LoadInst call h($1)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(1), nil)
	assertReports(t, res)
}

func TestVectorClockInnerKeys(t *testing.T) {
	src := `
address := pointer
tid := threadid : 8
clock := int64
vc = map(address, map(tid, clock))
h(address p, tid t) {
    vc[p][t] = vc[p][t] + 1;
}
fin(address p, tid t) {
    alda_assert(vc[p][t], 3, "clock wrong");
}
insert after LoadInst call h($1, $t)
insert before ProgramEnd call fin($1, $t)
`
	// One address loaded three times; ProgramEnd's $1 is bogus here so
	// craft the program manually.
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(8))
	b.Store(mir.R(buf), mir.C(1), 8)
	b.Load(mir.R(buf), 8)
	b.Load(mir.R(buf), 8)
	b.Load(mir.R(buf), 8)
	b.RetVal(mir.R(buf))
	// fin's $1 resolves against the RetVal instruction's operand list
	// ($1 = the returned register = buf).
	res := runSrc(t, src, compiler.DefaultOptions(), p, nil)
	assertReports(t, res)
}

func TestHash2Semantics(t *testing.T) {
	src := `
address := pointer
v := int64
pair = map(address, map(address, v))
h(address a, address b) {
    pair[a][b] = pair[a][b] + 1;
    alda_assert(pair[b][a] + pair[a][b] > 0, 1, "hash2 lost value");
}
insert after StoreInst call h($2, $1)
`
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(16))
	b.Store(mir.R(buf), mir.R(buf), 8)
	b.RetVal(mir.C(0))
	res := runSrc(t, src, compiler.DefaultOptions(), p, nil)
	assertReports(t, res)
}

func TestRangeOps(t *testing.T) {
	src := `
address := pointer
size := int64
v := int8
m = map(address, v)
mark(address p, size n) { m.set(p, 5, n); }
checkIn(address p) {
    alda_assert(m.get(p, 64), 5, "range not marked");
    alda_assert(m[p], 5, "point read after range set");
}
insert after func malloc call mark($r, $1)
insert before func free call checkIn($1)
`
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(64))
	b.CallVoid("free", mir.R(buf))
	b.RetVal(mir.C(0))
	res := runSrc(t, src, compiler.DefaultOptions(), p, nil)
	assertReports(t, res)
}

func TestMapRemoveAndHas(t *testing.T) {
	src := `
address := pointer
v := int64
m = map(address, v)
h(address p) {
    m[p] = 9;
    alda_assert(m.has(p), 1, "has after set");
    m.remove(p);
    alda_assert(m[p], 0, "value after remove");
}
insert after LoadInst call h($1)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(1), nil)
	assertReports(t, res)
}

func TestExternalCallsAndPtrOffset(t *testing.T) {
	src := `
address := pointer
v := int64
m = map(address, v)
h(address p) {
    m[ptr_offset(p, 8)] = my_double(21);
    alda_assert(m[ptr_offset(p, 8)], 42, "external result lost");
}
insert after LoadInst call h($1)
`
	called := 0
	ext := map[string]compiler.ExternalFn{
		"my_double": func(m *vm.Machine, args []uint64) uint64 {
			called++
			return args[0] * 2
		},
	}
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(1), ext)
	assertReports(t, res)
	if called == 0 {
		t.Fatal("external never called")
	}
}

func TestMissingExternalFails(t *testing.T) {
	src := `
address := pointer
h(address p) { mystery(p); }
insert after LoadInst call h($1)
`
	a, err := compiler.Compile(src, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewRuntime(); err == nil || !strings.Contains(err.Error(), "no implementation") {
		t.Fatalf("err = %v", err)
	}
}

func TestLockInterningWraps(t *testing.T) {
	// Domain 4: the fifth distinct lock id wraps onto id 0.
	src := `
l := lockid : 4
tid := threadid : 8
s = map(tid, set(l))
h(l x, tid t) { s[t].add(x); }
fin(tid t) { alda_assert(s[t].size(), 4, "interning wrap wrong"); }
insert after LockInst call h($1, $t)
insert before ProgramEnd call fin($t)
`
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	for i := 0; i < 5; i++ {
		l := b.Call("malloc", mir.C(8))
		b.Lock(mir.R(l))
		b.Unlock(mir.R(l))
	}
	b.RetVal(mir.C(0))
	res := runSrc(t, src, compiler.DefaultOptions(), p, nil)
	assertReports(t, res)
}

func TestAssertMessageAndCounts(t *testing.T) {
	src := `
address := pointer
h(address p) { alda_assert(1, 2, "always fails"); }
insert after LoadInst call h($1)
`
	// One load site executed four times: reports dedup by location.
	p := mir.NewProgram()
	fb := p.NewFunc("main", 0)
	f := fb.Func()
	f.NRegs = 4
	f.Blocks = []mir.Block{
		{Instrs: []mir.Instr{
			{Op: mir.OpCall, Dst: 0, Callee: "malloc", Args: []mir.Operand{mir.C(8)}},
			{Op: mir.OpStore, A: mir.R(0), B: mir.C(1), Size: 8},
			{Op: mir.OpConst, Dst: 1, Imm: 4},
			{Op: mir.OpBr, Target: 1},
		}},
		{Instrs: []mir.Instr{
			{Op: mir.OpLoad, Dst: 2, A: mir.R(0), Size: 8},
			{Op: mir.OpSub, Dst: 1, A: mir.R(1), B: mir.C(1)},
			{Op: mir.OpGt, Dst: 3, A: mir.R(1), B: mir.C(0)},
			{Op: mir.OpCondBr, A: mir.R(3), Target: 1, Else: 2},
		}},
		{Instrs: []mir.Instr{{Op: mir.OpRetVal, A: mir.C(0)}}},
	}
	res := runSrc(t, src, compiler.DefaultOptions(), p, nil)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d:\n%s", len(res.Reports), vm.FormatReports(res.Reports))
	}
	r := res.Reports[0]
	if r.Message != "always fails" || r.Count != 4 || r.Got != 1 || r.Expected != 2 {
		t.Fatalf("report: %+v", r)
	}
}

// Optimization equivalence: all configurations must produce identical
// report streams on a metadata-heavy analysis.
func TestConfigEquivalence(t *testing.T) {
	src := `
address := pointer
tid := threadid : 8
e := lockid : 100
v := int8
status = map(address, v)
owners = map(address, set(tid))
locks = universe::map(address, set(e))
held = map(tid, set(e))
h(address p, tid t) {
    if (!owners[p].find(t)) {
        owners[p].add(t);
        status[p] = status[p] + 1;
    }
    if (status[p] > 1) {
        locks[p] = locks[p] & held[t];
        alda_assert(locks[p].empty(), 0, "empty lockset");
    }
    status.set(p, status[p], 16);
    alda_assert(status.get(p, 16), status[p], "range mismatch");
}
insert after LoadInst call h($1, $t)
insert after StoreInst call h($2, $t)
`
	configs := map[string]compiler.Options{
		"full":    compiler.DefaultOptions(),
		"ds-only": compiler.DSOnlyOptions(),
		"naive":   compiler.NaiveOptions(),
	}
	var ref string
	for name, opts := range configs {
		res := runSrc(t, src, opts, loadsProg(40), nil)
		var sb strings.Builder
		for _, r := range res.Reports {
			fmt.Fprintf(&sb, "%s@%s x%d\n", r.Message, r.Where, r.Count)
		}
		if ref == "" {
			ref = sb.String()
			continue
		}
		if sb.String() != ref {
			t.Fatalf("config %s diverged:\n%s\nvs reference:\n%s", name, sb.String(), ref)
		}
	}
}

// CSE must not change behavior even when keys alias dynamically.
func TestValueCacheAliasing(t *testing.T) {
	// Two parameters that are the same address at runtime: a write
	// through one must be visible through the other.
	src := `
address := pointer
v := int64
m = map(address, v)
h(address a, address b) {
    m[a] = 1;
    m[b] = 2;
    alda_assert(m[a], 2, "aliased write lost (stale value cache)");
}
insert after LoadInst call h($1, $1)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(1), nil)
	assertReports(t, res)
}

func TestInPlaceSetPeephole(t *testing.T) {
	// m[p] = m[p] & other must behave exactly like the general path.
	src := `
address := pointer
e := lockid : 64
m = universe::map(address, universe::set(e))
o = map(address, set(e))
h(address p) {
    o[p].add(5);
    o[p].add(9);
    m[p] = m[p] & o[p];
    alda_assert(m[p].size(), 2, "in-place intersect wrong");
    m[p] = m[p] | o[p];
    alda_assert(m[p].size(), 2, "in-place union wrong");
}
insert after LoadInst call h($1)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadsProg(1), nil)
	assertReports(t, res)
}

func TestHandlerReturnFeedsShadow(t *testing.T) {
	// Handler return value becomes the hooked load's shadow; a second
	// handler observes it through $r.m-style propagation.
	src := `
address := pointer
label := int64
label mark(address p) { return 7; }
check(label l) { alda_assert(l, 7, "shadow lost"); }
insert after LoadInst call mark($1)
insert before BranchInst call check($1.m)
`
	res := runSrc(t, src, compiler.DefaultOptions(), loadThenBranch(), nil)
	assertReports(t, res)
}
