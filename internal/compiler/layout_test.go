package compiler

import (
	"strings"
	"testing"
)

func compileT(t *testing.T, src string, opts Options) *Analysis {
	t.Helper()
	a, err := Compile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return a
}

func TestMSanLayoutDecisions(t *testing.T) {
	src := `
address := pointer
size := int64
value := int8
addr2label = universe::map(address, value)
addr2size = map(address, size)
h(address p) { addr2label[p] = 0; addr2size[p] = 1; }
insert after LoadInst call h($1)
`
	a := compileT(t, src, DefaultOptions())
	if len(a.Layout.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (coalesced by address key)", len(a.Layout.Groups))
	}
	g := a.Layout.Groups[0]
	if g.Impl != ImplShadow {
		t.Fatalf("impl = %s, want shadow (factor %.2f <= 3)", g.Impl, g.ShadowFactor)
	}
	if g.ShadowFactor > 3 {
		t.Fatalf("shadow factor = %.2f", g.ShadowFactor)
	}
	// The universe int8 label must template to all-ones in its field.
	label := g.Member("addr2label")
	if !label.UnivInit || label.Width != 8 {
		t.Fatalf("label member: %+v", label)
	}
}

func TestEraserLayoutDecisions(t *testing.T) {
	src := `
address := pointer : sync
tid := threadid : 64
lid := lockid : 256
status := int8
thread2Lock = map(tid, set(lid))
addr2Lock = universe::map(address, set(lid))
addr2Thread = map(address, set(tid))
addr2Status = map(address, status)
h(address a, tid t) { addr2Status[a] = 1; }
insert after LoadInst call h($1, $t)
`
	a := compileT(t, src, DefaultOptions())
	if len(a.Layout.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (tid group + address group)", len(a.Layout.Groups))
	}
	var addrG, tidG *Group
	for _, g := range a.Layout.Groups {
		switch g.KeyType.Name {
		case "address":
			addrG = g
		case "tid":
			tidG = g
		}
	}
	if addrG == nil || tidG == nil {
		t.Fatal("missing expected groups")
	}
	if addrG.Impl != ImplPageTable {
		t.Fatalf("address group impl = %s, want pagetable (factor %.2f > 3)", addrG.Impl, addrG.ShadowFactor)
	}
	if !addrG.Sync {
		t.Fatal("address group must be sync")
	}
	if tidG.Impl != ImplArray {
		t.Fatalf("tid group impl = %s, want array", tidG.Impl)
	}
	locks := addrG.Member("addr2Lock")
	if locks.Repr != SetBitVec || locks.SetWords != 4 || !locks.SetUniv {
		t.Fatalf("lockset member: %+v", locks)
	}
	threads := addrG.Member("addr2Thread")
	if threads.Repr != SetBitVec || threads.SetWords != 1 {
		t.Fatalf("threadset member: %+v", threads)
	}
}

func TestSetReprThreshold(t *testing.T) {
	// 4096-bit domain = 512 bytes: still bitvec; 4097+ and unbounded: tree.
	src := `
address := pointer
small := lockid : 4096
big := lockid : 4160
unbounded := lockid
m1 = map(address, set(small))
m2 = map(address, set(big))
m3 = map(address, set(unbounded))
h(address a) { m1[a].add(1); m2[a].add(1); m3[a].add(1); }
insert after LoadInst call h($1)
`
	a := compileT(t, src, DefaultOptions())
	g := a.Layout.Groups[0]
	if g.Member("m1").Repr != SetBitVec {
		t.Error("4096-bit set should be a bit-vector")
	}
	if g.Member("m2").Repr != SetTree {
		t.Error("4160-bit set should be a tree")
	}
	if g.Member("m3").Repr != SetTree {
		t.Error("unbounded set should be a tree")
	}
}

func TestUnboundedNonPointerKeyIsHash(t *testing.T) {
	src := `
k := int64
v := int64
m = map(k, v)
h(k x) { m[x] = 1; }
insert after LoadInst call h($1)
`
	a := compileT(t, src, DefaultOptions())
	if a.Layout.Groups[0].Impl != ImplHash {
		t.Fatalf("impl = %s, want hash", a.Layout.Groups[0].Impl)
	}
}

func TestGlobalGroup(t *testing.T) {
	src := `
counter := int64
c1 = counter
c2 = counter
h(counter x) { c1 = c1 + x; c2 = c2 - x; }
insert after LoadInst call h($1)
`
	a := compileT(t, src, DefaultOptions())
	if len(a.Layout.Groups) != 1 || a.Layout.Groups[0].Impl != ImplGlobal {
		t.Fatalf("globals not grouped: %+v", a.Layout.Groups)
	}
}

func TestInnerBoundedKeyFolds(t *testing.T) {
	src := `
address := pointer
tid := threadid : 8
clock := int64
vc = map(address, map(tid, clock))
h(address a, tid t) { vc[a][t] = vc[a][t] + 1; }
insert after LoadInst call h($1, $t)
`
	a := compileT(t, src, DefaultOptions())
	g := a.Layout.Groups[0]
	m := g.Member("vc")
	if len(m.InnerDomains) != 1 || m.InnerDomains[0] != 8 {
		t.Fatalf("inner domains: %v", m.InnerDomains)
	}
	if g.EntryWords != 8 {
		t.Fatalf("entry words = %d, want 8 (8 clocks)", g.EntryWords)
	}
	// 8 words/granule over 8-byte granularity = factor 8 > 3 → pagetable.
	if g.Impl != ImplPageTable {
		t.Fatalf("impl = %s", g.Impl)
	}
}

func TestHash2ForDoubleUnbounded(t *testing.T) {
	src := `
address := pointer
v := int64
m = map(address, map(address, v))
h(address a, address b) { m[a][b] = 1; }
insert after LoadInst call h($1, $1)
`
	a := compileT(t, src, DefaultOptions())
	if g := a.Layout.Groups[0]; g.Impl != ImplHash || g.Key2Type == nil {
		t.Fatalf("impl = %s, key2 = %v; want a pair-keyed hash", g.Impl, g.Key2Type)
	}
}

// TestPairKeyedMapPointAccessOnly: a pair table answers point reads and
// writes only, so Compile rejects has, remove and the ranged forms on a
// map with two unbounded keys, with or without container selection,
// with the message the lowering would give.
func TestPairKeyedMapPointAccessOnly(t *testing.T) {
	for _, c := range []struct{ body, err string }{
		{`alda_assert(m[a].has(b), 1, "has");`, "has unsupported on m"},
		{`m[a].remove(b);`, "remove unsupported on m"},
		{`m[a].set(b, 1, 8);`, "range set on m requires a single-dimension container-backed map"},
		{`alda_assert(m[a].get(b, 8), 0, "range");`, "range get on m requires a single-dimension container-backed map"},
	} {
		src := `
address := pointer
v := int64
m = map(address, map(address, v))
h(address a, address b) { ` + c.body + ` }
insert after LoadInst call h($1, $1)
`
		for _, opts := range []Options{DefaultOptions(), NaiveOptions()} {
			_, err := Compile(src, opts)
			if want := "compiler: handler h: " + c.err; err == nil || err.Error() != want {
				t.Errorf("%s under %s: Compile err = %v, want %q", c.body, opts.Fingerprint(), err, want)
			}
		}
	}
}

func TestDSOnlySplitsGroups(t *testing.T) {
	src := `
address := pointer
a1 = map(address, int8v)
a2 = map(address, int8v)
int8v := int8
h(address p) { a1[p] = 1; a2[p] = 2; }
insert after LoadInst call h($1)
`
	full := compileT(t, src, DefaultOptions())
	ds := compileT(t, src, DSOnlyOptions())
	if len(full.Layout.Groups) != 1 {
		t.Fatalf("full groups = %d", len(full.Layout.Groups))
	}
	if len(ds.Layout.Groups) != 2 {
		t.Fatalf("ds-only groups = %d, want 2 (no coalescing)", len(ds.Layout.Groups))
	}
}

func TestNaiveUsesHashAndTree(t *testing.T) {
	src := `
address := pointer
lid := lockid : 64
m = map(address, set(lid))
h(address p, lid l) { m[p].add(l); }
insert after LoadInst call h($1, $1)
`
	a := compileT(t, src, NaiveOptions())
	g := a.Layout.Groups[0]
	if g.Impl != ImplHash {
		t.Fatalf("naive impl = %s, want hash", g.Impl)
	}
	if g.Member("m").Repr != SetTree {
		t.Fatalf("naive set repr = %s, want tree", g.Member("m").Repr)
	}
}

func TestScalarWidthFromDomain(t *testing.T) {
	src := `
address := pointer
lid := lockid : 200
m = map(address, lid)
h(address p) { m[p] = 3; }
insert after LoadInst call h($1)
`
	a := compileT(t, src, DefaultOptions())
	m := a.Layout.Groups[0].Member("m")
	if m.Width != 8 {
		t.Fatalf("width = %d, want 8 (domain 200)", m.Width)
	}
	if m.Signed {
		t.Fatal("lockid must be unsigned")
	}
}

func TestPackingAvoidsStraddle(t *testing.T) {
	src := `
address := pointer
a := int8
b := int64
c := int8
m1 = map(address, a)
m2 = map(address, b)
m3 = map(address, c)
h(address p) { m1[p] = 1; m2[p] = 2; m3[p] = 3; }
insert after LoadInst call h($1)
`
	an := compileT(t, src, DefaultOptions())
	g := an.Layout.Groups[0]
	for _, m := range g.Members {
		startWord := m.BitOff / 64
		endWord := (m.BitOff + m.Width - 1) / 64
		if startWord != endWord {
			t.Fatalf("member %s straddles words: off=%d width=%d", m.Meta.Name, m.BitOff, m.Width)
		}
	}
}

func TestCountLOC(t *testing.T) {
	src := `
// comment only
a := int8   // trailing

/* block
   comment */
b := int8 /* inline */
`
	if got := CountLOC(src); got != 2 {
		t.Fatalf("LOC = %d, want 2", got)
	}
}

func TestPlanOutput(t *testing.T) {
	src := `
address := pointer
v := int8
m = universe::map(address, v)
h(address p) { m[p] = 0; m[p] = 1; }
insert after LoadInst call h($1)
`
	a := compileT(t, src, DefaultOptions())
	plan := a.Plan()
	for _, want := range []string{"impl=shadow", "shadow-factor", "handler h", "scalar width=8"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestLowerRulesErrorsAndShadowDetection(t *testing.T) {
	a := compileT(t, `
address := pointer
label := int64
h(address p, label l) { }
insert after LoadInst call h($1, $1.m)
`, DefaultOptions())
	if !a.NeedShadow {
		t.Fatal(".m argument must set NeedShadow")
	}
	b := compileT(t, `
address := pointer
h(address p) { }
insert after LoadInst call h($1)
`, DefaultOptions())
	if b.NeedShadow {
		t.Fatal("no .m and no result: NeedShadow must be false")
	}
}
