package compiler

import (
	"fmt"
	"strings"
	"testing"
)

// Tests of the must-fetched tags (tagFetches) over small sources.

var tagNames = [...]string{fetchSome: "some", fetchNone: "none", fetchAll: "all"}

// fetchTags lowers src and lists the tagged nodes of the handler table
// entry named name, in source order (a store after its right-hand
// side): "load m v:T e:T", "store m e:T", "<set method> m e:T" and
// "get m slot" or "get m container" for a ranged builtin (set for a
// ranged store). An entry without a slot reads "e:-", and a load whose
// value slot is filled lists no entry: it fetches none.
func fetchTags(t *testing.T, src string, opts Options, name string) ([]string, *lHandler) {
	t.Helper()
	a := compileT(t, src, opts)
	lhs, err := lowerHandlers(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, hn := range a.HandlerNames() {
		if hn != name || lhs[i] == nil {
			continue
		}
		var out []string
		var expr func(e lExpr)
		tag := func(en *lEntry) string {
			if en.slot < 0 {
				return "-"
			}
			return tagNames[en.fetch]
		}
		entry := func(what string, l *lLoc) {
			out = append(out, fmt.Sprintf("%s %s e:%s", what, l.mem.Meta.Name, tag(l.entry)))
		}
		expr = func(e lExpr) {
			switch x := e.(type) {
			case *lLoad:
				if x.vslot < 0 {
					entry("load", x.loc)
					return
				}
				s := fmt.Sprintf("load %s v:%s", x.loc.mem.Meta.Name, tagNames[x.fetch])
				if x.fetch != fetchAll {
					s += " e:" + tag(x.loc.entry)
				}
				out = append(out, s)
			case *lStore:
				expr(x.rhs)
				entry("store", x.loc)
			case *lUnary:
				expr(x.x)
			case *lBinary:
				expr(x.x)
				expr(x.y)
			case *lSetMethod:
				expr(x.elem)
				entry(x.name, x.loc)
			case *lRange:
				expr(x.key)
				expr(x.n)
				expr(x.val)
				op, via := "get", "container"
				if x.store {
					op = "set"
				}
				if x.slot >= 0 {
					via = "slot"
				}
				out = append(out, fmt.Sprintf("%s %s %s", op, a.Layout.Groups[x.group].Members[0].Meta.Name, via))
			case *lAssert:
				expr(x.got)
				expr(x.want)
			}
		}
		var stmts func([]lStmt)
		stmts = func(list []lStmt) {
			for _, s := range list {
				switch st := s.(type) {
				case *lIf:
					expr(st.cond)
					stmts(st.then)
					stmts(st.els)
				case *lReturn:
					expr(st.val)
				case *lDo:
					expr(st.x)
				}
			}
		}
		for _, part := range lhs[i].parts {
			stmts(part)
		}
		return out, lhs[i]
	}
	t.Fatalf("no lowered handler %s", name)
	return nil, nil
}

func checkTags(t *testing.T, name string, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s:\n got %q\nwant %q", name, got, want)
	}
}

// Two members of one address-keyed group share an entry slot.
const fetchDecls = `
address := pointer
v := int64
a = map(address, v)
b = map(address, v)
`

func TestFetchTagsIfArms(t *testing.T) {
	src := fetchDecls + `
one(address p, v x) {
    if (x > 0) { a[p] = 1; }
    b[p] = 2;
}
both(address p, v x) {
    if (x > 0) { a[p] = 1; } else { a[p] = 3; }
    b[p] = 2;
}
insert after LoadInst call one($1, sizeof($r))
insert before StoreInst call both($2, sizeof($1))
`
	got, _ := fetchTags(t, src, DefaultOptions(), "one")
	checkTags(t, "one arm", got, "store a e:none", "store b e:some")
	got, _ = fetchTags(t, src, DefaultOptions(), "both")
	checkTags(t, "both arms", got, "store a e:none", "store a e:none", "store b e:all")
}

func TestFetchTagsShortCircuit(t *testing.T) {
	src := fetchDecls + `
right(address p, v x) {
    alda_assert(x > 0 && a[p] > 0, 0, "r");
    b[p] = 2;
}
left(address p, v x) {
    alda_assert(a[p] > 0 || x > 0, 0, "l");
    b[p] = 2;
}
insert after LoadInst call right($1, sizeof($r))
insert before StoreInst call left($2, sizeof($1))
`
	got, _ := fetchTags(t, src, DefaultOptions(), "right")
	checkTags(t, "right operand", got, "load a v:none e:none", "store b e:some")
	got, _ = fetchTags(t, src, DefaultOptions(), "left")
	checkTags(t, "left operand", got, "load a v:none e:none", "store b e:all")
}

// In a fused hook a return ends its part: the next part starts from the
// merge of the returning and the falling-through paths.
func TestFetchTagsFusedReturn(t *testing.T) {
	src := fetchDecls + `
f(address p, v x) {
    if (x > 0) { a[p] = 1; return; }
    a[p] = 2;
}
g(address p, v x) { b[p] = 3; }
h(address p, v x) {
    if (x > 0) { return; }
    a[p] = 2;
}
k(address p, v x) { b[p] = 3; }
insert after LoadInst call f($1, sizeof($r))
insert after LoadInst call g($1, sizeof($r))
insert before StoreInst call h($2, sizeof($1))
insert before StoreInst call k($2, sizeof($1))
`
	got, _ := fetchTags(t, src, DefaultOptions(), "fused(f+g)")
	checkTags(t, "fetched before both exits", got, "store a e:none", "store a e:none", "store b e:all")
	got, _ = fetchTags(t, src, DefaultOptions(), "fused(h+k)")
	checkTags(t, "returned before the fetch", got, "store a e:none", "store b e:some")
	got, _ = fetchTags(t, src, NoFuseOptions(), "g")
	checkTags(t, "unfused", got, "store b e:none")
}

// A store through another key class may alias a cached value: it empties
// the value slot on its paths.
func TestFetchTagsAliasingStore(t *testing.T) {
	src := fetchDecls + `
h(address p, address q, v x) {
    alda_assert(a[p], 0, "1");
    if (x > 0) { a[q] = 1; }
    alda_assert(a[p], 0, "2");
    alda_assert(a[p], 0, "3");
    a[q] = 2;
    alda_assert(a[p], 0, "4");
    a[p] = 3;
    alda_assert(a[p], 0, "5");
}
insert after LoadInst call h($1, $r, sizeof($r))
`
	got, lh := fetchTags(t, src, DefaultOptions(), "h")
	checkTags(t, "aliasing", got,
		"load a v:none e:none",
		"store a e:none", // a[q] has an entry slot of its own
		"load a v:some e:all",
		"load a v:all",
		"store a e:some",
		"load a v:none e:all",
		"store a e:all",
		"load a v:all")
	if !lh.vals[0].guarded || !lh.vals[0].read {
		t.Errorf("a[p]'s value slot: %+v, want read and guarded", lh.vals[0])
	}
}

// A hash container may rehash and move an entry: its slot is checked at
// every use, and ranges never go through it.
func TestFetchTagsHashSlot(t *testing.T) {
	src := `
k := int64
v := int64
m = map(k, v)
h(k x) {
    m[x] = 1;
    m[x] = 2;
    alda_assert(m.get(x, 1), 0, "r");
}
insert after LoadInst call h($1)
`
	a := compileT(t, src, DefaultOptions())
	if a.Layout.Groups[0].Impl != ImplHash {
		t.Fatalf("impl = %s, want hash", a.Layout.Groups[0].Impl)
	}
	got, _ := fetchTags(t, src, DefaultOptions(), "h")
	checkTags(t, "hash", got, "store m e:some", "store m e:some", "get m container")
}

// A ranged builtin whose first granule is an entry slot's key reads and
// writes one granule through the slot once it is filled on every path.
func TestFetchTagsRange(t *testing.T) {
	src := `
address := pointer
t := int64
m = map(address, t)
h(address p, address q, t n) {
    alda_assert(m.get(p, n), 0, "before");
    m.set(p, 1, n);
    m[p] = 2;
    alda_assert(m.get(p, n), 0, "after");
    m.set(p, 3, n);
    alda_assert(m.get(q, n), 0, "other key");
}
insert after LoadInst call h($1, $r, sizeof($r))
`
	got, _ := fetchTags(t, src, DefaultOptions(), "h")
	checkTags(t, "range", got,
		"get m container", "set m container", "store m e:none",
		"get m slot", "set m slot", "get m container")
	noCSE := DefaultOptions()
	noCSE.CSE = false
	got, _ = fetchTags(t, src, noCSE, "h")
	checkTags(t, "no CSE", got,
		"get m container", "set m container", "store m e:-",
		"get m container", "set m container", "get m container")
}
