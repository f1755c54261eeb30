package compiler

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/lang/token"
)

// The Go-text emitter: lowered handlers (lower.go) print as
// straight-line Go over the runtime's concrete containers — no closure
// per node, constant offsets and widths folded, container calls
// devirtualized, CSE slots in locals. It decides nothing the closure
// emitter does not: both walk the same lowered tree and issue the same
// container operations in the same order, so metadata contents,
// container Stats and reports are identical (the staged conformance leg
// proves it). The lowering's fetch tags (tagFetches) assume the order in
// which both emitters evaluate a node's parts; changing it in either
// means changing the pass. The output is the body of one staged-table
// factory; see stage.go.

type gogen struct {
	lay   *Layout
	binds map[string]string // factory-level bindings: name → initializer
	order []string

	b     *strings.Builder
	ntmp  int
	hid   int // handler index, for per-handler buffer names
	h     *lHandler
	usedE map[int]bool

	exit     string // goto target of a return; "" ⇒ return directly
	exitUsed bool
	retVar   bool // returns assign ret
	err      error
}

// goSource prints the analysis's handler table as a Go function
// `func fn(rt *Runtime) []vm.HandlerFn`.
func (a *Analysis) goSource(fn string) (string, error) {
	lhs, err := lowerHandlers(a)
	if err != nil {
		return "", err
	}
	g := &gogen{lay: a.Layout, binds: make(map[string]string)}
	lits := make([]string, len(lhs))
	for i, lh := range lhs {
		if lh == nil {
			lits[i] = "nil"
			continue
		}
		if lits[i], err = g.handler(i, lh); err != nil {
			return "", fmt.Errorf("compiler: staging %s: %w", lh.name, err)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(rt *Runtime) []vm.HandlerFn {\n", fn)
	for _, name := range g.order {
		fmt.Fprintf(&b, "%s := %s\n", name, g.binds[name])
	}
	b.WriteString("return []vm.HandlerFn{\n")
	for i, name := range a.HandlerNames() {
		fmt.Fprintf(&b, "// %s\n%s,\n", name, lits[i])
	}
	b.WriteString("}\n}\n")
	return b.String(), nil
}

func (g *gogen) line(format string, args ...any) {
	fmt.Fprintf(g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gogen) tmp() string {
	g.ntmp++
	return "t" + strconv.Itoa(g.ntmp)
}

// capture runs fn with a fresh statement buffer and returns the
// statements it emitted and its result.
func (g *gogen) capture(fn func() string) (stmts, x string) {
	saved := g.b
	g.b = &strings.Builder{}
	x = fn()
	stmts = g.b.String()
	g.b = saved
	return stmts, x
}

// bind names a factory-level value (container, mutex, table, buffer).
func (g *gogen) bind(name, init string) string {
	if _, ok := g.binds[name]; !ok {
		g.binds[name] = init
		g.order = append(g.order, name)
	}
	return name
}

var implTypes = map[ImplKind]string{
	ImplArray: "ArrayMap", ImplShadow: "ChunkMap", ImplPageTable: "ChunkMap", ImplHash: "HashMap",
}

func (g *gogen) container(group int, impl ImplKind) string {
	return g.bind("c"+strconv.Itoa(group), fmt.Sprintf("rt.groups[%d].c.(*meta.%s)", group, implTypes[impl]))
}

// handler emits one handler literal.
func (g *gogen) handler(hid int, lh *lHandler) (string, error) {
	g.hid, g.h = hid, lh
	body := g.body()
	if g.err != nil {
		return "", g.err
	}

	var b strings.Builder
	b.WriteString("func(m *vm.Machine, tid uint64, args []uint64) uint64 {\n")
	for s, impl := range lh.slots {
		if !g.usedE[s] {
			continue
		}
		fmt.Fprintf(&b, "var e%d []uint64\n", s)
		if impl == ImplHash {
			fmt.Fprintf(&b, "var e%dg uint64\n", s)
		}
	}
	for s, u := range lh.vals {
		if u.read {
			fmt.Fprintf(&b, "var v%d uint64\n", s)
		}
		if u.guarded {
			fmt.Fprintf(&b, "var v%dok bool\n", s)
		}
	}
	if g.retVar {
		b.WriteString("var ret uint64\n")
	}
	b.WriteString(body)
	b.WriteString("}")
	return b.String(), nil
}

// body emits the lock section and the parts, ending in the handler's
// return.
func (g *gogen) body() string {
	g.b, g.ntmp, g.usedE, g.retVar = &strings.Builder{}, 0, make(map[int]bool), false
	for _, gid := range g.h.locks {
		g.line("%s.Lock()", g.bind(fmt.Sprintf("mu%d", gid), fmt.Sprintf("&rt.groups[%d].mu", gid)))
	}
	direct := !g.h.fused && len(g.h.locks) == 0
	for i, body := range g.h.parts {
		g.exit, g.exitUsed = "", false
		if !direct {
			g.exit = "done"
			if g.h.fused {
				g.exit = "part" + strconv.Itoa(i)
			}
		}
		g.line("{")
		g.stmts(body)
		g.line("}")
		if g.exitUsed {
			g.line("%s:", g.exit)
		}
	}
	for i := len(g.h.locks) - 1; i >= 0; i-- {
		g.line("mu%d.Unlock()", g.h.locks[i])
	}
	if direct && terminates(g.h.parts[0]) {
		return g.b.String()
	}
	if g.retVar {
		g.line("return ret")
	} else {
		g.line("return 0")
	}
	return g.b.String()
}

// terminates reports whether a statement list always ends in a return
// (Go's terminating-statement rule, which the emitted code must obey).
func terminates(list []lStmt) bool {
	if len(list) == 0 {
		return false
	}
	switch st := list[len(list)-1].(type) {
	case *lReturn:
		return true
	case *lIf:
		return terminates(st.then) && terminates(st.els)
	}
	return false
}

// ---------------------------------------------------------------------------
// Statements

func (g *gogen) stmts(list []lStmt) {
	for _, s := range list {
		g.stmt(s)
	}
}

func (g *gogen) stmt(s lStmt) {
	switch st := s.(type) {
	case *lIf:
		c := g.cond(st.cond)
		g.line("if %s {", c)
		g.stmts(st.then)
		if len(st.els) > 0 {
			g.line("} else {")
			g.stmts(st.els)
		}
		g.line("}")
	case *lReturn:
		var v string
		if st.val != nil {
			v = g.expr(st.val)
		}
		switch {
		case g.exit == "":
			if v == "" {
				v = "0"
			}
			g.line("return %s", v)
			return
		case v != "":
			g.retVar = true
			g.line("ret = %s", v)
		}
		g.exitUsed = true
		g.line("goto %s", g.exit)
	case *lDoSet:
		x, _ := g.set(st.x)
		g.line("_ = %s", x)
	case *lDo:
		if x := g.expr(st.x); x != "0" {
			g.line("_ = %s", x)
		}
	}
}

// ---------------------------------------------------------------------------
// Values. expr emits the statements computing e and returns a Go
// expression of its value that later statements cannot change: a
// literal, an argument, a temporary, or pure arithmetic over those.
// Anything that reads metadata lands in a temporary first.

func isLit(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func litVal(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}

func lit(v uint64) string { return strconv.FormatUint(v, 10) }

// typed gives an untyped literal operand its uint64 type.
func typed(s string) string {
	if isLit(s) {
		return "uint64(" + s + ")"
	}
	return s
}

// signed is the int64 view of a value (comparisons, division).
func signed(s string) string {
	if isLit(s) {
		return strconv.FormatInt(int64(litVal(s)), 10)
	}
	return "int64(" + s + ")"
}

func (g *gogen) expr(e lExpr) string {
	switch x := e.(type) {
	case *lConst:
		return lit(x.v)
	case *lArg:
		return fmt.Sprintf("args[%d]", x.i)
	case *lLoad:
		return g.load(x)
	case *lStore:
		g.store(x)
		return "0"
	case *lUnary:
		v := g.expr(x.x)
		if isLit(v) {
			if x.op == token.NOT {
				return lit(b2u(litVal(v) == 0))
			}
			return lit(-litVal(v))
		}
		if x.op == token.NOT {
			return "b2u(" + v + " == 0)"
		}
		return "(-" + v + ")"
	case *lBinary:
		return g.binary(x)
	case *lIntern:
		v := g.expr(x.x)
		tbl := g.bind("in"+x.table, fmt.Sprintf("rt.internTable(%q)", x.table))
		t := g.tmp()
		g.line("%s := internValue(%s, %d, %s)", t, tbl, x.dom, v)
		return t
	case *lSetAssign:
		g.setAssign(x)
		return "0"
	case *lSetMethod:
		return g.setMethod(x)
	case *lRange:
		return g.rangeOp(x)
	case *lRemove:
		k := g.expr(x.key)
		g.line("%s.Remove(%s)", g.groupContainer(x.group), k)
		for _, lst := range x.inval {
			g.inval(lst, -1)
		}
		return "0"
	case *lHas:
		k := g.expr(x.key)
		t := g.tmp()
		g.line("%s := b2u(%s.Peek(%s) != nil)", t, g.groupContainer(x.group), k)
		return t
	case *lAssert:
		g.line("rt.stats.Asserts++")
		got := g.expr(x.got)
		want := g.expr(x.want)
		g.line("if %s != %s {", got, want)
		g.line("rt.stats.AssertFailures++")
		g.line("m.Report(%q, %q, %s, %s)", x.handler, x.msg, got, want)
		g.line("}")
		return "0"
	case *lExtern:
		vals := make([]string, len(x.args))
		for i, a := range x.args {
			vals[i] = g.expr(a)
		}
		buf := g.bind(fmt.Sprintf("buf%d_%d", g.hid, x.buf), fmt.Sprintf("make([]uint64, %d)", len(x.args)))
		for i, v := range vals {
			g.line("%s[%d] = %s", buf, i, v)
		}
		fn := g.bind("ext"+strconv.Itoa(x.idx), fmt.Sprintf("rt.externals[%d]", x.idx))
		t := g.tmp()
		g.line("%s := %s(m, %s)", t, fn, buf)
		return t
	}
	g.err = fmt.Errorf("unknown lowered expression %T", e)
	return "0"
}

var comparisons = map[token.Kind]string{
	token.EQL: "==", token.NEQ: "!=", token.LSS: "<", token.LEQ: "<=", token.GTR: ">", token.GEQ: ">=",
}

var arith = map[token.Kind]string{
	token.ADD: "+", token.SUB: "-", token.MUL: "*", token.AND: "&", token.OR: "|", token.XOR: "^",
	token.SHL: "<<", token.SHR: ">>",
}

// cond emits e in a condition and returns a Go boolean expression.
// Comparisons and the logical operators print directly instead of
// through b2u.
func (g *gogen) cond(e lExpr) string {
	switch x := e.(type) {
	case *lBinary:
		if op, ok := comparisons[x.op]; ok {
			a := g.expr(x.x)
			b := g.expr(x.y)
			return signed(a) + " " + op + " " + signed(b)
		}
		if x.op == token.LAND || x.op == token.LOR {
			a := g.cond(x.x)
			stmts, b := g.capture(func() string { return g.cond(x.y) })
			op := " && "
			if x.op == token.LOR {
				op = " || "
			}
			if stmts == "" {
				return "(" + a + op + b + ")"
			}
			// The right operand has effects: run them only when the
			// left does not decide.
			t := g.tmp()
			if x.op == token.LAND {
				g.line("%s := false", t)
				g.line("if %s {", a)
			} else {
				g.line("%s := true", t)
				g.line("if !(%s) {", a)
			}
			g.b.WriteString(stmts)
			g.line("%s = %s", t, b)
			g.line("}")
			return t
		}
	case *lUnary:
		if x.op == token.NOT {
			return "!(" + g.cond(x.x) + ")"
		}
	}
	return g.expr(e) + " != 0"
}

func (g *gogen) binary(x *lBinary) string {
	if _, ok := comparisons[x.op]; ok || x.op == token.LAND || x.op == token.LOR {
		return "b2u(" + g.cond(x) + ")"
	}
	if x.op == token.QUO || x.op == token.REM {
		// The divisor is evaluated first; the dividend only when the
		// divisor is non-zero (ALDA's x / 0 is 0).
		b := g.expr(x.y)
		if isLit(b) && litVal(b) == 0 {
			return "0"
		}
		op := "/"
		if x.op == token.REM {
			op = "%"
		}
		t := g.tmp()
		g.line("var %s uint64", t)
		g.line("if %s != 0 {", signed(b))
		a := g.expr(x.x)
		g.line("%s = uint64(%s %s %s)", t, signed(a), op, signed(b))
		g.line("}")
		return t
	}
	a := g.expr(x.x)
	b := g.expr(x.y)
	if isLit(a) && isLit(b) {
		return lit(foldArith(x.op, litVal(a), litVal(b)))
	}
	if x.op == token.SHL || x.op == token.SHR {
		if isLit(b) {
			b = lit(litVal(b) & 63)
		} else {
			b = "(" + b + " & 63)"
		}
	}
	return "(" + typed(a) + " " + arith[x.op] + " " + b + ")"
}

// foldArith evaluates an arithmetic operator over two literals with
// ALDA's (uint64, wrapping) semantics.
func foldArith(op token.Kind, a, b uint64) uint64 {
	switch op {
	case token.ADD:
		return a + b
	case token.SUB:
		return a - b
	case token.MUL:
		return a * b
	case token.AND:
		return a & b
	case token.OR:
		return a | b
	case token.XOR:
		return a ^ b
	case token.SHL:
		return a << (b & 63)
	}
	return a >> (b & 63)
}

// ---------------------------------------------------------------------------
// Locations

// groupContainer binds a keyed group's container by its layout kind.
func (g *gogen) groupContainer(group int) string {
	return g.container(group, g.lay.Groups[group].Impl)
}

// entry emits an entry fetch and returns the view. A CSE slot lives in
// a local: nil until fetched, and for the hash kinds re-fetched when
// the container's rehash generation moved. The other kinds never move a
// view, so their slot local is the view; its fetch tag says whether the
// fetch needs the nil guard, or no fetch at all.
func (g *gogen) entry(en *lEntry) string {
	if en.impl == ImplGlobal {
		return g.bind(fmt.Sprintf("g%d", en.group), fmt.Sprintf("rt.groups[%d].global", en.group))
	}
	c := g.container(en.group, en.impl)
	fetch := func() string {
		k := g.expr(en.key)
		if en.key2 != nil {
			k2 := g.expr(en.key2)
			return c + ".Entry2(" + k + ", " + k2 + ")"
		}
		return c + ".Entry(" + k + ")"
	}
	if en.slot < 0 {
		t := g.tmp()
		g.line("%s := %s", t, fetch())
		return t
	}
	e := "e" + strconv.Itoa(en.slot)
	g.usedE[en.slot] = true
	switch {
	case en.impl == ImplHash:
		g.line("if %s == nil || %sg != %s.Gen() {", e, e, c)
		g.line("%s = %s", e, fetch())
		g.line("%sg = %s.Gen()", e, c)
		g.line("}")
		t := g.tmp()
		g.line("%s := %s", t, e)
		return t
	case en.fetch == fetchNone:
		g.line("%s = %s", e, fetch())
	case en.fetch == fetchSome:
		g.line("if %s == nil {", e)
		g.line("%s = %s", e, fetch())
		g.line("}")
	}
	return e
}

// offset returns a location's bit offset: a literal, or a temporary
// summing the dynamic inner-dimension terms.
func (g *gogen) offset(l *lLoc) string {
	if l.dims == nil {
		return strconv.FormatUint(uint64(l.mem.BitOff), 10)
	}
	sum := strconv.FormatUint(uint64(l.mem.BitOff), 10)
	for _, d := range l.dims {
		x := g.expr(d.x)
		sum += fmt.Sprintf(" + uint(%s%%%d)*%d", typed(x), d.dom, d.stride)
	}
	t := g.tmp()
	g.line("%s := uint(%s)", t, sum)
	return t
}

// words returns the entry slice of a set member: e[w:w+n].
func (g *gogen) words(e, off string, mem *Member) string {
	if isLit(off) {
		w := litVal(off) / 64
		return fmt.Sprintf("%s[%d:%d]", e, w, w+uint64(mem.SetWords))
	}
	return fmt.Sprintf("%s[%s/64:%s/64+%d]", e, off, off, mem.SetWords)
}

func (g *gogen) wordOff(off string) string {
	if isLit(off) {
		return lit(litVal(off) / 64)
	}
	return "int(" + off + "/64)"
}

func fieldLoad(e, off string, width uint, signed bool) string {
	v := fmt.Sprintf("meta.LoadField(%s, %s, %d)", e, off, width)
	if signed && width < 64 {
		v = fmt.Sprintf("meta.SignExtend(%s, %d)", v, width)
	}
	return v
}

// ---------------------------------------------------------------------------
// Scalar load/store with value CSE

// load reads a field; a value slot keeps the validity flag vNok only
// where some read of it needs the guard.
func (g *gogen) load(x *lLoad) string {
	mem := x.loc.mem
	t := g.tmp()
	if x.vslot >= 0 {
		v := "v" + strconv.Itoa(x.vslot)
		fill := func() {
			e := g.entry(x.loc.entry)
			g.line("%s = %s", v, fieldLoad(e, g.offset(x.loc), mem.Width, mem.Signed))
			if g.h.vals[x.vslot].guarded {
				g.line("%sok = true", v)
			}
		}
		switch x.fetch {
		case fetchNone:
			fill()
		case fetchSome:
			g.line("if !%sok {", v)
			fill()
			g.line("}")
		}
		g.line("%s := %s", t, v)
		return t
	}
	e := g.entry(x.loc.entry)
	off := g.offset(x.loc)
	g.line("%s := %s", t, fieldLoad(e, off, mem.Width, mem.Signed))
	return t
}

// store: the offset and RHS are evaluated before the entry view is
// fetched (either may grow a hash container and detach it).
func (g *gogen) store(x *lStore) {
	mem := x.loc.mem
	off := g.offset(x.loc)
	v := g.expr(x.rhs)
	e := g.entry(x.loc.entry)
	g.line("meta.StoreField(%s, %s, %d, %s)", e, off, mem.Width, v)
	g.inval(x.inval, x.vslot)
	if x.vslot >= 0 && g.h.vals[x.vslot].read {
		g.line("v%d = cachedStore(%s, %d, %t)", x.vslot, v, mem.Width, mem.Signed)
		if g.h.vals[x.vslot].guarded {
			g.line("v%dok = true", x.vslot)
		}
	}
}

// inval clears the validity flags of a member's value slots except
// exclude. Slots without a flag need nothing: the pass tagged their
// next reads to load again.
func (g *gogen) inval(lst *slotList, exclude int) {
	for _, s := range lst.slots {
		if s != exclude && g.h.vals[s].guarded {
			g.line("v%dok = false", s)
		}
	}
}

// ---------------------------------------------------------------------------
// Set and map builtins

func (g *gogen) setMethod(x *lSetMethod) string {
	mem := x.loc.mem
	if mem.Repr == SetBitVec {
		dom := mem.SetDomain
		var e, off, v string
		switch x.name {
		case "add", "remove", "clear":
			// Mutators fetch the entry view last.
			off = g.offset(x.loc)
			if x.elem != nil {
				v = g.expr(x.elem)
			}
			e = g.entry(x.loc.entry)
		default:
			e = g.entry(x.loc.entry)
			off = g.offset(x.loc)
			if x.elem != nil {
				v = g.expr(x.elem)
			}
		}
		ws := g.words(e, off, mem)
		t := g.tmp()
		switch x.name {
		case "add":
			g.line("meta.BitAdd(%s, %s%%%d)", ws, typed(v), dom)
			return "0"
		case "remove":
			g.line("meta.BitRemove(%s, %s%%%d)", ws, typed(v), dom)
			return "0"
		case "clear":
			g.line("meta.BitClear(%s)", ws)
			return "0"
		case "find":
			g.line("%s := b2u(meta.BitFind(%s, %s%%%d))", t, ws, typed(v), dom)
		case "size":
			g.line("%s := uint64(meta.BitCount(%s))", t, ws)
		default: // empty
			g.line("%s := b2u(meta.BitEmpty(%s))", t, ws)
		}
		return t
	}
	// getTree writes the tree handle into the entry, so the entry view
	// is fetched after the offset; the element is evaluated last.
	off := g.offset(x.loc)
	e := g.entry(x.loc.entry)
	tree := g.tmp()
	g.line("%s := rt.getTree(%s, %s, %t)", tree, e, g.wordOff(off), mem.SetUniv)
	var v string
	if x.elem != nil {
		v = g.expr(x.elem)
	}
	t := g.tmp()
	switch x.name {
	case "add":
		g.line("%s.Add(%s)", tree, v)
		return "0"
	case "remove":
		g.line("%s.Remove(%s)", tree, v)
		return "0"
	case "clear":
		g.line("%s.Clear()", tree)
		return "0"
	case "find":
		g.line("%s := b2u(%s.Find(%s))", t, tree, v)
	case "size":
		g.line("%s := uint64(%s.Size())", t, tree)
	default: // empty
		g.line("%s := b2u(%s.Empty())", t, tree)
	}
	return t
}

// rangeOp: a range with an entry slot reads or writes a one granule
// range through the slot, and calls the container otherwise.
func (g *gogen) rangeOp(x *lRange) string {
	c := g.groupContainer(x.group)
	k := g.expr(x.key)
	n := g.expr(x.n)
	start, cnt := g.tmp(), g.tmp()
	g.line("%s, %s := granules(%s, %s, %d)", start, cnt, k, n, x.shift)
	e := "e" + strconv.Itoa(x.slot)
	if x.store {
		g.line("if %s > 0 {", cnt)
		v := g.expr(x.val)
		fill := fmt.Sprintf("%s.Fill(%s, %s, %d, %d, %s)", c, start, cnt, x.off, x.width, v)
		if x.slot >= 0 {
			g.line("if %s == 1 {", cnt)
			g.line("meta.StoreField(%s, %d, %d, %s)", e, x.off, x.width, v)
			g.line("} else {")
			g.line("%s", fill)
			g.line("}")
		} else {
			g.line("%s", fill)
		}
		g.inval(x.inval, -1)
		g.line("}")
		return "0"
	}
	get := fmt.Sprintf("%s.RangeOr(%s, %s, %d, %d)", c, start, cnt, x.off, x.width)
	if x.signed && x.width < 64 {
		get = fmt.Sprintf("meta.SignExtend(%s, %d)", get, x.width)
	}
	t := g.tmp()
	g.line("var %s uint64", t)
	if x.slot >= 0 {
		g.line("if %s == 1 {", cnt)
		g.line("%s = %s", t, fieldLoad(e, lit(uint64(x.off)), x.width, x.signed))
		g.line("} else if %s != 0 {", cnt)
	} else {
		g.line("if %s != 0 {", cnt)
	}
	g.line("%s = %s", t, get)
	g.line("}")
	return t
}

// ---------------------------------------------------------------------------
// Set expressions

func (g *gogen) setAssign(x *lSetAssign) {
	mem := x.loc.mem
	if x.op != token.ASSIGN {
		// In place: the operand first, then the destination view.
		r, _ := g.set(x.rhs)
		e := g.entry(x.loc.entry)
		dst := g.words(e, g.offset(x.loc), mem)
		fn := "meta.BitAnd"
		if x.op == token.OR {
			fn = "meta.BitOr"
		}
		g.line("%s(%s, %s, %s)", fn, dst, dst, r)
		return
	}
	off := g.offset(x.loc)
	r, owned := g.set(x.rhs)
	if mem.Repr == SetBitVec {
		e := g.entry(x.loc.entry)
		g.line("meta.BitCopy(%s, %s)", g.words(e, off, mem), r)
		return
	}
	if !owned {
		t := g.tmp()
		g.line("%s := %s.Clone()", t, r)
		r = t
	}
	e := g.entry(x.loc.entry)
	g.line("rt.setTree(%s, %s, %s)", e, g.wordOff(off), r)
}

// set emits a set expression: a bit-vector slice or a *meta.TreeSet,
// and whether the consumer owns it.
func (g *gogen) set(s lSet) (string, bool) {
	if v, ok := s.(*lView); ok {
		mem := v.loc.mem
		if mem.Repr == SetBitVec {
			e := g.entry(v.loc.entry)
			return g.words(e, g.offset(v.loc), mem), false
		}
		off := g.offset(v.loc)
		e := g.entry(v.loc.entry)
		t := g.tmp()
		g.line("%s := rt.getTree(%s, %s, %t)", t, e, g.wordOff(off), mem.SetUniv)
		return t, false
	}
	x := s.(*lSetBin)
	a, _ := g.set(x.x)
	b, _ := g.set(x.y)
	if x.bits {
		scratch := g.bind(fmt.Sprintf("scratch%d_%d", g.hid, x.scratch), fmt.Sprintf("make([]uint64, %d)", x.words))
		fn := "meta.BitAnd"
		if x.op == token.OR {
			fn = "meta.BitOr"
		}
		g.line("%s(%s, %s, %s)", fn, scratch, a, b)
		return scratch, true
	}
	fn := "meta.Intersect"
	if x.op == token.OR {
		fn = "meta.Union"
	}
	t := g.tmp()
	g.line("%s := %s(%s, %s)", t, fn, a, b)
	return t, true
}
