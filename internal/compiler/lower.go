package compiler

import (
	"fmt"

	"repro/internal/lang/ast"
	"repro/internal/lang/sema"
	"repro/internal/lang/token"
	"repro/internal/meta"
)

// Handler lowering. One walk over every handler body (hcompiler) makes
// each code-generation decision and records it in a small tree of
// lowered nodes; two emitters print that tree without deciding
// anything: codegen.go builds closure trees at NewRuntime, gogen.go
// prints Go source for the staged handler table. The decisions the
// lowering owns:
//
//   - entry CSE: which (group, key-class) pairs share an entry slot per
//     invocation, and which slots revalidate against a hash container's
//     rehash generation;
//   - value CSE: which pure scalar reads share a value slot, and which
//     slots a store writes through or invalidates (two key classes may
//     alias one address at runtime);
//   - the in-place lockset peephole for `m[k] = m[k] & s`;
//   - view-fetch order: an entry view is fetched after anything that
//     may grow a hash container and detach it;
//   - `return` scoping in fused hooks (a return ends its own body);
//   - the sync groups a handler locks, in ascending-id lock order;
//   - must-fetched tags (tagFetches): whether each entry-slot use and
//     value-slot read finds its slot filled on every path, on none or
//     on some, so only the last keeps a run-time guard;
//   - which ranged builtins read or write a one-granule range through
//     their group's entry slot instead of the container.

// lHandler is one lowered entry of the handler table.
type lHandler struct {
	name  string
	parts [][]lStmt // bodies: one per fused sub-handler; unfused handlers have one
	fused bool      // a return ends its part only
	locks []int     // sync group ids, ascending: the canonical lock order

	slots   []ImplKind // entry CSE slots: container kind of each (hash kinds check Gen)
	vals    []vslotUse // value CSE slots
	scratch []int      // words of each bit-vector set-operation scratch buffer
	extBufs []int      // argument count of each external call site

	// sites counts the nodes that read or write metadata (entry uses,
	// value-slot reads, ranged builtins, has and remove); saved, the
	// keyed ones among them that issue no container operation on any
	// path.
	sites, saved int
}

// vslotUse is what tagFetches learned about one value slot.
type vslotUse struct {
	read    bool // some load reads it, so stores write through
	guarded bool // some read finds it filled on some paths only: it keeps a validity flag
}

// fetchTag says whether a CSE slot is filled where a lowered node uses
// it: on some paths reaching the node, on none, or on every one. Only
// fetchSome needs a run-time guard; it is the zero value, so a node the
// pass never reaches keeps the guard.
type fetchTag uint8

const (
	fetchSome fetchTag = iota // check the slot, fetch if empty
	fetchNone                 // fetch without checking
	fetchAll                  // use the slot as it is
)

// Statements.
type (
	lStmt interface{}
	// lIf runs then when cond is non-zero, else otherwise.
	lIf struct {
		cond      lExpr
		then, els []lStmt
	}
	// lReturn ends the body; val (nil for a bare return) is the
	// handler's result.
	lReturn struct{ val lExpr }
	// lDo evaluates a scalar expression for its effect.
	lDo struct{ x lExpr }
	// lDoSet evaluates a set expression for its effect.
	lDoSet struct{ x lSet }
)

// Scalar expressions. Every node yields a uint64; effect nodes (stores,
// set mutators, asserts) yield 0.
type (
	lExpr  interface{}
	lConst struct{ v uint64 }
	lArg   struct{ i int } // hook argument position
	// lLoad reads a scalar field; vslot ≥ 0 names its value CSE slot,
	// and fetch whether that slot is filled.
	lLoad struct {
		loc   *lLoc
		vslot int
		fetch fetchTag
	}
	lUnary struct {
		op token.Kind // NOT or SUB
		x  lExpr
	}
	// lBinary covers arithmetic, comparisons (signed) and the
	// short-circuit LAND/LOR.
	lBinary struct {
		op   token.Kind
		x, y lExpr
	}
	// lIntern maps a lock id to its dense id in the named interning
	// table (first come, wrapping at dom).
	lIntern struct {
		table string
		dom   int64
		x     lExpr
	}
	// lStore writes a scalar field: rhs is evaluated before the entry
	// view is fetched. vslot ≥ 0 is written through; every other slot
	// of the member in inval is dropped.
	lStore struct {
		loc   *lLoc
		rhs   lExpr
		vslot int
		inval *slotList
	}
	// lSetAssign stores a set into a member: op AND/OR is the in-place
	// peephole (constant offset, same entry), ASSIGN a copy (bit-vector)
	// or a handle swap (tree).
	lSetAssign struct {
		op  token.Kind
		loc *lLoc
		rhs lSet
	}
	// lSetMethod is add/remove/find/size/empty/clear on a member set.
	lSetMethod struct {
		name string
		loc  *lLoc
		elem lExpr // add/remove/find
	}
	// lRange is map.set(k, v, n) (store) or map.get(k, n). class is
	// the entry class of its first granule ("" if it has none); slot ≥ 0
	// is that class's entry slot where it is filled on every path, and a
	// one-granule range then reads or writes the slot's entry.
	lRange struct {
		store       bool
		group       int
		key, n, val lExpr
		shift       uint
		off, width  uint
		signed      bool
		inval       *slotList
		class       string
		slot        int
	}
	// lRemove resets a key's entry and drops the group's value slots.
	lRemove struct {
		group int
		key   lExpr
		inval []*slotList
	}
	// lHas reports whether a key's entry is materialized.
	lHas struct {
		group int
		key   lExpr
	}
	lAssert struct {
		handler, msg string
		got, want    lExpr
	}
	// lExtern calls an external function through its per-site argument
	// buffer.
	lExtern struct {
		idx  int // index into Info.Externals
		buf  int // index into lHandler.extBufs
		args []lExpr
	}
)

// Set expressions.
type (
	lSet interface{}
	// lView is a member set in place (not owned by the consumer).
	lView struct{ loc *lLoc }
	// lSetBin is a fresh intersection or union. Bit-vector results land
	// in the site's scratch buffer.
	lSetBin struct {
		op      token.Kind
		x, y    lSet
		bits    bool
		words   int
		scratch int
	}
)

// lLoc is a metadata location: how to fetch the entry and where the
// field sits in it.
type lLoc struct {
	mem   *Member
	entry *lEntry
	dims  []lDim // dynamic inner-dimension offset terms; nil ⇒ mem.BitOff
	class string // entry key class; "" if impure (no value caching)
}

// lDim is one bounded inner key dimension: off += (x % dom) * stride.
type lDim struct {
	x      lExpr
	dom    uint64
	stride uint
}

// lEntry fetches a group entry.
type lEntry struct {
	group     int
	impl      ImplKind
	key, key2 lExpr    // keys after interning and address shifting
	slot      int      // entry CSE slot, -1 none
	fetch     fetchTag // whether the slot is filled here (hash slots: always fetchSome)
}

// slotList is a member's value slots; stores hold the pointer, so slots
// registered by later statements are invalidated too.
type slotList struct{ slots []int }

// hcompiler is the lowering walk's state for one handler-table entry.
type hcompiler struct {
	a        *Analysis
	h        *sema.Handler
	out      *lHandler
	paramIdx map[string]int
	// paramClass names each parameter by its *argument position* in the
	// hook's arg list ("p#3"), so fused handlers whose different bodies
	// receive the same argument under different parameter names share
	// CSE slots.
	paramClass map[string]string

	useCSE bool
	slots  map[string]int // entry cache slots
	vslots map[string]int // value cache slots
	// memberVSlots lists the value slots belonging to each metadata
	// member, for aliasing invalidation on writes.
	memberVSlots map[string]*slotList
	uniq         int

	syncGroups map[int]bool
}

// lowerHandlers lowers the whole handler table: the analysis's handlers
// in declaration order, then the fused hooks. A handler no rule
// dispatches (it has no insertion, or every rule naming it was fused)
// lowers to nil, so table indices stay HandlerIDs.
func lowerHandlers(a *Analysis) ([]*lHandler, error) {
	dispatched := make(map[int]bool, len(a.Rules))
	for _, r := range a.Rules {
		dispatched[r.HandlerID] = true
	}
	out := make([]*lHandler, 0, len(a.Info.HandlerOrder)+len(a.Fused))
	for i, h := range a.Info.HandlerOrder {
		if !dispatched[i] {
			out = append(out, nil)
			continue
		}
		hc := newHCompiler(a, h.Name)
		hc.bindParams(h, nil)
		body, err := hc.stmts(h.Decl.Body)
		if err != nil {
			return nil, fmt.Errorf("compiler: handler %s: %w", h.Name, err)
		}
		hc.out.parts = [][]lStmt{body}
		out = append(out, hc.finish())
	}
	for i := range a.Fused {
		spec := &a.Fused[i]
		hc := newHCompiler(a, spec.Name)
		hc.out.fused = true
		for _, part := range spec.Parts {
			h := a.Info.Handlers[part.HandlerName]
			if h == nil {
				return nil, fmt.Errorf("compiler: %s: fused part %s not found", spec.Name, part.HandlerName)
			}
			hc.bindParams(h, part.ArgIdx)
			body, err := hc.stmts(h.Decl.Body)
			if err != nil {
				return nil, fmt.Errorf("compiler: %s: part %s: %w", spec.Name, part.HandlerName, err)
			}
			hc.out.parts = append(hc.out.parts, body)
		}
		out = append(out, hc.finish())
	}
	return out, nil
}

func newHCompiler(a *Analysis, name string) *hcompiler {
	return &hcompiler{
		a:            a,
		out:          &lHandler{name: name},
		paramIdx:     make(map[string]int),
		paramClass:   make(map[string]string),
		useCSE:       a.Opts.CSE,
		slots:        make(map[string]int),
		vslots:       make(map[string]int),
		memberVSlots: make(map[string]*slotList),
		syncGroups:   make(map[int]bool),
	}
}

// finish records the lock set in ascending group id (a canonical lock
// order) and the slot count.
func (hc *hcompiler) finish() *lHandler {
	for gid := range hc.syncGroups {
		hc.out.locks = append(hc.out.locks, gid)
	}
	locks := hc.out.locks
	for i := 0; i < len(locks); i++ { // insertion sort (tiny n)
		for j := i; j > 0 && locks[j-1] > locks[j]; j-- {
			locks[j-1], locks[j] = locks[j], locks[j-1]
		}
	}
	hc.out.vals = make([]vslotUse, len(hc.vslots))
	tagFetches(hc.out, hc.slots)
	return hc.out
}

// bindParams points the compiler's parameter tables at one handler's
// parameters, mapped onto absolute hook-argument positions.
func (hc *hcompiler) bindParams(h *sema.Handler, argIdx []int) {
	hc.h = h
	hc.paramIdx = make(map[string]int, len(h.Decl.Params))
	hc.paramClass = make(map[string]string, len(h.Decl.Params))
	for i, p := range h.Decl.Params {
		pos := i
		if argIdx != nil {
			pos = argIdx[i]
		}
		hc.paramIdx[p.Name] = pos
		hc.paramClass[p.Name] = fmt.Sprintf("p#%d", pos)
	}
}

// ---------------------------------------------------------------------------
// Statements

func (hc *hcompiler) stmts(list []ast.Stmt) ([]lStmt, error) {
	out := make([]lStmt, 0, len(list))
	for _, s := range list {
		ls, err := hc.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ls)
	}
	return out, nil
}

func (hc *hcompiler) stmt(s ast.Stmt) (lStmt, error) {
	switch st := s.(type) {
	case *ast.IfStmt:
		cond, err := hc.scalar(st.Cond)
		if err != nil {
			return nil, err
		}
		thenB, err := hc.stmts(st.Then)
		if err != nil {
			return nil, err
		}
		elseB, err := hc.stmts(st.Else)
		if err != nil {
			return nil, err
		}
		return &lIf{cond: cond, then: thenB, els: elseB}, nil

	case *ast.ReturnStmt:
		if st.Value == nil {
			return &lReturn{}, nil
		}
		val, err := hc.scalar(st.Value)
		if err != nil {
			return nil, err
		}
		return &lReturn{val: val}, nil

	case *ast.ExprStmt:
		return hc.effect(st.X)
	}
	return nil, fmt.Errorf("unsupported statement %T", s)
}

// effect lowers an expression evaluated for side effect.
func (hc *hcompiler) effect(e ast.Expr) (lStmt, error) {
	if as, ok := e.(*ast.AssignExpr); ok {
		x, err := hc.assign(as)
		if err != nil {
			return nil, err
		}
		return &lDo{x: x}, nil
	}
	if hc.a.Info.ExprTypes[e].Kind == sema.KSet {
		x, err := hc.set(e)
		if err != nil {
			return nil, err
		}
		return &lDoSet{x: x}, nil
	}
	x, err := hc.scalar(e)
	if err != nil {
		return nil, err
	}
	return &lDo{x: x}, nil
}

func (hc *hcompiler) assign(as *ast.AssignExpr) (lExpr, error) {
	lt := hc.a.Info.ExprTypes[as.LHS]
	if lt.Meta == nil {
		return nil, fmt.Errorf("assignment target is not metadata")
	}
	l, err := hc.location(as.LHS)
	if err != nil {
		return nil, err
	}

	if lt.Kind == sema.KScalar {
		rhs, err := hc.scalar(as.RHS)
		if err != nil {
			return nil, err
		}
		return hc.storeScalar(l, rhs), nil
	}

	// Set assignment. Peephole: `m[k] = m[k] OP other` updates the
	// bit-vector in place — the dominant lockset-refinement pattern
	// (Eraser's `addr2Lock[addr] = addr2Lock[addr] & thread2Lock[t]`) —
	// skipping the scratch buffer and copy-back.
	if bin, ok := as.RHS.(*ast.BinaryExpr); ok &&
		(bin.Op == token.AND || bin.Op == token.OR) &&
		l.mem.Repr == SetBitVec && l.class != "" && l.dims == nil {
		if xl, err2 := hc.setOperandLoc(bin.X); err2 == nil &&
			xl.mem == l.mem && xl.class == l.class && xl.dims == nil {
			other, err := hc.set(bin.Y)
			if err != nil {
				return nil, err
			}
			return &lSetAssign{op: bin.Op, loc: l, rhs: other}, nil
		}
	}

	rhs, err := hc.set(as.RHS)
	if err != nil {
		return nil, err
	}
	return &lSetAssign{op: token.ASSIGN, loc: l, rhs: rhs}, nil
}

// setOperandLoc resolves a set expression to its storage location if it
// is a direct member view (Ident/IndexExpr); used by the in-place
// peephole to recognize self-updates.
func (hc *hcompiler) setOperandLoc(e ast.Expr) (*lLoc, error) {
	switch e.(type) {
	case *ast.Ident, *ast.IndexExpr:
		return hc.location(e)
	}
	return nil, fmt.Errorf("not a member view")
}

// ---------------------------------------------------------------------------
// Locations

// location lowers a metadata access (Ident for globals, IndexExpr
// chains for maps).
func (hc *hcompiler) location(e ast.Expr) (*lLoc, error) {
	vt := hc.a.Info.ExprTypes[e]
	if vt.Meta == nil {
		return nil, fmt.Errorf("expression is not a metadata access")
	}
	return hc.memberLocation(hc.a.Layout.ByMeta[vt.Meta.Name], indexKeys(e))
}

// indexKeys returns the index expressions of an IndexExpr chain,
// outermost key first.
func indexKeys(e ast.Expr) []ast.Expr {
	var keys []ast.Expr
	for {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return keys
		}
		keys = append([]ast.Expr{ix.Index}, keys...)
		e = ix.X
	}
}

// memberLocation builds a location for a member given its key
// expressions.
func (hc *hcompiler) memberLocation(mem *Member, keys []ast.Expr) (*lLoc, error) {
	g := hc.a.Layout.Groups[mem.GroupID]
	if g.Sync {
		hc.syncGroups[g.ID] = true
	}
	en := &lEntry{group: g.ID, impl: g.Impl, slot: -1}

	if g.Impl == ImplGlobal {
		return &lLoc{mem: mem, entry: en, class: fmt.Sprintf("g%d", g.ID)}, nil
	}

	if len(keys) == 0 {
		return nil, fmt.Errorf("map %s accessed without keys", mem.Meta.Name)
	}

	key, err := hc.keyValue(keys[0], g.KeyType, g.AddrShift)
	if err != nil {
		return nil, err
	}
	en.key = key

	l := &lLoc{mem: mem, entry: en}
	for i, kt := range mem.Meta.Keys[1:] {
		if i+1 >= len(keys) {
			return nil, fmt.Errorf("map %s: missing key %d", mem.Meta.Name, i+2)
		}
		ev, err := hc.keyValue(keys[i+1], kt, 0)
		if err != nil {
			return nil, err
		}
		if kt.Domain > 0 {
			l.dims = append(l.dims, lDim{x: ev, dom: uint64(mem.InnerDomains[len(l.dims)]), stride: mem.InnerStride[len(l.dims)]})
		} else {
			en.key2 = ev
		}
	}

	if hc.useCSE {
		l.class = hc.entryClass(g, keys)
		if l.class != "" {
			slot, ok := hc.slots[l.class]
			if !ok {
				slot = len(hc.slots)
				hc.slots[l.class] = slot
				hc.out.slots = append(hc.out.slots, g.Impl)
			}
			en.slot = slot
		}
	}
	if l.dims != nil {
		// Dynamic offsets disable value caching (the offset is part of
		// the location identity).
		l.class = ""
	}
	return l, nil
}

// classify canonicalizes a key expression: two occurrences with the
// same class evaluate to the same value within one invocation (handler
// bodies cannot mutate parameters). Parameters are named by
// hook-argument position, so fused handlers share classes across
// bodies. An impure expression (a metadata read, or a call other than
// ptr_offset of pure operands) gets a unique "!" id, so it never CSEs.
func (hc *hcompiler) classify(e ast.Expr) string {
	unique := func() string {
		hc.uniq++
		return fmt.Sprintf("!%d", hc.uniq)
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := hc.a.Info.Consts[x.Name]; ok {
			return fmt.Sprintf("c%d", v)
		}
		if cls, ok := hc.paramClass[x.Name]; ok {
			return cls
		}
		return unique() // metadata reads are treated as impure keys
	case *ast.IntLit:
		return fmt.Sprintf("c%d", x.Value)
	case *ast.UnaryExpr:
		inner := hc.classify(x.X)
		if inner[0] == '!' {
			return inner
		}
		return x.Op.String() + inner
	case *ast.BinaryExpr:
		l, r := hc.classify(x.X), hc.classify(x.Y)
		if l[0] == '!' || r[0] == '!' {
			return unique()
		}
		return "(" + l + x.Op.String() + r + ")"
	case *ast.CallExpr:
		if x.Name == sema.BuiltinPtrOffset && len(x.Args) == 2 {
			l, r := hc.classify(x.Args[0]), hc.classify(x.Args[1])
			if l[0] != '!' && r[0] != '!' {
				return "(" + l + "+" + r + ")"
			}
		}
		return unique()
	}
	return unique()
}

// entryClass builds the entry CSE cache key. Returns "" when any
// entry-selecting key is impure.
func (hc *hcompiler) entryClass(g *Group, keys []ast.Expr) string {
	out := fmt.Sprintf("g%d", g.ID)
	c0 := hc.classify(keys[0])
	if c0[0] == '!' {
		return ""
	}
	out += "|" + c0
	if g.Key2Type != nil {
		mem := g.Members[0]
		for i, kt := range mem.Meta.Keys[1:] {
			if kt.Domain <= 0 && i+1 < len(keys) {
				ck := hc.classify(keys[i+1])
				if ck[0] == '!' {
					return ""
				}
				out += "|" + ck
			}
		}
	}
	return out
}

// keyValue lowers a key expression with lock-id interning and address
// shifting applied per the key's declared type.
func (hc *hcompiler) keyValue(e ast.Expr, kt *sema.Type, addrShift uint) (lExpr, error) {
	ev, err := hc.elemValue(e, kt)
	if err != nil {
		return nil, err
	}
	if addrShift > 0 {
		ev = &lBinary{op: token.SHR, x: ev, y: &lConst{v: uint64(addrShift)}}
	}
	return ev, nil
}

// elemValue lowers a set-element (or key) expression with interning.
func (hc *hcompiler) elemValue(e ast.Expr, et *sema.Type) (lExpr, error) {
	ev, err := hc.scalar(e)
	if err != nil {
		return nil, err
	}
	if interned(et) {
		ev = &lIntern{table: et.Name, dom: et.Domain, x: ev}
	}
	return ev, nil
}

// interned reports whether values of t go through an interning table:
// lock identifiers with a bounded domain (programs use addresses as
// lock ids; the bounded metadata domain needs dense indices).
func interned(t *sema.Type) bool {
	return t != nil && t.Domain > 0 && t.Prim == ast.LockID
}

// ---------------------------------------------------------------------------
// Scalar load/store with value CSE

func (hc *hcompiler) slotListFor(member string) *slotList {
	lst := hc.memberVSlots[member]
	if lst == nil {
		lst = &slotList{}
		hc.memberVSlots[member] = lst
	}
	return lst
}

// valueSlot assigns (or finds) the value cache slot for a pure scalar
// location, or -1.
func (hc *hcompiler) valueSlot(l *lLoc) int {
	if !hc.useCSE || l.class == "" || l.dims != nil {
		return -1
	}
	key := l.class + "#" + l.mem.Meta.Name
	slot, ok := hc.vslots[key]
	if !ok {
		slot = len(hc.vslots)
		hc.vslots[key] = slot
		lst := hc.slotListFor(l.mem.Meta.Name)
		lst.slots = append(lst.slots, slot)
	}
	return slot
}

func (hc *hcompiler) loadScalar(l *lLoc) lExpr {
	return &lLoad{loc: l, vslot: hc.valueSlot(l)}
}

func (hc *hcompiler) storeScalar(l *lLoc, rhs lExpr) lExpr {
	return &lStore{loc: l, rhs: rhs, vslot: hc.valueSlot(l), inval: hc.slotListFor(l.mem.Meta.Name)}
}

// ---------------------------------------------------------------------------
// Scalar expressions

func (hc *hcompiler) scalar(e ast.Expr) (lExpr, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return &lConst{v: uint64(x.Value)}, nil

	case *ast.StringLit:
		return &lConst{}, nil

	case *ast.Ident:
		if i, ok := hc.paramIdx[x.Name]; ok {
			return &lArg{i: i}, nil
		}
		if v, ok := hc.a.Info.Consts[x.Name]; ok {
			return &lConst{v: uint64(v)}, nil
		}
		vt := hc.a.Info.ExprTypes[e]
		if vt.Meta != nil && vt.Kind == sema.KScalar {
			l, err := hc.location(e)
			if err != nil {
				return nil, err
			}
			return hc.loadScalar(l), nil
		}
		return nil, fmt.Errorf("identifier %s is not scalar-valued", x.Name)

	case *ast.IndexExpr:
		if hc.a.Info.ExprTypes[e].Kind != sema.KScalar {
			return nil, fmt.Errorf("map access is not scalar")
		}
		l, err := hc.location(e)
		if err != nil {
			return nil, err
		}
		return hc.loadScalar(l), nil

	case *ast.UnaryExpr:
		inner, err := hc.scalar(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op != token.NOT && x.Op != token.SUB {
			return nil, fmt.Errorf("unsupported unary operator %s", x.Op)
		}
		return &lUnary{op: x.Op, x: inner}, nil

	case *ast.BinaryExpr:
		a, err := hc.scalar(x.X)
		if err != nil {
			return nil, err
		}
		b, err := hc.scalar(x.Y)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case token.LAND, token.LOR, token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.XOR, token.SHL, token.SHR,
			token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return &lBinary{op: x.Op, x: a, y: b}, nil
		}
		return nil, fmt.Errorf("unsupported binary operator %s", x.Op)

	case *ast.MethodExpr:
		recvT := hc.a.Info.ExprTypes[x.Recv]
		switch recvT.Kind {
		case sema.KSet:
			return hc.setScalarMethod(x, recvT)
		case sema.KMapRef:
			return hc.mapMethod(x, recvT)
		}
		return nil, fmt.Errorf("method %s on non-collection", x.Name)

	case *ast.CallExpr:
		return hc.call(x)
	}
	return nil, fmt.Errorf("unsupported scalar expression %T", e)
}

// ---------------------------------------------------------------------------
// Methods (set and map builtins)

func (hc *hcompiler) setScalarMethod(x *ast.MethodExpr, recvT sema.VType) (lExpr, error) {
	mem := hc.a.Layout.ByMeta[recvT.Meta.Name]
	l, err := hc.location(x.Recv)
	if err != nil {
		return nil, err
	}
	switch x.Name {
	case "add", "remove", "find":
		ev, err := hc.elemValue(x.Args[0], mem.Meta.Elem)
		if err != nil {
			return nil, err
		}
		return &lSetMethod{name: x.Name, loc: l, elem: ev}, nil
	case "size", "empty", "clear":
		return &lSetMethod{name: x.Name, loc: l}, nil
	}
	return nil, fmt.Errorf("unknown set method %s", x.Name)
}

// mapMethod lowers map.set/get/remove/has including the range forms.
func (hc *hcompiler) mapMethod(x *ast.MethodExpr, recvT sema.VType) (lExpr, error) {
	mo := recvT.Meta
	mem := hc.a.Layout.ByMeta[mo.Name]
	g := hc.a.Layout.Groups[mem.GroupID]
	if g.Sync {
		hc.syncGroups[g.ID] = true
	}
	allKeys := append(indexKeys(x.Recv), x.Args[0])

	isRange := (x.Name == "set" && len(x.Args) == 3) || (x.Name == "get" && len(x.Args) == 2)
	if isRange { // buildLayout rejected ranges on multi-key and interned maps
		if mem.IsSet == 1 {
			return nil, fmt.Errorf("range %s on set-valued map %s", x.Name, mo.Name)
		}
		r := &lRange{
			store: x.Name == "set", group: g.ID, shift: g.AddrShift,
			off: mem.BitOff, width: mem.Width, signed: mem.Signed, slot: -1,
		}
		// The range's first granule is the entry a fetch of the same key
		// class selects.
		if hc.useCSE {
			r.class = hc.entryClass(g, allKeys[:1])
		}
		var err error
		if r.key, err = hc.scalar(allKeys[0]); err != nil {
			return nil, err
		}
		nArg := x.Args[1]
		if r.store {
			nArg = x.Args[2]
		}
		if r.n, err = hc.scalar(nArg); err != nil {
			return nil, err
		}
		if r.store {
			if r.val, err = hc.scalar(x.Args[1]); err != nil {
				return nil, err
			}
			r.inval = hc.slotListFor(mo.Name)
		}
		return r, nil
	}

	switch x.Name {
	case "set":
		l, err := hc.memberLocation(mem, allKeys)
		if err != nil {
			return nil, err
		}
		v, err := hc.scalar(x.Args[1])
		if err != nil {
			return nil, err
		}
		return hc.storeScalar(l, v), nil
	case "get":
		l, err := hc.memberLocation(mem, allKeys)
		if err != nil {
			return nil, err
		}
		return hc.loadScalar(l), nil
	case "remove", "has":
		if g.Impl == ImplGlobal || g.Key2Type != nil {
			return nil, fmt.Errorf("%s unsupported on %s", x.Name, mo.Name)
		}
		key, err := hc.keyValue(allKeys[0], g.KeyType, g.AddrShift)
		if err != nil {
			return nil, err
		}
		if x.Name == "has" {
			return &lHas{group: g.ID, key: key}, nil
		}
		// Removing resets the whole entry: invalidate every member of
		// the group.
		r := &lRemove{group: g.ID, key: key}
		for _, m := range g.Members {
			r.inval = append(r.inval, hc.slotListFor(m.Meta.Name))
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown map method %s", x.Name)
}

// ---------------------------------------------------------------------------
// Builtin and external calls

func (hc *hcompiler) call(x *ast.CallExpr) (lExpr, error) {
	switch x.Name {
	case sema.BuiltinAssert:
		got, err := hc.scalar(x.Args[0])
		if err != nil {
			return nil, err
		}
		want, err := hc.scalar(x.Args[1])
		if err != nil {
			return nil, err
		}
		msg := "assertion failed"
		if len(x.Args) == 3 {
			if s, ok := x.Args[2].(*ast.StringLit); ok {
				msg = s.Value
			}
		}
		return &lAssert{handler: hc.h.Name, msg: msg, got: got, want: want}, nil

	case sema.BuiltinPtrOffset:
		p, err := hc.scalar(x.Args[0])
		if err != nil {
			return nil, err
		}
		n, err := hc.scalar(x.Args[1])
		if err != nil {
			return nil, err
		}
		return &lBinary{op: token.ADD, x: p, y: n}, nil
	}

	idx := -1
	for i, n := range hc.a.Info.Externals {
		if n == x.Name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("unknown function %s", x.Name)
	}
	ext := &lExtern{idx: idx, buf: len(hc.out.extBufs)}
	hc.out.extBufs = append(hc.out.extBufs, len(x.Args))
	for _, a := range x.Args {
		fn, err := hc.scalar(a)
		if err != nil {
			return nil, err
		}
		ext.args = append(ext.args, fn)
	}
	return ext, nil
}

// ---------------------------------------------------------------------------
// Set expressions

func (hc *hcompiler) set(e ast.Expr) (lSet, error) {
	vt := hc.a.Info.ExprTypes[e]
	if vt.Kind != sema.KSet {
		return nil, fmt.Errorf("expression is not a set")
	}

	switch x := e.(type) {
	case *ast.Ident, *ast.IndexExpr:
		l, err := hc.location(e)
		if err != nil {
			return nil, err
		}
		return &lView{loc: l}, nil

	case *ast.BinaryExpr:
		a, err := hc.set(x.X)
		if err != nil {
			return nil, err
		}
		b, err := hc.set(x.Y)
		if err != nil {
			return nil, err
		}
		elem := vt.Elem
		if elem == nil {
			return nil, fmt.Errorf("set operation with unknown element type")
		}
		bin := &lSetBin{op: x.Op, x: a, y: b, scratch: -1}
		if hc.reprForElem(elem) == SetBitVec {
			bin.bits = true
			bin.words = meta.BitWords(elem.Domain)
			bin.scratch = len(hc.out.scratch)
			hc.out.scratch = append(hc.out.scratch, bin.words)
		}
		return bin, nil
	}
	return nil, fmt.Errorf("unsupported set expression %T", e)
}

// reprForElem mirrors layout's set-representation decision for rvalue
// temporaries.
func (hc *hcompiler) reprForElem(elem *sema.Type) SetRepr {
	if hc.a.Opts.SmartSelect && elem.Domain > 0 &&
		meta.BitWords(elem.Domain)*8 <= bitSetMaxBytes {
		return SetBitVec
	}
	return SetTree
}

// ---------------------------------------------------------------------------
// Must-fetched tags

// fetchFlow is tagFetches' state at one point of a handler: the tag
// each entry slot, then each value slot, would get there. dead marks a
// point no path reaches (after a return).
type fetchFlow struct {
	tags []fetchTag
	dead bool
}

func (f fetchFlow) clone() fetchFlow {
	return fetchFlow{append([]fetchTag(nil), f.tags...), f.dead}
}

// merge joins the paths of o into f: a slot keeps its tag where both
// agree and is filled on some paths otherwise.
func (f *fetchFlow) merge(o fetchFlow) {
	switch {
	case o.dead:
	case f.dead:
		*f = o.clone()
	default:
		for i, t := range o.tags {
			if f.tags[i] != t {
				f.tags[i] = fetchSome
			}
		}
	}
}

// fetchPass walks one lowered handler in the emitters' evaluation order.
type fetchPass struct {
	lh    *lHandler
	slots map[string]int // entry class → entry slot
	cur   fetchFlow
	ret   fetchFlow // the paths that left the current part by a return
}

// tagFetches tags every entry-slot use, value-slot read and ranged
// builtin of lh, fills lh.vals, and counts lh's sites and the lookups
// they save. Both emitters follow the tags alone, so they still issue
// the same container operations. A value slot is filled only where its
// entry slot is (a load or store of it fetched the entry), and nothing
// empties an entry slot; stores and removes empty the value slots they
// may alias. A hash slot's entry may detach on a rehash, so its uses
// keep the generation check and never count as filled.
func tagFetches(lh *lHandler, slots map[string]int) {
	p := &fetchPass{lh: lh, slots: slots}
	p.cur.tags = make([]fetchTag, len(lh.slots)+len(lh.vals))
	for i := range p.cur.tags {
		p.cur.tags[i] = fetchNone
	}
	for _, body := range lh.parts {
		p.ret = fetchFlow{dead: true}
		p.stmts(body)
		p.cur.merge(p.ret) // a fused part's return resumes at its label
	}
}

// val is value slot s's tag in the current state.
func (p *fetchPass) val(s int) *fetchTag { return &p.cur.tags[len(p.lh.slots)+s] }

// maybe walks fn on the paths that run it and merges the paths that
// skip it.
func (p *fetchPass) maybe(fn func()) {
	skip := p.cur.clone()
	fn()
	p.cur.merge(skip)
}

func (p *fetchPass) stmts(list []lStmt) {
	for _, s := range list {
		switch st := s.(type) {
		case *lIf:
			p.expr(st.cond)
			els := p.cur.clone()
			p.stmts(st.then)
			then := p.cur
			p.cur = els
			p.stmts(st.els)
			p.cur.merge(then)
		case *lReturn:
			p.expr(st.val)
			p.ret.merge(p.cur)
			p.cur.dead = true
		case *lDo:
			p.expr(st.x)
		case *lDoSet:
			p.set(st.x)
		}
	}
}

// site counts one metadata site, and a saved lookup where it is keyed
// and issues no container operation on any path. Global members have
// no container: they count as sites only.
func (p *fetchPass) site(keyed, free bool) {
	p.lh.sites++
	if keyed && free {
		p.lh.saved++
	}
}

// entry tags an entry fetch. A slotted entry's keys are pure, so
// skipping them changes nothing.
func (p *fetchPass) entry(en *lEntry) {
	switch {
	case en.slot < 0:
		p.expr(en.key)
		p.expr(en.key2)
	case en.impl == ImplHash:
		en.fetch = fetchSome
	default:
		en.fetch = p.cur.tags[en.slot]
		p.cur.tags[en.slot] = fetchAll
	}
	p.site(en.impl != ImplGlobal, en.fetch == fetchAll)
}

func (p *fetchPass) offset(l *lLoc) {
	for _, d := range l.dims {
		p.expr(d.x)
	}
}

// empty marks a member's value slots, except keep, empty on every path.
func (p *fetchPass) empty(lst *slotList, keep int) {
	for _, s := range lst.slots {
		if s != keep {
			*p.val(s) = fetchNone
		}
	}
}

func (p *fetchPass) expr(e lExpr) {
	switch x := e.(type) {
	case *lLoad:
		if s := x.vslot; s >= 0 {
			x.fetch = *p.val(s)
			p.lh.vals[s].read = true
			if x.fetch == fetchSome {
				p.lh.vals[s].guarded = true
			}
			if x.fetch != fetchAll {
				p.entry(x.loc.entry)
			} else {
				p.site(x.loc.entry.impl != ImplGlobal, true)
			}
			*p.val(s) = fetchAll
			return
		}
		p.entry(x.loc.entry)
		p.offset(x.loc)
	case *lStore:
		p.offset(x.loc)
		p.expr(x.rhs)
		p.entry(x.loc.entry)
		p.empty(x.inval, x.vslot)
		if x.vslot >= 0 {
			*p.val(x.vslot) = fetchAll
		}
	case *lUnary:
		p.expr(x.x)
	case *lBinary:
		switch x.op {
		case token.LAND, token.LOR:
			p.expr(x.x)
			p.maybe(func() { p.expr(x.y) })
		case token.QUO, token.REM: // the divisor first
			p.expr(x.y)
			p.maybe(func() { p.expr(x.x) })
		default:
			p.expr(x.x)
			p.expr(x.y)
		}
	case *lIntern:
		p.expr(x.x)
	case *lSetAssign:
		if x.op == token.ASSIGN {
			p.offset(x.loc)
		}
		p.set(x.rhs)
		p.entry(x.loc.entry)
	case *lSetMethod:
		switch {
		case x.loc.mem.Repr != SetBitVec:
			p.offset(x.loc)
			p.entry(x.loc.entry)
			p.expr(x.elem)
		case x.name == "add" || x.name == "remove" || x.name == "clear":
			p.offset(x.loc)
			p.expr(x.elem)
			p.entry(x.loc.entry)
		default:
			p.entry(x.loc.entry)
			p.offset(x.loc)
			p.expr(x.elem)
		}
	case *lRange:
		p.expr(x.key)
		p.expr(x.n)
		if !x.store {
			p.through(x)
			return
		}
		p.maybe(func() { // a non-empty range
			p.expr(x.val)
			p.through(x)
			p.empty(x.inval, -1)
		})
	case *lRemove:
		p.expr(x.key)
		for _, lst := range x.inval {
			p.empty(lst, -1)
		}
		p.site(true, false)
	case *lHas:
		p.expr(x.key)
		p.site(true, false)
	case *lAssert:
		p.expr(x.got)
		p.expr(x.want)
	case *lExtern:
		for _, a := range x.args {
			p.expr(a)
		}
	}
}

// through gives a range its entry slot where the slot is filled on
// every path (hash slots never are); a constant one-byte range through
// it is one granule and issues no container operation.
func (p *fetchPass) through(x *lRange) {
	x.slot = -1
	if s, ok := p.slots[x.class]; ok && p.cur.tags[s] == fetchAll {
		x.slot = s
	}
	n, isConst := x.n.(*lConst)
	p.site(true, x.slot >= 0 && isConst && n.v == 1)
}

func (p *fetchPass) set(s lSet) {
	switch x := s.(type) {
	case *lView:
		if x.loc.mem.Repr == SetBitVec {
			p.entry(x.loc.entry)
			p.offset(x.loc)
		} else {
			p.offset(x.loc)
			p.entry(x.loc.entry)
		}
	case *lSetBin:
		p.set(x.x)
		p.set(x.y)
	}
}

// granules converts a range operation's byte key and length into its
// first granule and granule count (0 for an empty range).
func granules(k, n uint64, sh uint) (start, cnt uint64) {
	start = k >> sh
	if n == 0 {
		return start, 0
	}
	return start, (k+n-1)>>sh - start + 1
}
