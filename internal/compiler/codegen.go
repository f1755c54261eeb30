package compiler

import (
	"repro/internal/lang/token"
	"repro/internal/meta"
	"repro/internal/vm"
)

// The closure emitter: lowered handlers (lower.go) become closure trees
// at Runtime construction time. This is the backend for every analysis
// the staged table (stage.go) does not cover — runtime-supplied
// sources, ablation points, profiling builds and adapted layouts. Every
// closure shares one mutable hstate per handler (the VM is
// single-goroutine and handlers never nest), so dispatch allocates
// nothing on the hot path.
//
// Entry and value CSE slots validate against a per-invocation epoch, so
// handler entry costs one increment instead of clearing slot arrays.

type hstate struct {
	m        *vm.Machine
	args     []uint64
	ret      uint64
	returned bool

	epoch   uint64
	entries [][]uint64
	evalid  []uint64 // epoch stamps for entries
	egen    []uint64 // container rehash generations for hash-backed entries
	vcache  []uint64
	vvalid  []uint64 // epoch stamps for scalar values
}

type (
	evalFn  func(st *hstate) uint64
	stmtFn  func(st *hstate)
	entryFn func(st *hstate) []uint64
	offFn   func(st *hstate) uint
)

// setRef is a set rvalue: a bit-vector view or a tree. owned marks
// freshly computed results that assignment may take without cloning.
type setRef struct {
	bits  []uint64
	tree  *meta.TreeSet
	owned bool
}

type setFn func(st *hstate) setRef

// cgen emits one lowered handler as closures bound to a runtime.
type cgen struct {
	rt *Runtime
	h  *lHandler
}

// buildClosures compiles the handler table to closures.
func (rt *Runtime) buildClosures() error {
	lhs, err := lowerHandlers(rt.A)
	if err != nil {
		return err
	}
	rt.handlers = make([]vm.HandlerFn, len(lhs))
	for i, lh := range lhs {
		rt.handlers[i] = (&cgen{rt: rt, h: lh}).handler()
	}
	return nil
}

func (c *cgen) handler() vm.HandlerFn {
	lh := c.h
	bodies := make([][]stmtFn, len(lh.parts))
	for i, body := range lh.parts {
		bodies[i] = c.stmts(body)
	}
	mus := make([]*groupState, len(lh.locks))
	for i, gid := range lh.locks {
		mus[i] = c.rt.groups[gid]
	}
	st := &hstate{
		entries: make([][]uint64, len(lh.slots)),
		evalid:  make([]uint64, len(lh.slots)),
		egen:    make([]uint64, len(lh.slots)),
		vcache:  make([]uint64, lh.nvals),
		vvalid:  make([]uint64, lh.nvals),
	}

	if lh.fused {
		return func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			st.m, st.args = m, args
			st.ret = 0
			st.epoch++
			for _, gs := range mus {
				gs.mu.Lock()
			}
			for _, body := range bodies {
				st.returned = false
				for _, s := range body {
					s(st)
					if st.returned {
						break
					}
				}
			}
			for i := len(mus) - 1; i >= 0; i-- {
				mus[i].mu.Unlock()
			}
			return 0
		}
	}
	body := bodies[0]
	switch len(mus) {
	case 0:
		return func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			st.m, st.args = m, args
			st.ret, st.returned = 0, false
			st.epoch++
			for _, s := range body {
				s(st)
				if st.returned {
					break
				}
			}
			return st.ret
		}
	case 1:
		mu := &mus[0].mu
		return func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			st.m, st.args = m, args
			st.ret, st.returned = 0, false
			st.epoch++
			mu.Lock()
			for _, s := range body {
				s(st)
				if st.returned {
					break
				}
			}
			mu.Unlock()
			return st.ret
		}
	default:
		return func(m *vm.Machine, tid uint64, args []uint64) uint64 {
			st.m, st.args = m, args
			st.ret, st.returned = 0, false
			st.epoch++
			for _, gs := range mus {
				gs.mu.Lock()
			}
			for _, s := range body {
				s(st)
				if st.returned {
					break
				}
			}
			for i := len(mus) - 1; i >= 0; i-- {
				mus[i].mu.Unlock()
			}
			return st.ret
		}
	}
}

// ---------------------------------------------------------------------------
// Statements

func (c *cgen) stmts(list []lStmt) []stmtFn {
	out := make([]stmtFn, len(list))
	for i, s := range list {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *cgen) stmt(s lStmt) stmtFn {
	switch st := s.(type) {
	case *lIf:
		cond := c.expr(st.cond)
		thenB, elseB := c.stmts(st.then), c.stmts(st.els)
		if len(elseB) == 0 {
			return func(h *hstate) {
				if cond(h) != 0 {
					for _, fn := range thenB {
						fn(h)
						if h.returned {
							return
						}
					}
				}
			}
		}
		return func(h *hstate) {
			branch := elseB
			if cond(h) != 0 {
				branch = thenB
			}
			for _, fn := range branch {
				fn(h)
				if h.returned {
					return
				}
			}
		}
	case *lReturn:
		if st.val == nil {
			return func(h *hstate) { h.returned = true }
		}
		val := c.expr(st.val)
		return func(h *hstate) {
			h.ret = val(h)
			h.returned = true
		}
	case *lDoSet:
		fn := c.set(st.x)
		return func(h *hstate) { fn(h) }
	}
	fn := c.expr(s.(*lDo).x)
	return func(h *hstate) { fn(h) }
}

// ---------------------------------------------------------------------------
// Locations

// entry emits an entry fetch: the container lookup, wrapped in its CSE
// slot and profile counter when the lowering assigned them.
func (c *cgen) entry(en *lEntry) entryFn {
	gs := c.rt.groups[en.group]
	var ef entryFn
	switch en.impl {
	case ImplGlobal:
		ef = func(h *hstate) []uint64 { return gs.global }
	case ImplHash2:
		c2 := gs.c2
		k1, k2 := c.expr(en.key), c.expr(en.key2)
		ef = func(h *hstate) []uint64 { return c2.Entry(k1(h), k2(h)) }
	default:
		cont := gs.c
		key := c.expr(en.key)
		ef = func(h *hstate) []uint64 { return cont.Entry(key(h)) }
	}

	if slot := en.slot; slot >= 0 {
		inner := ef
		// The flat-arena hash tables rehash on growth and on
		// back-shifting removal, detaching previously returned entry
		// views from the live arena; their cache slots validate the
		// container generation as well as the invocation epoch. The
		// other containers never move a materialized entry.
		switch en.impl {
		case ImplHash:
			hm := gs.c.(*meta.HashMap)
			ef = func(h *hstate) []uint64 {
				if h.evalid[slot] == h.epoch && h.egen[slot] == hm.Gen() {
					return h.entries[slot]
				}
				e := inner(h)
				h.entries[slot] = e
				h.evalid[slot] = h.epoch
				h.egen[slot] = hm.Gen()
				return e
			}
		case ImplHash2:
			hm2 := gs.c2
			ef = func(h *hstate) []uint64 {
				if h.evalid[slot] == h.epoch && h.egen[slot] == hm2.Gen() {
					return h.entries[slot]
				}
				e := inner(h)
				h.entries[slot] = e
				h.evalid[slot] = h.epoch
				h.egen[slot] = hm2.Gen()
				return e
			}
		default:
			ef = func(h *hstate) []uint64 {
				if h.evalid[slot] == h.epoch {
					return h.entries[slot]
				}
				e := inner(h)
				h.entries[slot] = e
				h.evalid[slot] = h.epoch
				return e
			}
		}
	}

	if en.counter >= 0 {
		counts, idx, inner := c.rt.memberCounts, en.counter, ef
		ef = func(h *hstate) []uint64 {
			counts[idx]++
			return inner(h)
		}
	}
	return ef
}

// offset emits a location's bit offset (a cheap constant closure when
// there are no dynamic dimensions).
func (c *cgen) offset(l *lLoc) offFn {
	base := l.mem.BitOff
	if l.dims == nil {
		return func(h *hstate) uint { return base }
	}
	evals := make([]evalFn, len(l.dims))
	for i, d := range l.dims {
		evals[i] = c.expr(d.x)
	}
	dims := l.dims
	return func(h *hstate) uint {
		off := base
		for i, ev := range evals {
			off += uint(ev(h)%dims[i].dom) * dims[i].stride
		}
		return off
	}
}

// ---------------------------------------------------------------------------
// Scalar load/store with value CSE

func (c *cgen) load(x *lLoad) evalFn {
	width, signed := x.loc.mem.Width, x.loc.mem.Signed
	ef := c.entry(x.loc.entry)
	if x.loc.dims != nil {
		dyn := c.offset(x.loc)
		if signed && width < 64 {
			return func(h *hstate) uint64 {
				return meta.SignExtend(meta.LoadField(ef(h), dyn(h), width), width)
			}
		}
		return func(h *hstate) uint64 {
			return meta.LoadField(ef(h), dyn(h), width)
		}
	}
	off := x.loc.mem.BitOff
	raw := func(h *hstate) uint64 {
		v := meta.LoadField(ef(h), off, width)
		if signed && width < 64 {
			v = meta.SignExtend(v, width)
		}
		return v
	}
	slot := x.vslot
	if slot < 0 {
		return raw
	}
	return func(h *hstate) uint64 {
		if h.vvalid[slot] == h.epoch {
			return h.vcache[slot]
		}
		v := raw(h)
		h.vcache[slot] = v
		h.vvalid[slot] = h.epoch
		return v
	}
}

// store emits a scalar field write with write-through caching and
// aliasing invalidation.
func (c *cgen) store(x *lStore) evalFn {
	width := x.loc.mem.Width
	ef := c.entry(x.loc.entry)
	rhs := c.expr(x.rhs)
	inval := invalidator(x.inval, x.vslot)
	if x.loc.dims != nil {
		dyn := c.offset(x.loc)
		// Entry view fetched last: the offset or RHS evaluation may
		// grow a hash container and detach an earlier view.
		return func(h *hstate) uint64 {
			d := dyn(h)
			v := rhs(h)
			meta.StoreField(ef(h), d, width, v)
			inval(h)
			return 0
		}
	}
	off := x.loc.mem.BitOff
	slot, signed := x.vslot, x.loc.mem.Signed
	if slot >= 0 {
		return func(h *hstate) uint64 {
			v := rhs(h)
			meta.StoreField(ef(h), off, width, v)
			inval(h)
			h.vcache[slot] = cachedStore(v, width, signed)
			h.vvalid[slot] = h.epoch
			return 0
		}
	}
	return func(h *hstate) uint64 {
		v := rhs(h)
		meta.StoreField(ef(h), off, width, v)
		inval(h)
		return 0
	}
}

// cachedStore is the value a load of a width-bit field reads back after
// storing v: the write-through value of a cached store.
func cachedStore(v uint64, width uint, signed bool) uint64 {
	if signed && width < 64 {
		return meta.SignExtend(meta.Truncate(v, width), width)
	}
	return meta.Truncate(v, width)
}

// invalidator returns a closure dropping all value slots in lst except
// `exclude` (-1 for none). lst is read at run time, so slots registered
// after the store was lowered are covered too.
func invalidator(lst *slotList, exclude int) stmtFn {
	return func(h *hstate) {
		for _, s := range lst.slots {
			if s != exclude {
				h.vvalid[s] = 0
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Scalar expressions

func (c *cgen) expr(e lExpr) evalFn {
	switch x := e.(type) {
	case *lConst:
		v := x.v
		return func(h *hstate) uint64 { return v }
	case *lArg:
		idx := x.i
		return func(h *hstate) uint64 { return h.args[idx] }
	case *lLoad:
		return c.load(x)
	case *lStore:
		return c.store(x)
	case *lUnary:
		inner := c.expr(x.x)
		if x.op == token.NOT {
			return func(h *hstate) uint64 {
				if inner(h) == 0 {
					return 1
				}
				return 0
			}
		}
		return func(h *hstate) uint64 { return -inner(h) }
	case *lBinary:
		return c.binary(x)
	case *lIntern:
		tbl, dom, inner := c.rt.internTable(x.table), x.dom, c.expr(x.x)
		return func(h *hstate) uint64 { return internValue(tbl, dom, inner(h)) }
	case *lSetAssign:
		return c.setAssign(x)
	case *lSetMethod:
		return c.setMethod(x)
	case *lRange:
		return c.rangeOp(x)
	case *lRemove:
		cont, key := c.rt.groups[x.group].c, c.expr(x.key)
		invals := make([]stmtFn, len(x.inval))
		for i, lst := range x.inval {
			invals[i] = invalidator(lst, -1)
		}
		return func(h *hstate) uint64 {
			cont.Remove(key(h))
			for _, iv := range invals {
				iv(h)
			}
			return 0
		}
	case *lHas:
		cont, key := c.rt.groups[x.group].c, c.expr(x.key)
		return func(h *hstate) uint64 { return b2u(cont.Peek(key(h)) != nil) }
	case *lAssert:
		got, want := c.expr(x.got), c.expr(x.want)
		rt, name, msg := c.rt, x.handler, x.msg
		return func(h *hstate) uint64 {
			rt.stats.Asserts++
			g, w := got(h), want(h)
			if g != w {
				rt.stats.AssertFailures++
				h.m.Report(name, msg, g, w)
			}
			return 0
		}
	case *lExtern:
		argFns := make([]evalFn, len(x.args))
		for i, a := range x.args {
			argFns[i] = c.expr(a)
		}
		buf := make([]uint64, c.h.extBufs[x.buf])
		fn := c.rt.externals[x.idx]
		return func(h *hstate) uint64 {
			for i, f := range argFns {
				buf[i] = f(h)
			}
			return fn(h.m, buf)
		}
	}
	panic("compiler: unknown lowered expression")
}

func (c *cgen) binary(x *lBinary) evalFn {
	a, b := c.expr(x.x), c.expr(x.y)
	switch x.op {
	case token.LAND:
		return func(h *hstate) uint64 {
			if a(h) == 0 {
				return 0
			}
			if b(h) != 0 {
				return 1
			}
			return 0
		}
	case token.LOR:
		return func(h *hstate) uint64 {
			if a(h) != 0 {
				return 1
			}
			if b(h) != 0 {
				return 1
			}
			return 0
		}
	}
	// Comparisons against constants are the dominant handler pattern
	// (state-machine checks); specialize them.
	if k, ok := x.y.(*lConst); ok {
		k := int64(k.v)
		switch x.op {
		case token.EQL:
			return func(h *hstate) uint64 { return b2u(int64(a(h)) == k) }
		case token.NEQ:
			return func(h *hstate) uint64 { return b2u(int64(a(h)) != k) }
		case token.LSS:
			return func(h *hstate) uint64 { return b2u(int64(a(h)) < k) }
		case token.LEQ:
			return func(h *hstate) uint64 { return b2u(int64(a(h)) <= k) }
		case token.GTR:
			return func(h *hstate) uint64 { return b2u(int64(a(h)) > k) }
		case token.GEQ:
			return func(h *hstate) uint64 { return b2u(int64(a(h)) >= k) }
		}
	}
	switch x.op {
	case token.ADD:
		return func(h *hstate) uint64 { return a(h) + b(h) }
	case token.SUB:
		return func(h *hstate) uint64 { return a(h) - b(h) }
	case token.MUL:
		return func(h *hstate) uint64 { return a(h) * b(h) }
	case token.QUO:
		// The divisor is evaluated first; the dividend only when the
		// divisor is non-zero (ALDA's x / 0 is 0).
		return func(h *hstate) uint64 {
			bv := int64(b(h))
			if bv == 0 {
				return 0
			}
			return uint64(int64(a(h)) / bv)
		}
	case token.REM:
		return func(h *hstate) uint64 {
			bv := int64(b(h))
			if bv == 0 {
				return 0
			}
			return uint64(int64(a(h)) % bv)
		}
	case token.AND:
		return func(h *hstate) uint64 { return a(h) & b(h) }
	case token.OR:
		return func(h *hstate) uint64 { return a(h) | b(h) }
	case token.XOR:
		return func(h *hstate) uint64 { return a(h) ^ b(h) }
	case token.SHL:
		return func(h *hstate) uint64 { return a(h) << (b(h) & 63) }
	case token.SHR:
		return func(h *hstate) uint64 { return a(h) >> (b(h) & 63) }
	case token.EQL:
		return func(h *hstate) uint64 { return b2u(int64(a(h)) == int64(b(h))) }
	case token.NEQ:
		return func(h *hstate) uint64 { return b2u(int64(a(h)) != int64(b(h))) }
	case token.LSS:
		return func(h *hstate) uint64 { return b2u(int64(a(h)) < int64(b(h))) }
	case token.LEQ:
		return func(h *hstate) uint64 { return b2u(int64(a(h)) <= int64(b(h))) }
	case token.GTR:
		return func(h *hstate) uint64 { return b2u(int64(a(h)) > int64(b(h))) }
	default: // token.GEQ
		return func(h *hstate) uint64 { return b2u(int64(a(h)) >= int64(b(h))) }
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Set and map builtins

func (c *cgen) setMethod(x *lSetMethod) evalFn {
	mem := x.loc.mem
	ef, off := c.entry(x.loc.entry), c.offset(x.loc)
	var ev evalFn
	if x.elem != nil {
		ev = c.expr(x.elem)
	}
	if mem.Repr == SetBitVec {
		words := mem.SetWords
		dom := uint64(mem.SetDomain)
		// Mutators fetch the entry view last so that offset/element
		// evaluation growing a hash container cannot detach the write
		// target.
		switch x.name {
		case "add":
			return func(h *hstate) uint64 {
				w := int(off(h) / 64)
				v := ev(h) % dom
				e := ef(h)
				meta.BitAdd(e[w:w+words], v)
				return 0
			}
		case "remove":
			return func(h *hstate) uint64 {
				w := int(off(h) / 64)
				v := ev(h) % dom
				e := ef(h)
				meta.BitRemove(e[w:w+words], v)
				return 0
			}
		case "find":
			return func(h *hstate) uint64 {
				e := ef(h)
				w := int(off(h) / 64)
				return b2u(meta.BitFind(e[w:w+words], ev(h)%dom))
			}
		case "size":
			return func(h *hstate) uint64 {
				e := ef(h)
				w := int(off(h) / 64)
				return uint64(meta.BitCount(e[w : w+words]))
			}
		case "empty":
			return func(h *hstate) uint64 {
				e := ef(h)
				w := int(off(h) / 64)
				return b2u(meta.BitEmpty(e[w : w+words]))
			}
		default: // clear
			return func(h *hstate) uint64 {
				w := int(off(h) / 64)
				e := ef(h)
				meta.BitClear(e[w : w+words])
				return 0
			}
		}
	}
	// getTree writes the tree handle into the entry, so the entry view
	// must be fetched after the offset; the tree itself lives outside
	// the arena and survives rehashes.
	rt, univ := c.rt, mem.SetUniv
	switch x.name {
	case "add":
		return func(h *hstate) uint64 {
			w := int(off(h) / 64)
			rt.getTree(ef(h), w, univ).Add(ev(h))
			return 0
		}
	case "remove":
		return func(h *hstate) uint64 {
			w := int(off(h) / 64)
			rt.getTree(ef(h), w, univ).Remove(ev(h))
			return 0
		}
	case "find":
		return func(h *hstate) uint64 {
			w := int(off(h) / 64)
			return b2u(rt.getTree(ef(h), w, univ).Find(ev(h)))
		}
	case "size":
		return func(h *hstate) uint64 {
			w := int(off(h) / 64)
			return uint64(rt.getTree(ef(h), w, univ).Size())
		}
	case "empty":
		return func(h *hstate) uint64 {
			w := int(off(h) / 64)
			return b2u(rt.getTree(ef(h), w, univ).Empty())
		}
	default: // clear
		return func(h *hstate) uint64 {
			w := int(off(h) / 64)
			rt.getTree(ef(h), w, univ).Clear()
			return 0
		}
	}
}

func (c *cgen) rangeOp(x *lRange) evalFn {
	cont := c.rt.groups[x.group].c
	key, n := c.expr(x.key), c.expr(x.n)
	sh, off, width, signed := x.shift, x.off, x.width, x.signed
	tick := func() {}
	if x.counter >= 0 {
		counts, idx := c.rt.memberCounts, x.counter
		tick = func() { counts[idx]++ }
	}
	if x.store {
		val := c.expr(x.val)
		inval := invalidator(x.inval, -1)
		return func(h *hstate) uint64 {
			tick()
			k := key(h)
			start, cnt := granules(k, n(h), sh)
			if cnt > 0 {
				cont.Fill(start, cnt, off, width, val(h))
				inval(h)
			}
			return 0
		}
	}
	if signed && width < 64 {
		return func(h *hstate) uint64 {
			tick()
			k := key(h)
			start, cnt := granules(k, n(h), sh)
			if cnt == 0 {
				return 0
			}
			return meta.SignExtend(cont.RangeOr(start, cnt, off, width), width)
		}
	}
	return func(h *hstate) uint64 {
		tick()
		k := key(h)
		start, cnt := granules(k, n(h), sh)
		if cnt == 0 {
			return 0
		}
		return cont.RangeOr(start, cnt, off, width)
	}
}

// ---------------------------------------------------------------------------
// Set expressions

func (c *cgen) setAssign(x *lSetAssign) evalFn {
	mem := x.loc.mem
	ef := c.entry(x.loc.entry)
	rhs := c.set(x.rhs)
	if x.op != token.ASSIGN {
		w := int(mem.BitOff / 64)
		words := mem.SetWords
		// Evaluate the RHS operand before fetching the destination
		// view: the inline-arena hash tables may rehash while
		// materializing it, which would detach an already-fetched
		// destination and lose the write. A stale *source* view is
		// harmless — rehash copies values.
		if x.op == token.AND {
			return func(h *hstate) uint64 {
				r := rhs(h)
				dst := ef(h)[w : w+words]
				meta.BitAnd(dst, dst, r.bits)
				return 0
			}
		}
		return func(h *hstate) uint64 {
			r := rhs(h)
			dst := ef(h)[w : w+words]
			meta.BitOr(dst, dst, r.bits)
			return 0
		}
	}
	off := c.offset(x.loc)
	if mem.Repr == SetBitVec {
		words := mem.SetWords
		// Destination view fetched last: evaluating the offset or RHS
		// may grow a hash container and detach an earlier view.
		return func(h *hstate) uint64 {
			w := int(off(h) / 64)
			r := rhs(h)
			entry := ef(h)
			meta.BitCopy(entry[w:w+words], r.bits)
			return 0
		}
	}
	rt := c.rt
	return func(h *hstate) uint64 {
		w := int(off(h) / 64)
		r := rhs(h)
		t := r.tree
		if !r.owned {
			t = t.Clone()
		}
		rt.setTree(ef(h), w, t)
		return 0
	}
}

func (c *cgen) set(s lSet) setFn {
	if v, ok := s.(*lView); ok {
		mem := v.loc.mem
		ef, off := c.entry(v.loc.entry), c.offset(v.loc)
		if mem.Repr == SetBitVec {
			words := mem.SetWords
			return func(h *hstate) setRef {
				entry := ef(h)
				w := int(off(h) / 64)
				return setRef{bits: entry[w : w+words]}
			}
		}
		rt, univ := c.rt, mem.SetUniv
		return func(h *hstate) setRef {
			w := int(off(h) / 64)
			return setRef{tree: rt.getTree(ef(h), w, univ)}
		}
	}
	x := s.(*lSetBin)
	a, b := c.set(x.x), c.set(x.y)
	if x.bits {
		scratch := make([]uint64, x.words)
		if x.op == token.AND {
			return func(h *hstate) setRef {
				ra, rb := a(h), b(h)
				meta.BitAnd(scratch, ra.bits, rb.bits)
				return setRef{bits: scratch, owned: true}
			}
		}
		return func(h *hstate) setRef {
			ra, rb := a(h), b(h)
			meta.BitOr(scratch, ra.bits, rb.bits)
			return setRef{bits: scratch, owned: true}
		}
	}
	if x.op == token.AND {
		return func(h *hstate) setRef {
			ra, rb := a(h), b(h)
			return setRef{tree: meta.Intersect(ra.tree, rb.tree), owned: true}
		}
	}
	return func(h *hstate) setRef {
		ra, rb := a(h), b(h)
		return setRef{tree: meta.Union(ra.tree, rb.tree), owned: true}
	}
}
