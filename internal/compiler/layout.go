package compiler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/lang/ast"
	"repro/internal/lang/sema"
	"repro/internal/meta"
	"repro/internal/vm"
)

// ImplKind is the container choice for a metadata group.
type ImplKind int

// Container implementations (§5.3).
const (
	ImplGlobal    ImplKind = iota // unkeyed globals, one entry
	ImplArray                     // bounded key domain
	ImplShadow                    // offset shadow memory: a ChunkMap with a flat directory
	ImplPageTable                 // page table: a ChunkMap with leaves made on first touch
	ImplHash                      // generic fallback; keyed by a pair when Key2Type is set
)

var implNames = [...]string{"global", "array", "shadow", "pagetable", "hash"}

func (k ImplKind) String() string { return implNames[k] }

// SetRepr is the set representation choice.
type SetRepr int

// Set representations.
const (
	SetBitVec SetRepr = iota
	SetTree
)

func (r SetRepr) String() string {
	if r == SetBitVec {
		return "bitvec"
	}
	return "tree"
}

// Member is one original metadata object's slot inside a coalesced
// group entry.
type Member struct {
	Meta    *sema.MetaObj
	GroupID int

	// InnerDomains lists bounded key dimensions beyond the group key,
	// folded into the entry layout (vector-clock style); InnerStride is
	// the per-step stride in bits for each dimension.
	InnerDomains []int64
	InnerStride  []uint

	// Scalar leaf.
	BitOff   uint
	Width    uint
	Signed   bool
	UnivInit bool // universe:: scalar — template all-ones

	// Set leaf.
	IsSet     int // 0 scalar, 1 set (int, not bool, to keep struct comparable in tests)
	Repr      SetRepr
	WordOff   int // bitvec first word / tree handle word
	SetWords  int
	SetDomain int64
	SetUniv   bool
}

// Group is one coalesced metadata container.
type Group struct {
	ID      int
	Impl    ImplKind
	KeyType *sema.Type // nil for ImplGlobal
	// Key2Type is set for an ImplHash group keyed by two unbounded
	// dimensions: a pair table (meta.NewHashMap2).
	Key2Type *sema.Type

	EntryWords   int
	Template     []uint64
	Sync         bool
	AddrShift    uint // address-keyed groups pre-shift keys by this
	MaxKeys      uint64
	ShadowFactor float64
	// Cold marks a group split out by Options.SplitCold: only
	// per-event handlers touch its members, so container selection
	// trades speed for memory (page table over shadow).
	Cold    bool
	Members []*Member

	memberByName map[string]*Member
}

// Member returns the group's member for a metadata object name.
func (g *Group) Member(name string) *Member { return g.memberByName[name] }

// MemberNames returns member names in layout order.
func (g *Group) MemberNames() []string {
	out := make([]string, len(g.Members))
	for i, m := range g.Members {
		out[i] = m.Meta.Name
	}
	return out
}

// Layout is the complete metadata layout decision.
type Layout struct {
	Groups []*Group
	// ByMeta maps each metadata object name to its member record.
	ByMeta map[string]*Member
}

// widthClasses are the field widths that never straddle a word boundary
// under power-of-two strides.
var widthClasses = [...]uint{1, 2, 4, 8, 16, 32, 64}

func roundWidth(w uint) uint {
	for _, c := range widthClasses {
		if w <= c {
			return c
		}
	}
	return 64
}

func bitsForDomain(d int64) uint {
	b := uint(1)
	for int64(1)<<b < d {
		b++
	}
	return b
}

// scalarWidth picks the packed field width for a scalar member.
func scalarWidth(t *sema.Type) (width uint, signed bool) {
	signed = t.Prim <= ast.Int64 // int8..int64 are signed
	width = uint(t.Bits())
	if !signed && t.Domain > 0 {
		if w := roundWidth(bitsForDomain(t.Domain)); w < width {
			width = w
		}
	}
	return width, signed
}

// keySig builds the coalescing signature: groups merge when their first
// key type matches (§5.2 key-type based coalescing). Unkeyed objects
// share the global signature; maps whose second key dimension is
// unbounded cannot fold it into the entry and group by both key types.
func keySig(m *sema.MetaObj) string {
	if !m.IsMap() {
		return "<global>"
	}
	var sb strings.Builder
	sb.WriteString(m.Keys[0].Name)
	for _, k := range m.Keys[1:] {
		if k.Domain <= 0 {
			sb.WriteString("|")
			sb.WriteString(k.Name)
		}
	}
	return sb.String()
}

// TestPerturbCoalescedTemplates is a test-only hook for the conformance
// shrinker's self-test: when set, the initial-state template of every
// keyed group holding two or more coalesced members gets its low bit
// flipped. Such groups exist only when Coalesce is on, so the flip makes
// DefaultOptions disagree with DSOnlyOptions/NaiveOptions on any analysis
// whose coalesced default state matters — a deliberate, deterministic
// semantic-drift bug for the differential harness to catch and shrink.
// Never set outside tests.
var TestPerturbCoalescedTemplates bool

// buildLayout runs metadata coalescing (§5.2) and data-structure
// selection (§5.3).
func buildLayout(info *sema.Info, acc *access.Result, opts Options) (*Layout, error) {
	lay := &Layout{ByMeta: make(map[string]*Member)}

	// 1. Partition metadata objects into groups.
	type bucket struct {
		sig   string
		metas []*sema.MetaObj
		cold  bool // split out of a per-access group
	}
	var buckets []*bucket
	bySig := make(map[string]*bucket)
	calls, queried := mapCalls(info)
	for _, m := range info.MetaOrder {
		sig := keySig(m)
		if (!opts.Coalesce || queried[m.Name]) && sig != "<global>" {
			// Without coalescing every keyed object is its own group.
			buckets = append(buckets, &bucket{sig: sig + "#" + m.Name, metas: []*sema.MetaObj{m}})
			continue
		}
		b := bySig[sig]
		if b == nil {
			b = &bucket{sig: sig}
			bySig[sig] = b
			buckets = append(buckets, b)
		}
		b.metas = append(b.metas, m)
	}

	// 1b. Cold split (Options.SplitCold): the access analysis assumes
	// every branch occurs, so coalescing groups members by key type
	// alone. In a group that per-access handlers touch, the members only
	// per-event handlers touch move to a cold group right after it.
	if opts.SplitCold && opts.Coalesce {
		hot := perAccessMembers(info, acc)
		var split []*bucket
		for _, b := range buckets {
			split = append(split, b)
			if len(b.metas) < 2 || b.sig == "<global>" {
				continue
			}
			var keep, cold []*sema.MetaObj
			for _, m := range b.metas {
				if hot[m.Name] {
					keep = append(keep, m)
				} else {
					cold = append(cold, m)
				}
			}
			if len(keep) > 0 && len(cold) > 0 {
				b.metas = keep
				split = append(split, &bucket{sig: b.sig + "#cold", metas: cold, cold: true})
			}
		}
		buckets = split
	}

	// 2. Lay out each group's entry and pick its container.
	for _, b := range buckets {
		g := &Group{ID: len(lay.Groups), Cold: b.cold, memberByName: make(map[string]*Member)}
		var bitCursor uint

		for _, mo := range b.metas {
			mem := &Member{Meta: mo, GroupID: g.ID}
			if mo.Sync {
				g.Sync = true
			}

			// Inner bounded key dimensions fold into the entry.
			var unboundedInner []*sema.Type
			if mo.IsMap() {
				for _, k := range mo.Keys[1:] {
					if k.Domain > 0 {
						mem.InnerDomains = append(mem.InnerDomains, k.Domain)
					} else {
						unboundedInner = append(unboundedInner, k)
					}
				}
				if len(unboundedInner) > 1 {
					return nil, fmt.Errorf("compiler: %s has more than two unbounded key dimensions", mo.Name)
				}
				if len(unboundedInner) == 1 {
					g.Key2Type = unboundedInner[0]
				}
			}

			// Leaf width.
			var leafBits uint
			switch mo.Kind {
			case sema.ScalarValue:
				w, signed := scalarWidth(mo.Scalar)
				mem.Width, mem.Signed = w, signed
				mem.UnivInit = mo.Universe
				leafBits = w
			case sema.SetValue:
				mem.IsSet = 1
				dom := mo.Elem.Domain
				useBits := opts.SmartSelect && dom > 0 && meta.BitWords(dom)*8 <= bitSetMaxBytes
				if useBits {
					mem.Repr = SetBitVec
					mem.SetWords = meta.BitWords(dom)
					mem.SetDomain = dom
					leafBits = uint(mem.SetWords) * 64
				} else {
					mem.Repr = SetTree
					mem.SetWords = 1 // handle word
					mem.SetDomain = dom
					leafBits = 64
				}
				mem.SetUniv = mo.Universe
			}

			// Stride for inner dims: round leaf to a width class (or word
			// multiples for >64-bit leaves) so strided fields never straddle.
			stride := leafBits
			if stride <= 64 {
				stride = roundWidth(stride)
			} else {
				stride = (stride + 63) &^ 63
			}
			total := stride
			for _, d := range mem.InnerDomains {
				total *= uint(d)
			}
			// Stride vector: innermost dimension steps by `stride`, outer
			// dimensions by the product of inner extents.
			mem.InnerStride = make([]uint, len(mem.InnerDomains))
			acc := stride
			for i := len(mem.InnerDomains) - 1; i >= 0; i-- {
				mem.InnerStride[i] = acc
				acc *= uint(mem.InnerDomains[i])
			}

			// Placement: sub-word scalars pack into the current word when
			// they fit without straddling; larger members align to a word.
			if total <= 64 && mem.IsSet == 0 && len(mem.InnerDomains) == 0 {
				if bitCursor%64+total > 64 {
					bitCursor = (bitCursor + 63) &^ 63
				}
				mem.BitOff = bitCursor
				bitCursor += total
			} else {
				bitCursor = (bitCursor + 63) &^ 63
				if mem.IsSet == 1 && len(mem.InnerDomains) == 0 {
					mem.WordOff = int(bitCursor / 64)
				}
				mem.BitOff = bitCursor
				if mem.IsSet == 1 {
					mem.WordOff = int(bitCursor / 64)
				}
				bitCursor += total
			}

			g.Members = append(g.Members, mem)
			g.memberByName[mo.Name] = mem
			lay.ByMeta[mo.Name] = mem
		}

		g.EntryWords = int((bitCursor + 63) / 64)
		if g.EntryWords == 0 {
			g.EntryWords = 1
		}

		// Template: universe-initialized members start all-ones.
		g.Template = make([]uint64, g.EntryWords)
		for _, mem := range g.Members {
			fillTemplate(g.Template, mem)
		}

		// Container selection.
		first := b.metas[0]
		switch {
		case !first.IsMap():
			g.Impl = ImplGlobal
		case g.Key2Type != nil:
			g.Impl = ImplHash
			g.KeyType = first.Keys[0]
		default:
			g.KeyType = first.Keys[0]
			kt := g.KeyType
			switch {
			case !opts.SmartSelect:
				g.Impl = ImplHash
				if kt.Prim == ast.Pointer {
					g.AddrShift = opts.granShift()
				}
			case kt.Domain > 0 && kt.Domain <= arrayMapMaxKeys:
				g.Impl = ImplArray
			case kt.Prim == ast.Pointer && queried[first.Name]:
				g.Impl = ImplHash
				g.AddrShift = opts.granShift()
			case kt.Prim == ast.Pointer:
				g.AddrShift = opts.granShift()
				g.MaxKeys = vm.AddrSpace >> g.AddrShift
				g.ShadowFactor = float64(g.EntryWords*8) / float64(opts.Granularity)
				// Cold groups trade the offset shadow's speed for the
				// page table's memory efficiency — §5.3's trade-off,
				// decided by where the members are touched.
				if g.ShadowFactor > shadowFactorThreshold || b.cold {
					g.Impl = ImplPageTable
				} else {
					g.Impl = ImplShadow
				}
			default:
				g.Impl = ImplHash
			}
		}
		if TestPerturbCoalescedTemplates && g.KeyType != nil && len(g.Members) >= 2 {
			g.Template[0] ^= 1
		}
		lay.Groups = append(lay.Groups, g)
	}

	// A pair table answers point reads and writes only. Reject here what
	// the lowering cannot emit for one, so Compile fails rather than
	// NewRuntime.
	for _, c := range calls {
		if lay.Groups[lay.ByMeta[c.meta].GroupID].Key2Type == nil {
			continue
		}
		switch {
		case c.ranged:
			return nil, fmt.Errorf("compiler: handler %s: range %s on %s requires a single-dimension container-backed map", c.handler, c.method, c.meta)
		case c.method == "has" || c.method == "remove":
			return nil, fmt.Errorf("compiler: handler %s: %s unsupported on %s", c.handler, c.method, c.meta)
		}
	}

	sort.SliceStable(lay.Groups, func(i, j int) bool { return lay.Groups[i].ID < lay.Groups[j].ID })
	return lay, nil
}

// perAccessMembers returns the metadata objects that some handler
// inserted at a load or store touches: the per-access members. Every
// other insertion point (allocation, lock, library call, spawn, ...)
// counts as a per-event point.
func perAccessMembers(info *sema.Info, acc *access.Result) map[string]bool {
	out := make(map[string]bool)
	for _, d := range info.Inserts {
		if d.PointKind == ast.FuncPoint || (d.Point != "LoadInst" && d.Point != "StoreInst") {
			continue
		}
		for _, s := range acc.PerHandler[d.Handler].Sites {
			out[s.Meta.Name] = true
		}
	}
	return out
}

// mapCall is one map method call in a handler body.
type mapCall struct {
	handler, method, meta string
	ranged                bool // set(k, v, n) or get(k, n)
}

// mapCalls lists the map method calls of every handler, in declaration
// order, and returns the maps some handler queries with map.has. Their
// answer is per-key presence, which the hash map and the array map
// track exactly but shadow memory and the page table do not (they
// materialize whole chunks or pages), and which a coalesced entry would
// blur (any member's access materializes it). Such maps therefore get a
// group of their own and never an address-space container.
func mapCalls(info *sema.Info) ([]mapCall, map[string]bool) {
	var calls []mapCall
	queried := make(map[string]bool)
	var handler string
	var expr func(e ast.Expr)
	expr = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.MethodExpr:
			if vt := info.ExprTypes[x.Recv]; vt.Kind == sema.KMapRef {
				calls = append(calls, mapCall{handler: handler, method: x.Name, meta: vt.Meta.Name,
					ranged: (x.Name == "set" && len(x.Args) == 3) || (x.Name == "get" && len(x.Args) == 2)})
				if x.Name == "has" {
					queried[vt.Meta.Name] = true
				}
			}
			expr(x.Recv)
			for _, a := range x.Args {
				expr(a)
			}
		case *ast.CallExpr:
			for _, a := range x.Args {
				expr(a)
			}
		case *ast.UnaryExpr:
			expr(x.X)
		case *ast.BinaryExpr:
			expr(x.X)
			expr(x.Y)
		case *ast.IndexExpr:
			expr(x.X)
			expr(x.Index)
		case *ast.AssignExpr:
			expr(x.LHS)
			expr(x.RHS)
		}
	}
	var stmts func([]ast.Stmt)
	stmts = func(list []ast.Stmt) {
		for _, s := range list {
			switch st := s.(type) {
			case *ast.IfStmt:
				expr(st.Cond)
				stmts(st.Then)
				stmts(st.Else)
			case *ast.ReturnStmt:
				if st.Value != nil {
					expr(st.Value)
				}
			case *ast.ExprStmt:
				expr(st.X)
			}
		}
	}
	for _, h := range info.HandlerOrder {
		handler = h.Name
		stmts(h.Decl.Body)
	}
	return calls, queried
}

// fillTemplate writes a member's initial state into the group template.
func fillTemplate(tmpl []uint64, mem *Member) {
	copies := uint(1)
	for _, d := range mem.InnerDomains {
		copies *= uint(d)
	}
	stride := uint(64)
	if len(mem.InnerStride) > 0 {
		stride = mem.InnerStride[len(mem.InnerStride)-1]
	}
	for c := uint(0); c < copies; c++ {
		off := mem.BitOff + c*stride
		if mem.IsSet == 1 {
			if mem.SetUniv && mem.Repr == SetBitVec {
				w := off / 64
				words := tmpl[w : w+uint(mem.SetWords)]
				meta.BitFillUniverse(words, mem.SetDomain)
			}
			// Tree handles stay 0; materialization consults SetUniv.
		} else if mem.UnivInit {
			meta.StoreField(tmpl, off, mem.Width, ^uint64(0))
		}
	}
}
