package compiler

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/lang/ast"
	"repro/internal/lang/parser"
	"repro/internal/lang/sema"
)

// MatchKind classifies an insertion point after lowering.
type MatchKind int

// Lowered insertion-point kinds.
const (
	MatchLoad MatchKind = iota
	MatchStore
	MatchAlloca
	MatchCondBr
	MatchAnyCall
	MatchCallee // specific function name (library or user)
	MatchBinOp
	MatchCmp
	MatchLock
	MatchUnlock
	MatchSpawn
	MatchJoin
	MatchRet
	MatchProgramStart
	MatchProgramEnd
)

var matchNames = map[MatchKind]string{
	MatchLoad: "LoadInst", MatchStore: "StoreInst", MatchAlloca: "AllocaInst",
	MatchCondBr: "BranchInst", MatchAnyCall: "CallInst", MatchCallee: "func",
	MatchBinOp: "BinOpInst", MatchCmp: "CmpInst", MatchLock: "LockInst",
	MatchUnlock: "UnlockInst", MatchSpawn: "SpawnInst", MatchJoin: "JoinInst",
	MatchRet: "RetInst", MatchProgramStart: "ProgramStart", MatchProgramEnd: "ProgramEnd",
}

func (k MatchKind) String() string { return matchNames[k] }

// Rule is a lowered insertion declaration, ready for the instrumenter.
type Rule struct {
	Kind        MatchKind
	Callee      string // MatchCallee
	After       bool
	HandlerID   int
	HandlerName string
	Args        []ast.CallArg
	HasResult   bool
	UsesMeta    bool // any $X.m argument
}

// FusedPart names one sub-handler of a fused hook and maps its
// parameters onto the fused rule's deduplicated argument list.
type FusedPart struct {
	HandlerName string
	ArgIdx      []int // parameter i reads fused arg ArgIdx[i]
}

// FusedSpec describes one fused handler: its parts compile together in
// one hstate, sharing entry/value CSE slots and a single sync-lock
// section.
type FusedSpec struct {
	Name  string
	Parts []FusedPart
	// Result names the part whose value the hook returns; "" when no
	// part has a result.
	Result string
}

// Analysis is a compiled ALDA analysis: the immutable compilation plan.
// Instantiate per run with NewRuntime and instrument programs with
// package instrument.
type Analysis struct {
	Info   *sema.Info
	Layout *Layout
	Opts   Options
	Rules  []Rule

	// HandlerIDs maps handler names to their table index.
	HandlerIDs map[string]int

	// Fused lists the fused handlers; HandlerIDs at or beyond
	// len(Info.HandlerOrder) index into this list.
	Fused []FusedSpec

	// NeedShadow reports whether instrumented programs need local
	// metadata (shadow register) tracking.
	NeedShadow bool

	// Externals supplies Go implementations for external function calls;
	// set before NewRuntime.
	Externals map[string]ExternalFn

	// SourceLOC counts non-blank, non-comment source lines (Table 4).
	SourceLOC int

	// Stats records per-stage compile times and decision counts. Times
	// are volatile; counts are deterministic per (source, Options).
	Stats CompileStats

	// The handler backend (stage.go): the staged table for this
	// configuration, or the reason NewRuntime builds closures instead.
	stageKey      string
	staged        stagedFactory
	closureReason string
}

// Compile parses, checks and compiles an ALDA source text.
func Compile(src string, opts Options) (*Analysis, error) {
	t0 := time.Now()
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	parseNS := int64(time.Since(t0))
	traceStage("parse", t0)
	a, err := CompileProgram(prog, opts)
	if err != nil {
		return nil, err
	}
	a.Stats.ParseNS = parseNS
	a.SourceLOC = CountLOC(src)
	return a, nil
}

// CompileProgram compiles a parsed program.
func CompileProgram(prog *ast.Program, opts Options) (*Analysis, error) {
	t := time.Now()
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	semaNS := int64(time.Since(t))
	traceStage("sema", t)

	t = time.Now()
	lay, err := buildLayout(info, opts)
	if err != nil {
		return nil, err
	}
	layoutNS := int64(time.Since(t))
	traceStage("layout", t)
	a := &Analysis{
		Info:       info,
		Layout:     lay,
		Opts:       opts,
		HandlerIDs: make(map[string]int),
		Externals:  make(map[string]ExternalFn),
	}
	for i, h := range info.HandlerOrder {
		a.HandlerIDs[h.Name] = i
	}
	t = time.Now()
	if err := a.lowerRules(); err != nil {
		return nil, err
	}
	if err := a.checkShadowConflicts(); err != nil {
		return nil, err
	}
	lowerNS := int64(time.Since(t))
	traceStage("lower", t)

	var fuseNS int64
	if opts.FuseHandlers {
		t = time.Now()
		a.fuseRules()
		fuseNS = int64(time.Since(t))
		traceStage("fuse", t)
	}

	a.attachStaged(prog)

	coalesced := 0
	for _, g := range lay.Groups {
		if len(g.Members) > 1 {
			coalesced += len(g.Members)
		}
	}
	a.Stats = CompileStats{
		SemaNS: semaNS, LayoutNS: layoutNS,
		LowerNS: lowerNS, FuseNS: fuseNS,
		Groups: len(lay.Groups), Coalesced: coalesced,
		FusedHooks: len(a.Fused), Rules: len(a.Rules),
	}
	return a, nil
}

// checkShadowConflicts rejects combinations where two handlers with
// results attach to the same insertion point: an instruction has one
// shadow register, so the second handler's return value would silently
// overwrite the first's local metadata (e.g. combining MSan's labels
// with taint tracking's taints). The paper's combined analyses never
// include two local-metadata producers; we make the restriction a
// compile error instead of a silent misbehavior.
func (a *Analysis) checkShadowConflicts() error {
	type pointKey struct {
		kind   MatchKind
		callee string
		after  bool
	}
	producers := make(map[pointKey]string)
	for i := range a.Rules {
		r := &a.Rules[i]
		if !r.HasResult {
			continue
		}
		k := pointKey{r.Kind, r.Callee, r.After}
		if prev, dup := producers[k]; dup {
			return fmt.Errorf("compiler: handlers %s and %s both return local metadata at the same insertion point (%s); an instruction has a single shadow register — combine at most one shadow-producing analysis per point",
				prev, r.HandlerName, r.Kind)
		}
		producers[k] = r.HandlerName
	}
	return nil
}

// argKey identifies a call-arg ignoring source position, for fusion
// deduplication.
type argKey struct {
	kind   ast.CallArgKind
	index  int
	meta   bool
	sizeof bool
}

func keyOf(a ast.CallArg) argKey {
	return argKey{kind: a.Kind, index: a.Index, meta: a.Meta, sizeof: a.Sizeof}
}

// fuseRules merges each maximal run of consecutive fusable rules at
// one insertion point into one fused rule, placed at the run's first
// rule. checkShadowConflicts leaves at most one result rule per point,
// and the fused hook returns that part's value. Rules using $p
// (site-dependent expansion) stay standalone. So does a result rule
// whose point has a later rule reading $X.m, together with those
// readers: a fused hook marshals its arguments before its first part
// runs, and a reader must see the shadow register after the result has
// been written to it. A standalone rule ends its point's run, so every
// rule at a point still runs in declaration order.
func (a *Analysis) fuseRules() {
	type pointKey struct {
		kind   MatchKind
		callee string
		after  bool
	}
	resultAt := make(map[pointKey]int)
	standalone := make(map[int]bool)
	for i := range a.Rules {
		r := &a.Rules[i]
		k := pointKey{r.Kind, r.Callee, r.After}
		if ri, ok := resultAt[k]; ok && r.UsesMeta {
			standalone[ri], standalone[i] = true, true
		}
		if r.HasResult {
			resultAt[k] = i
		}
		for _, arg := range r.Args {
			if arg.Kind == ast.ArgAll {
				standalone[i] = true
			}
		}
	}
	var runs [][]int // in order of their first rule
	open := make(map[pointKey]int)
	for i := range a.Rules {
		k := pointKey{a.Rules[i].Kind, a.Rules[i].Callee, a.Rules[i].After}
		if standalone[i] {
			delete(open, k)
			continue
		}
		if ri, ok := open[k]; ok {
			runs[ri] = append(runs[ri], i)
			continue
		}
		open[k] = len(runs)
		runs = append(runs, []int{i})
	}

	replaced := make(map[int]bool)
	fusedByFirst := make(map[int]Rule)
	for _, idxs := range runs {
		if len(idxs) < 2 {
			continue
		}
		var args []ast.CallArg
		seen := make(map[argKey]int)
		spec := FusedSpec{}
		names := make([]string, 0, len(idxs))
		usesMeta := false
		for _, ri := range idxs {
			r := &a.Rules[ri]
			part := FusedPart{HandlerName: r.HandlerName}
			for _, arg := range r.Args {
				key := keyOf(arg)
				pos, ok := seen[key]
				if !ok {
					pos = len(args)
					seen[key] = pos
					args = append(args, arg)
				}
				part.ArgIdx = append(part.ArgIdx, pos)
			}
			if r.UsesMeta {
				usesMeta = true
			}
			if r.HasResult {
				spec.Result = r.HandlerName
			}
			spec.Parts = append(spec.Parts, part)
			names = append(names, r.HandlerName)
			replaced[ri] = true
		}
		spec.Name = "fused(" + strings.Join(names, "+") + ")"
		fusedID := len(a.Info.HandlerOrder) + len(a.Fused)
		a.Fused = append(a.Fused, spec)
		fusedByFirst[idxs[0]] = Rule{
			Kind: a.Rules[idxs[0]].Kind, Callee: a.Rules[idxs[0]].Callee, After: a.Rules[idxs[0]].After,
			HandlerID: fusedID, HandlerName: spec.Name,
			Args: args, HasResult: spec.Result != "", UsesMeta: usesMeta,
		}
	}

	if len(fusedByFirst) == 0 {
		return
	}
	var out []Rule
	for i := range a.Rules {
		if fr, ok := fusedByFirst[i]; ok {
			out = append(out, fr)
			continue
		}
		if replaced[i] {
			continue
		}
		out = append(out, a.Rules[i])
	}
	a.Rules = out
}

func (a *Analysis) lowerRules() error {
	for _, d := range a.Info.Inserts {
		h := a.Info.Handlers[d.Handler]
		r := Rule{
			After:       d.After,
			HandlerID:   a.HandlerIDs[d.Handler],
			HandlerName: d.Handler,
			Args:        d.Args,
			HasResult:   h.Result != nil,
		}
		for _, arg := range d.Args {
			if arg.Meta {
				r.UsesMeta = true
			}
		}
		if d.PointKind == ast.FuncPoint {
			r.Kind = MatchCallee
			r.Callee = d.Point
		} else {
			switch d.Point {
			case "LoadInst":
				r.Kind = MatchLoad
			case "StoreInst":
				r.Kind = MatchStore
			case "AllocaInst":
				r.Kind = MatchAlloca
			case "BranchInst":
				r.Kind = MatchCondBr
			case "CallInst":
				r.Kind = MatchAnyCall
			case "BinOpInst":
				r.Kind = MatchBinOp
			case "CmpInst":
				r.Kind = MatchCmp
			case "LockInst":
				r.Kind = MatchLock
			case "UnlockInst":
				r.Kind = MatchUnlock
			case "SpawnInst":
				r.Kind = MatchSpawn
			case "JoinInst":
				r.Kind = MatchJoin
			case "RetInst":
				r.Kind = MatchRet
			case "ProgramStart":
				r.Kind = MatchProgramStart
			case "ProgramEnd":
				r.Kind = MatchProgramEnd
			default:
				return fmt.Errorf("compiler: unknown insertion point %q", d.Point)
			}
		}
		if r.UsesMeta || r.HasResult {
			a.NeedShadow = true
		}
		a.Rules = append(a.Rules, r)
	}
	return nil
}

// CountLOC counts non-blank, non-comment lines the way Table 4 does.
func CountLOC(src string) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if inBlock {
			if i := strings.Index(s, "*/"); i >= 0 {
				inBlock = false
				s = strings.TrimSpace(s[i+2:])
			} else {
				continue
			}
		}
		if i := strings.Index(s, "//"); i >= 0 {
			s = strings.TrimSpace(s[:i])
		}
		if i := strings.Index(s, "/*"); i >= 0 {
			rest := s[i+2:]
			if !strings.Contains(rest, "*/") {
				inBlock = true
			}
			s = strings.TrimSpace(s[:i])
		}
		if s != "" {
			n++
		}
	}
	return n
}

// Plan renders the compilation plan — the aldaexplain output: the
// handler backend, groups, container choices, shadow factors, entry
// layouts, fused hooks, and per entry of the lowered handler table its
// metadata sites and the lookups CSE saves.
func (a *Analysis) Plan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ALDAcc plan (coalesce=%v cse=%v select=%v granularity=%dB)\n",
		a.Opts.Coalesce, a.Opts.CSE, a.Opts.SmartSelect, a.Opts.Granularity)
	fmt.Fprintf(&b, "handlers: %s\n", a.HandlerBackend())
	for _, g := range a.Layout.Groups {
		key := "<none>"
		if g.KeyType != nil {
			key = g.KeyType.Name
			if g.Key2Type != nil {
				key += "×" + g.Key2Type.Name
			}
		}
		fmt.Fprintf(&b, "group %d: impl=%s key=%s entry=%dB sync=%v", g.ID, g.Impl, key, g.EntryWords*8, g.Sync)
		if g.Impl == ImplShadow || g.Impl == ImplPageTable {
			fmt.Fprintf(&b, " shadow-factor=%.2f", g.ShadowFactor)
		}
		if g.Cold {
			b.WriteString(" cold=per-event")
		}
		b.WriteString("\n")
		for _, m := range g.Members {
			if m.IsSet == 1 {
				fmt.Fprintf(&b, "  %s: set repr=%s domain=%d words=%d off=w%d universe=%v\n",
					m.Meta.Name, m.Repr, m.SetDomain, m.SetWords, m.BitOff/64, m.SetUniv)
			} else {
				fmt.Fprintf(&b, "  %s: scalar width=%d off=b%d signed=%v", m.Meta.Name, m.Width, m.BitOff, m.Signed)
				if len(m.InnerDomains) > 0 {
					fmt.Fprintf(&b, " inner=%v", m.InnerDomains)
				}
				b.WriteString("\n")
			}
		}
	}
	for _, f := range a.Fused {
		names := make([]string, len(f.Parts))
		for i, p := range f.Parts {
			names[i] = p.HandlerName
		}
		fmt.Fprintf(&b, "fused hook: %s (one dispatch, shared lookups and locks", strings.Join(names, " + "))
		if f.Result != "" {
			fmt.Fprintf(&b, "; returns %s's value", f.Result)
		}
		b.WriteString(")\n")
	}
	// One line per entry of the lowered handler table: what runs.
	lhs, err := lowerHandlers(a)
	if err != nil {
		fmt.Fprintf(&b, "handler table: %v\n", err)
	}
	for _, lh := range lhs {
		if lh != nil {
			fmt.Fprintf(&b, "handler %s: %d access sites, %d lookups saved by CSE+coalescing\n", lh.name, lh.sites, lh.saved)
		}
	}
	return b.String()
}
