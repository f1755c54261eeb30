package compiler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/format"
	"strconv"
	"strings"

	"repro/internal/lang/ast"
	"repro/internal/lang/printer"
	"repro/internal/lang/sema"
	"repro/internal/vm"
)

// Ahead-of-time staged handlers. Every configuration the experiments
// run (the variants package analyses lists) has its handler table
// printed to Go by the Go-text emitter and checked in
// (staged_handlers.go, regenerated by `make staged`). Compile computes
// a key from everything the lowering consumes and looks it up;
// NewRuntime then instantiates the staged table instead of building
// closures. Everything without an entry — runtime-supplied sources,
// configurations no experiment runs — keeps the closure emitter.

// stagedFactory instantiates a staged handler table on a runtime whose
// containers NewRuntime has already built.
type stagedFactory func(rt *Runtime) []vm.HandlerFn

// TestForceClosures is a test-only hook: while set, Compile attaches no
// staged table, so the analyses it compiles run on the closure emitter
// even at staged configurations — the reference leg of the
// staged-vs-closures conformance check. Never set outside tests.
var TestForceClosures bool

// Closure-backend reasons reported by HandlerBackend.
const (
	reasonNoEntry = "no staged entry"
	reasonForced  = "forced by test"
)

// stageKey digests what the lowering consumes: the canonical printed
// program (so source formatting and comments do not matter), the full
// layout including entry templates, and the switches the walk reads
// directly.
func stageKey(prog *ast.Program, lay *Layout, o Options) string {
	b := append(make([]byte, 0, 4096), printer.Print(prog)...)
	b = append(b, 0)
	for _, f := range []bool{o.CSE, o.FuseHandlers, o.SmartSelect} {
		b = strconv.AppendBool(b, f)
	}
	b = strconv.AppendInt(b, bitSetMaxBytes, 10)
	num := func(vs ...uint64) {
		for _, v := range vs {
			b = strconv.AppendUint(append(b, ' '), v, 10)
		}
	}
	for _, g := range lay.Groups {
		b = append(b, '\n', 'g')
		num(uint64(g.ID), uint64(g.Impl), uint64(g.AddrShift), g.MaxKeys, uint64(g.EntryWords), b2u(g.Sync), b2u(g.Cold))
		num(g.Template...)
		for _, t := range []*sema.Type{g.KeyType, g.Key2Type} {
			if t != nil {
				b = append(append(b, " k "...), t.Name...)
				num(uint64(t.Prim), uint64(t.Domain))
			}
		}
		for _, m := range g.Members {
			b = append(append(b, "\n m "...), m.Meta.Name...)
			num(uint64(m.BitOff), uint64(m.Width), b2u(m.Signed), b2u(m.UnivInit), uint64(m.IsSet), uint64(m.Repr),
				uint64(m.SetWords), uint64(m.SetDomain), b2u(m.SetUniv), uint64(len(m.InnerDomains)))
			for i, d := range m.InnerDomains {
				num(uint64(d), uint64(m.InnerStride[i]))
			}
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// attachStaged decides the handler backend of a freshly compiled
// analysis.
func (a *Analysis) attachStaged(prog *ast.Program) {
	a.stageKey = stageKey(prog, a.Layout, a.Opts)
	switch f := stagedTable[a.stageKey]; {
	case TestForceClosures:
		a.closureReason = reasonForced
	case f != nil:
		a.staged = f
	default:
		a.closureReason = reasonNoEntry
	}
}

// HandlerBackend names the backend NewRuntime uses for this analysis:
// "staged (<key>)" or "closures (<reason>)".
func (a *Analysis) HandlerBackend() string {
	if a.staged != nil {
		return "staged (" + a.stageKey + ")"
	}
	return "closures (" + a.closureReason + ")"
}

// Staged reports whether NewRuntime instantiates checked-in staged
// handlers for this analysis.
func (a *Analysis) Staged() bool { return a.staged != nil }

// StageUnit is one configuration of the staged table: a compiled
// analysis and the Go identifier its factory gets.
type StageUnit struct {
	Func     string
	Comment  string
	Analysis *Analysis
}

// StagedSource prints the staged handler table for units as a gofmt'ed
// Go file of package compiler.
func StagedSource(generator string, units []StageUnit) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by %s; DO NOT EDIT.\n\n", generator)
	b.WriteString("package compiler\n\n")
	b.WriteString("import (\n\t\"repro/internal/meta\"\n\t\"repro/internal/vm\"\n)\n\n")
	b.WriteString("// stagedTable maps stage keys to the checked-in handler tables.\n")
	b.WriteString("var stagedTable = map[string]stagedFactory{\n")
	seen := make(map[string]string)
	for _, u := range units {
		key := u.Analysis.stageKey
		if key == "" {
			return nil, fmt.Errorf("compiler: %s: %s builds are not staged", u.Func, u.Analysis.closureReason)
		}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("compiler: staged units %s and %s share key %s", prev, u.Func, key)
		}
		seen[key] = u.Func
		fmt.Fprintf(&b, "%q: %s, // %s\n", key, u.Func, u.Comment)
	}
	b.WriteString("}\n")
	for _, u := range units {
		src, err := u.Analysis.goSource(u.Func)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "\n// %s stages %s.\n%s", u.Func, strings.TrimSpace(u.Comment), src)
	}
	out, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("compiler: staged source does not parse: %w", err)
	}
	return out, nil
}
