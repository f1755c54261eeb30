package compiler

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/meta"
	"repro/internal/obs"
)

// traceSink is the process-wide destination for compile-stage trace
// spans. Compilation is a process-level activity — the compile cache
// lets one compile serve many harness cells — so stage spans cannot
// ride a per-cell config; the CLI installs the sink once at startup.
var traceSink atomic.Pointer[obs.Trace]

// SetTraceSink routes compile-stage spans to t; nil disables emission.
func SetTraceSink(t *obs.Trace) { traceSink.Store(t) }

// traceStage emits a span for a compile stage that began at start.
func traceStage(name string, start time.Time) {
	if t := traceSink.Load(); t != nil {
		t.Span("compiler", name, 0, start, time.Since(start))
	}
}

// CompileStats records per-stage wall times and the headline decision
// counts of one compilation. Times are volatile (host-dependent);
// decision counts are deterministic for a given (source, Options).
type CompileStats struct {
	ParseNS int64
	SemaNS  int64
	// AccessNS is always 0: no separate access pass runs. The field
	// stays while figbench reports it as compiler.access_ms.
	AccessNS int64
	LayoutNS int64
	LowerNS  int64
	FuseNS   int64

	Groups     int // metadata groups after coalescing
	Coalesced  int // members living in multi-member groups
	FusedHooks int
	Rules      int // insertion rules after fusion
}

// HandlerNames returns handler display names indexed by HandlerID:
// declared handlers in declaration order, then fused hooks.
func (a *Analysis) HandlerNames() []string {
	out := make([]string, 0, len(a.Info.HandlerOrder)+len(a.Fused))
	for _, h := range a.Info.HandlerOrder {
		out = append(out, h.Name)
	}
	for _, f := range a.Fused {
		out = append(out, f.Name)
	}
	return out
}

// categoryOf buckets an insertion rule by the program-event family it
// hooks; the overhead-attribution report aggregates hook cost by these.
func categoryOf(r *Rule) string {
	switch r.Kind {
	case MatchLoad, MatchStore:
		return "mem"
	case MatchAlloca:
		return "alloc"
	case MatchCallee:
		switch r.Callee {
		case "malloc", "calloc", "realloc", "free":
			return "alloc"
		}
		return "call"
	case MatchAnyCall:
		return "call"
	case MatchLock, MatchUnlock, MatchSpawn, MatchJoin:
		return "sync"
	case MatchCondBr, MatchCmp, MatchBinOp:
		return "ctrl"
	case MatchRet, MatchProgramStart, MatchProgramEnd:
		return "life"
	}
	return "other"
}

// HookCategories returns, indexed by HandlerID, the event category each
// handler attaches to ("mem", "alloc", "sync", "call", "ctrl", "life");
// a handler attached at points in different categories is "mixed", and
// a handler with no surviving rule (e.g. absorbed into a fused hook) is
// "other".
func (a *Analysis) HookCategories() []string {
	cats := make([]string, len(a.Info.HandlerOrder)+len(a.Fused))
	for i := range a.Rules {
		r := &a.Rules[i]
		c := categoryOf(r)
		if cur := cats[r.HandlerID]; cur == "" {
			cats[r.HandlerID] = c
		} else if cur != c {
			cats[r.HandlerID] = "mixed"
		}
	}
	for i, c := range cats {
		if c == "" {
			cats[i] = "other"
		}
	}
	return cats
}

// GroupTraffic is one keyed container's operation counters, labeled so
// metrics keys stay meaningful: g<id>.<impl>.<member>+<member>...
type GroupTraffic struct {
	Label string
	Stats meta.Stats
}

// GroupTraffic reports per-container operation counters for the
// runtime's keyed groups (globals have no container traffic).
func (rt *Runtime) GroupTraffic() []GroupTraffic {
	var out []GroupTraffic
	for _, gs := range rt.groups {
		if gs.g.Impl == ImplGlobal {
			continue
		}
		out = append(out, GroupTraffic{
			Label: fmt.Sprintf("g%d.%s.%s", gs.g.ID, gs.g.Impl, strings.Join(gs.g.MemberNames(), "+")),
			Stats: gs.c.Stats(),
		})
	}
	return out
}
