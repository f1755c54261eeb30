package vm

import "fmt"

// Engine selects a Machine's execution tier. Both tiers execute the
// identical abstract machine — same instruction semantics, same
// scheduler quantum stream, same observability counters, same fault
// clocks — and differ only in how dispatch is paid for: EngineInterp
// decodes one instruction per switch iteration, while EngineThreaded
// pre-binds each basic block into chains of closures
// (superinstructions) when the machine starts. Conformance asserts the
// two tiers are byte-identical in everything observable; perf shows
// they are not in wall time.
//
// Recording and replay are not tiers: they are input sources of the
// interpreter loop (Config.TraceSink, Config.Replay), and a replaying
// machine runs that loop whatever its Engine says.
type Engine uint8

const (
	// EngineInterp is the switch-dispatch interpreter, the default.
	EngineInterp Engine = iota
	// EngineThreaded executes closure-threaded code built at Start:
	// runs of pure register instructions become compact micro-ops
	// retired by a lean loop with batched step accounting, and
	// side-effecting instructions become pre-bound closures with their
	// operands, handler functions and library models resolved once.
	EngineThreaded
)

var engineNames = [...]string{"interp", "threaded"}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine maps the CLI spelling to an Engine. The empty string is
// the default tier, so flag plumbing can pass values through untouched.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "interp":
		return EngineInterp, nil
	case "threaded":
		return EngineThreaded, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want interp or threaded)", s)
}
