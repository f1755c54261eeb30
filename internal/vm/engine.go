package vm

import "fmt"

// Engine names a VM execution tier. The VM has one: the
// switch-dispatch interpreter in exec.go.
//
// Deprecated: the closure-threaded tier was removed. Engine,
// EngineInterp, EngineThreaded and Config.Engine remain only because
// the figbench module (its --engine flag) still compiles against them;
// New rejects every value but EngineInterp. They go when figbench
// drops the flag.
type Engine uint8

const (
	// EngineInterp is the interpreter, the zero value.
	//
	// Deprecated: see Engine.
	EngineInterp Engine = iota
	// EngineThreaded named the removed closure-threaded tier. New
	// rejects it.
	//
	// Deprecated: see Engine.
	EngineThreaded
)

var engineNames = [...]string{"interp", "threaded"}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}
