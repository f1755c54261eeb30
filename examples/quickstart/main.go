// Quickstart: write a use-after-free checker in ALDA, weave it into a
// small program, and run it — the whole Figure 1 workflow in ~60 lines.
package main

import (
	_ "embed"
	"fmt"
	"log"

	alda "repro"
	"repro/internal/mir"
)

// The analysis: mark freed granules, assert on touch (a compact version
// of the paper's use-after-free example from §3.1.1).
//
//go:embed uaf.alda
var uafSource string

// buildProgram constructs the analyzed program in MIR (the repository's
// LLVM-IR stand-in): allocate, use, free — then use again.
func buildProgram() *alda.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	buf := b.Call("malloc", mir.C(64))
	b.Loop(mir.C(8), func(i mir.Reg) {
		off := b.Mul(mir.R(i), mir.C(8))
		addr := b.Add(mir.R(buf), mir.R(off))
		b.Store(mir.R(addr), mir.R(i), 8)
	})
	b.CallVoid("free", mir.R(buf))
	b.Store(mir.R(buf), mir.C(99), 8) // the bug
	b.RetVal(mir.C(0))
	return p
}

func main() {
	an, err := alda.Compile(uafSource, alda.DefaultOptions())
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	fmt.Printf("compiled %d-line analysis; compilation plan:\n%s\n", an.LOC(), an.Plan())

	prog := buildProgram()
	instrumented, err := an.Instrument(prog)
	if err != nil {
		log.Fatalf("instrument: %v", err)
	}

	res, err := alda.Run(instrumented, an, alda.RunConfig{})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	fmt.Printf("executed %d instructions, %d analysis events\n", res.Steps, res.HookCalls)
	for _, r := range res.Reports {
		fmt.Println("finding:", r)
	}
	if len(res.Reports) == 0 {
		log.Fatal("no findings, but this program has a use-after-free")
	}
}
