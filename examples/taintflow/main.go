// taintflow demonstrates local-metadata propagation (§5.5): index taint
// tracking marks bytes read from input as tainted, the VM propagates
// taint through arithmetic on shadow registers automatically, and the
// analysis reports when a tainted value becomes a memory address.
package main

import (
	"fmt"
	"log"

	alda "repro"
	"repro/internal/analyses"
	"repro/internal/mir"
	"repro/internal/workloads"
)

// handRolled builds a program where input flows through arithmetic into
// an array index — three hops from source to sink.
func handRolled() *alda.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	table := b.Call("malloc", mir.C(256*8))
	b.Loop(mir.C(256), func(i mir.Reg) {
		off := b.Mul(mir.R(i), mir.C(8))
		a := b.Add(mir.R(table), mir.R(off))
		b.Store(mir.R(a), mir.R(i), 8)
	})
	in := b.Call("malloc", mir.C(32))
	g := b.Call("gets", mir.R(in))
	c0 := b.Load(mir.R(g), 1) // tainted byte
	// Arithmetic laundering does not clear taint:
	x1 := b.Mul(mir.R(c0), mir.C(3))
	x2 := b.Add(mir.R(x1), mir.C(5))
	x3 := b.Bin(mir.OpAnd, mir.R(x2), mir.C(255))
	off := b.Mul(mir.R(x3), mir.C(8))
	addr := b.Add(mir.R(table), mir.R(off)) // tainted address
	v := b.Load(mir.R(addr), 8)             // sink
	b.CallVoid("print_i64", mir.R(v))
	b.CallVoid("free", mir.R(table))
	b.CallVoid("free", mir.R(in))
	b.RetVal(mir.C(0))
	return p
}

func main() {
	an, err := alda.Compile(analyses.MustSource("tainttrack"), alda.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		prog *alda.Program
		want int // findings
	}{
		{"hand-rolled source->arith->index flow", handRolled(), 1},
		{"ffmpeg with injected input-controlled index", mustBuild("ffmpeg", workloads.BugTaint), 1},
		{"ffmpeg clean", mustBuild("ffmpeg", workloads.BugNone), 0},
	} {
		inst, err := an.Instrument(tc.prog)
		if err != nil {
			log.Fatal(err)
		}
		res, err := alda.Run(inst, an, alda.RunConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d finding(s)\n", tc.name, len(res.Reports))
		for _, r := range res.Reports {
			fmt.Printf("  %v\n", r)
		}
		if len(res.Reports) != tc.want {
			log.Fatalf("%s: %d finding(s), want %d", tc.name, len(res.Reports), tc.want)
		}
	}
}

func mustBuild(name string, bug workloads.Bug) *alda.Program {
	p, err := workloads.BuildBug(name, workloads.SizeTiny, bug)
	if err != nil {
		log.Fatal(err)
	}
	return p
}
