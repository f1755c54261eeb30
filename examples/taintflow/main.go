// taintflow demonstrates local-metadata propagation (§5.5): index taint
// tracking marks bytes read from input as tainted, the VM propagates
// taint through arithmetic on shadow registers automatically, and the
// analysis reports when a tainted value becomes a memory address.
package main

import (
	"fmt"
	"log"
	"strings"

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
		reports := findings(an, tc.prog)
		fmt.Printf("%s: %d finding(s)\n", tc.name, len(reports))
		for _, r := range reports {
			fmt.Printf("  %v\n", r)
		}
		if len(reports) != tc.want {
			log.Fatalf("%s: %d finding(s), want %d", tc.name, len(reports), tc.want)
		}
	}

	// The same flow under the Figure 5 combination, where the load
	// handler fuses with Eraser's and FastTrack's into one hook that
	// returns the loaded value's taint.
	src, err := analyses.Combined(analyses.Fig5Combination...)
	if err != nil {
		log.Fatal(err)
	}
	comb, err := alda.Compile(src, alda.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for name, fn := range analyses.FastTrackExternals() {
		comb.RegisterExternal(name, fn)
	}
	want, got := sites(findings(an, handRolled())), sites(findings(comb, handRolled()))
	fmt.Printf("hand-rolled flow under %v: %s\n", analyses.Fig5Combination, got)
	if got != want {
		log.Fatalf("the combination reports %q, tainttrack alone %q", got, want)
	}
}

func findings(an *alda.Analysis, prog *alda.Program) []*alda.Report {
	inst, err := an.Instrument(prog)
	if err != nil {
		log.Fatal(err)
	}
	res, err := alda.Run(inst, an, alda.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	return res.Reports
}

// sites lists the findings by message and block: the pc within a block
// shifts with the number of hooks instrumentation inserts.
func sites(reports []*alda.Report) string {
	var out []string
	for _, r := range reports {
		out = append(out, fmt.Sprintf("%s at %s block %d", r.Message, r.Fn, r.Block))
	}
	return strings.Join(out, "; ")
}

func mustBuild(name string, bug workloads.Bug) *alda.Program {
	p, err := workloads.BuildBug(name, workloads.SizeTiny, bug)
	if err != nil {
		log.Fatal(err)
	}
	return p
}
