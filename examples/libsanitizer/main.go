// libsanitizer demonstrates §6.4.1's headline capability: building a
// niche, library-specific sanitizer in minutes. Here we write
// "HeapSan", an allocator-contract checker (double free, free of a
// never-allocated pointer, leak-at-exit) in ~30 lines of ALDA, and run
// it against the memcached workload plus a purpose-built offender.
package main

import (
	_ "embed"
	"fmt"
	"log"

	alda "repro"
	"repro/internal/mir"
	"repro/internal/workloads"
)

//go:embed heapsan.alda
var heapSanSource string

// offender builds a program with a double free and a leak.
func offender() *alda.Program {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	a := b.Call("malloc", mir.C(32))
	b.Store(mir.R(a), mir.C(7), 8)
	b.CallVoid("free", mir.R(a))
	b.CallVoid("free", mir.R(a)) // double free
	leak := b.Call("malloc", mir.C(128))
	b.Store(mir.R(leak), mir.C(9), 8) // never freed
	b.RetVal(mir.C(0))
	return p
}

// check runs HeapSan on prog and fails unless it reports want findings.
func check(an *alda.Analysis, name string, prog *alda.Program, want int) {
	inst, err := an.Instrument(prog)
	if err != nil {
		log.Fatal(err)
	}
	res, err := alda.Run(inst, an, alda.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d finding(s)\n", name, len(res.Reports))
	for _, r := range res.Reports {
		fmt.Printf("  %v\n", r)
	}
	if len(res.Reports) != want {
		log.Fatalf("%s: %d finding(s), want %d", name, len(res.Reports), want)
	}
}

func main() {
	an, err := alda.Compile(heapSanSource, alda.DefaultOptions())
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	fmt.Printf("HeapSan is %d lines of ALDA\n\n", an.LOC())

	check(an, "offender", offender(), 2)

	// A disciplined real program stays clean.
	mc, err := workloads.Build("memcached", workloads.SizeTiny)
	if err != nil {
		log.Fatal(err)
	}
	check(an, "memcached (clean)", mc, 0)

	// The same program with its use-after-free bug keeps HeapSan quiet
	// (freed properly!) — different sanitizers catch different contracts.
	mcUAF, err := workloads.BuildBug("memcached", workloads.SizeTiny, workloads.BugUAF)
	if err != nil {
		log.Fatal(err)
	}
	check(an, "memcached (uaf variant)", mcUAF, 0)
}
