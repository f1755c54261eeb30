// Command stagegen regenerates the staged handler table from the
// shipped analyses (internal/analyses/*.alda). Run it from the
// repository root, as `make staged` does:
//
//	go run ./internal/analyses/stagegen internal/compiler/staged_handlers.go
package main

import (
	"fmt"
	"os"

	"repro/internal/analyses"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: stagegen <output.go>")
		os.Exit(2)
	}
	src, err := analyses.StagedSource()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stagegen:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(os.Args[1], src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "stagegen:", err)
		os.Exit(1)
	}
}
