package compiler_test

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/workloads"
)

// Presence queries (map.has) and range reads must not depend on the
// container the layout picked: both programs below once reported 17
// sites on fft wherever the map was shadow- or array-backed and none
// where it was hash-backed (naive).
var presenceRegressions = map[string]string{
	// The shadow and page-table Peek answered "the chunk exists".
	"has-on-shadow": `
address := pointer
val := int64
m = map(address, val)
onStore(address p) { m[p] = 1; }
onLoad(address p) { alda_assert(m.has(p + 65536), 0, "phantom key"); }
insert before StoreInst call onStore($2)
insert after LoadInst call onLoad($1)
`,
	// ArrayMap.RangeOr marked the keys it read as live.
	"range-get-on-array": `
tid := threadid : 64
val := int64
m = map(tid, val)
onLoad(tid t) {
    alda_assert(m.get(t, 2), 0);
    alda_assert(m.has(t + 1), 0, "range read materialized a key");
}
insert after LoadInst call onLoad($t)
`,
}

func TestPresenceIsContainerIndependent(t *testing.T) {
	prog, err := workloads.Build("fft", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range presenceRegressions {
		t.Run(name, func(t *testing.T) {
			for _, c := range compiler.AblationMatrix() {
				a, err := compiler.Compile(src, c.Opts)
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				res, err := core.RunAnalysis(prog, a, core.RunOptions{Seed: 1})
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				if n := len(res.Reports); n != 0 {
					t.Errorf("%s: %d report sites, want 0 (the naive hash-map verdict): %v", c.Name, n, res.Reports[0])
				}
			}
		})
	}
}
