package harness

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAttribRowSplit pins the counter-based overhead split on synthetic
// cells. Shards hold counts summed over every run of a cell, as the
// harness accumulates them.
func TestAttribRowSplit(t *testing.T) {
	catOf := map[string]string{"on_load": "mem", "on_malloc": "alloc"}
	cell := func(wall time.Duration, runs, steps, loads, mallocs uint64) cellResult {
		sh := obs.NewShard()
		sh.Add("vm.steps", steps*runs)
		if loads != 0 {
			sh.Add("vm.hook.on_load.calls", loads*runs)
		}
		if mallocs != 0 {
			sh.Add("vm.hook.on_malloc.calls", mallocs*runs)
		}
		return cellResult{wall: wall, shard: sh, runs: runs}
	}
	for _, tc := range []struct {
		name           string
		plain, inst    cellResult
		hook, dispatch time.Duration
		mem, alloc     float64
	}{
		{
			// 200,000 inserted steps at the plain run's 10 ns per step.
			name:     "wall",
			plain:    cell(10*time.Millisecond, 4, 1_000_000, 0, 0),
			inst:     cell(30*time.Millisecond, 6, 1_200_000, 150_000, 50_000),
			hook:     18 * time.Millisecond,
			dispatch: 2 * time.Millisecond,
			mem:      75,
			alloc:    25,
		},
		{
			// Virtual time: a plain step costs one unit, so the hooks
			// get exactly 16 units per dispatch.
			name:     "virtual",
			plain:    cell(195_865, 1, 195_865, 0, 0),
			inst:     cell(1_540_803, 1, 274_979, 79_114, 0),
			hook:     16 * 79_114,
			dispatch: 79_114,
			mem:      100,
		},
		{
			// Noise left the delta below the residual: all of it is
			// dispatch.
			name:     "residual-exceeds-delta",
			plain:    cell(10*time.Millisecond, 2, 1_000_000, 0, 0),
			inst:     cell(11*time.Millisecond, 2, 1_200_000, 1, 1),
			dispatch: time.Millisecond,
			mem:      50,
			alloc:    50,
		},
		{
			name:  "faster-than-plain",
			plain: cell(10*time.Millisecond, 2, 1_000_000, 0, 0),
			inst:  cell(9*time.Millisecond, 2, 1_200_000, 0, 3),
			alloc: 100,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := attribRow("p", tc.plain, tc.inst, catOf)
			if row.Hook != tc.hook || row.Dispatch != tc.dispatch {
				t.Errorf("hooks %v dispatch %v, want %v and %v", row.Hook, row.Dispatch, tc.hook, tc.dispatch)
			}
			if mem, alloc := row.Shares[attribCatIndex("mem")], row.Shares[attribCatIndex("alloc")]; mem != tc.mem || alloc != tc.alloc {
				t.Errorf("mem %v%% alloc %v%%, want %v%% and %v%%", mem, alloc, tc.mem, tc.alloc)
			}
		})
	}
}
