package harness

import (
	"time"
)

// A cell whose run fails with the retryable kind (vm.KindDeadline, the
// one load-dependent kind) runs again once. Cells that a shared stall
// failed together would collide again if they retried together, so
// each waits its own time first, drawn from a seed of its identity.

// retrySplitmix is SplitMix64, the same mixer internal/vm/faults uses:
// cheap, stateless, and well distributed even for adjacent inputs.
func retrySplitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// cellRetrySeed derives the jitter seed for one cell from its identity,
// so the wait is deterministic per cell but decorrelated across cells.
func cellRetrySeed(grid, cell string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, s := range []string{grid, "/", cell} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return retrySplitmix(h)
}

// retryWait returns the wait before a cell's retry: equal jitter on
// 100 ms, so it lands in [50, 100] ms, at the point seed selects.
func retryWait(seed uint64) time.Duration {
	const half = 50 * time.Millisecond
	return half + time.Duration(seed%uint64(half+1))
}
