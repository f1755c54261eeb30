package harness

import (
	"time"
)

// Retry scheduling for retryable cell failures (vm.KindDeadline). A
// fleet of cells retrying in lockstep after a shared stall re-collides
// on every attempt, and an uncapped schedule can hold a sweep hostage
// to one flapping cell. The policy here prevents both: exponential
// growth capped per-wait, equal-jitter decorrelation drawn from a
// deterministic per-cell seed, and a hard budget on total time spent
// waiting.

// The sweep's retry schedule: the first wait, the cap on one wait, and
// the cap on one cell's total waiting.
const (
	retryBackoff    = 100 * time.Millisecond
	retryMaxBackoff = 2 * time.Second
	retryBudget     = 30 * time.Second
)

// retryPolicy computes the wait schedule for one cell's retries. The
// schedule is a pure function of the policy, so tests assert it without
// sleeping.
type retryPolicy struct {
	// Base is the pre-jitter wait before the first retry; it doubles
	// per attempt.
	Base time.Duration
	// Max caps a single pre-jitter wait (0 = uncapped).
	Max time.Duration
	// Budget caps the total time spent waiting across all of one
	// cell's retries (0 = uncapped).
	Budget time.Duration
	// Seed decorrelates concurrent cells' schedules. The same seed
	// yields the identical schedule — retries stay reproducible.
	Seed uint64
}

// retrySplitmix is SplitMix64, the same mixer internal/vm/faults uses:
// cheap, stateless, and well distributed even for adjacent inputs.
func retrySplitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// delay returns the wait before retry try (0-based), given the total
// wait already spent on this cell. ok=false means the schedule is
// exhausted: the budget would be exceeded, so the caller should give up
// and surface the last error. Jitter is "equal jitter": the wait lands
// uniformly in [d/2, d] for pre-jitter wait d, keeping a floor under
// the backoff while spreading colliding retries apart.
func (p retryPolicy) delay(try int, spent time.Duration) (d time.Duration, ok bool) {
	d = p.Base
	// Shift with saturation: beyond 62 doublings any Duration overflows.
	for i := 0; i < try && i < 62; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			break
		}
		if d < 0 { // overflow
			d = 1 << 62
			break
		}
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if half := d / 2; half > 0 {
		span := uint64(half) + 1
		d = half + time.Duration(retrySplitmix(p.Seed+uint64(try))%span)
	}
	if p.Budget > 0 && spent+d > p.Budget {
		return 0, false
	}
	return d, true
}

// cellRetrySeed derives the jitter seed for one cell from its identity,
// so the schedule is deterministic per cell but decorrelated across
// cells.
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

// retrySleep is the clock seam for the deterministic retry tests;
// production always sleeps for real.
var retrySleep = time.Sleep
