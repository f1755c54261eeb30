package serve

import (
	"fmt"
	"hash/fnv"

	"repro/internal/compiler"
	"repro/internal/obs"
)

// Adaptive PGO in the serving tier: with Config.AdaptAfter = N, each
// compile-affinity key (analysis × options — the same key jobs shard
// by) spends its first N completed jobs as a profiling quantum. Those
// jobs run the ProfileCollect build of the analysis, their per-member
// access counters are harvested from the job's metrics shard, and once
// N profiles have merged the key hot-swaps: the profile folds through
// compiler.AdaptOptions into a profile-fingerprinted recompile that
// every later job with the key runs.
//
// Verdict safety is structural — adaptation re-selects containers and
// splits cold members but never changes what the analysis computes, so
// a job's JobResult (exit, reports, steps, hooks, virtual time) is
// byte-identical whether it ran before, during or after the swap. The
// recovery tests pin exactly that.
//
// Durability: the swap is journaled as an "adapt" record carrying the
// merged counts and the adaptation epoch. Recovery replays the record
// (last epoch per key wins) through the same pure AdaptOptions pass,
// so a restarted server runs the identical adapted analysis without
// re-profiling. A crash during the profiling quantum simply restarts
// the quantum — profiles steer performance, never verdicts, so nothing
// observable is lost.

// keyAdaptState is one compile-affinity key's position in the adaptive
// loop. Guarded by Server.adaptMu.
type keyAdaptState struct {
	profiled int               // completed profiling jobs so far
	counts   map[string]uint64 // merged per-member access counts
	epoch    int               // 0 = still profiling; >0 = swapped
	adapted  *compiler.Options // options every post-swap job compiles under

	// Rolling profile window: the last ProfileWindow per-job profiles
	// (quantum jobs plus every sampled post-swap job), summed for the
	// /metrics rolling-profile export and compared against the profile
	// that drove the swap for the drift gauge.
	window    []map[string]uint64
	windowSum map[string]uint64
	sampled   int // post-swap completions, for the sampling cadence
}

// keyLabel is the short stable label a compile-affinity key exports
// under (the raw key embeds the full options fingerprint — too long for
// a metric label, stable enough to hash).
func keyLabel(key string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	return fmt.Sprintf("k%08x", h.Sum32())
}

// pushWindow folds one job's profile into the key's rolling window,
// evicting the oldest entry beyond the bound. Caller holds adaptMu.
func (st *keyAdaptState) pushWindow(prof map[string]uint64, bound int) {
	if len(prof) == 0 {
		return
	}
	if st.windowSum == nil {
		st.windowSum = map[string]uint64{}
	}
	if len(st.window) >= bound {
		old := st.window[0]
		st.window = st.window[1:]
		for k, v := range old {
			st.windowSum[k] -= v
			if st.windowSum[k] == 0 {
				delete(st.windowSum, k)
			}
		}
	}
	st.window = append(st.window, prof)
	for k, v := range prof {
		st.windowSum[k] += v
	}
}

// driftPermille is the total-variation distance between the profile
// that drove the swap and the rolling window, in permille: 0 means the
// traffic still looks exactly like the profile the adapted build was
// selected for, 1000 means completely disjoint hot sets.
func driftPermille(base, window map[string]uint64) int64 {
	var baseTot, winTot uint64
	for _, v := range base {
		baseTot += v
	}
	for _, v := range window {
		winTot += v
	}
	if baseTot == 0 || winTot == 0 {
		return 0
	}
	var tv float64
	keys := map[string]struct{}{}
	for k := range base {
		keys[k] = struct{}{}
	}
	for k := range window {
		keys[k] = struct{}{}
	}
	for k := range keys {
		pb := float64(base[k]) / float64(baseTot)
		pw := float64(window[k]) / float64(winTot)
		if pb > pw {
			tv += pb - pw
		} else {
			tv += pw - pb
		}
	}
	return int64(tv / 2 * 1000)
}

// adaptStateFor returns (creating if needed) the key's adapt state.
func (s *Server) adaptStateFor(key string) *keyAdaptState {
	s.adaptMu.Lock()
	defer s.adaptMu.Unlock()
	st := s.adaptStates[key]
	if st == nil {
		st = &keyAdaptState{counts: map[string]uint64{}}
		s.adaptStates[key] = st
	}
	return st
}

// runAdaptive executes one job under the adaptive loop: adapted options
// after the swap, profile-collecting options during the quantum. Only
// successful jobs advance the quantum — a trapped or budget-killed run
// yields a partial profile of unknowable coverage, and the quantum is
// cheap enough to wait for clean ones.
//
// After the swap the profile stream stays alive: every Nth post-swap
// job (Config.ProfileSampleEvery) re-runs the ProfileCollect build —
// safe because the adaptive conformance axis proves profiling builds
// verdict- and result-identical — and its profile refreshes the rolling
// window and the drift gauge, so a shifted workload is visible on
// /metrics before anyone re-tunes.
func (s *Server) runAdaptive(j *job, shard *obs.Shard, onStage StageObserver) (*JobResult, *JobError) {
	key := j.req.fingerprintKey()
	st := s.adaptStateFor(key)

	s.adaptMu.Lock()
	adapted := st.adapted
	var sampleThis bool
	if adapted != nil {
		st.sampled++
		sampleThis = s.cfg.ProfileSampleEvery > 0 && st.sampled%s.cfg.ProfileSampleEvery == 0
	}
	s.adaptMu.Unlock()

	if adapted != nil && !sampleThis {
		return ExecuteObserved(&j.req, s.cfg.Limits, shard, adapted, onStage)
	}

	// Profiling run: either the quantum, or a post-swap sample.
	popts := compiler.DefaultOptions()
	popts.ProfileCollect = true
	if shard == nil {
		shard = obs.NewShard() // the profile rides the metrics shard
	}
	res, jerr := ExecuteObserved(&j.req, s.cfg.Limits, shard, &popts, onStage)
	if jerr != nil {
		return res, jerr
	}
	prof := compiler.ProfileFromCounts(shard.Counts)

	s.adaptMu.Lock()
	defer s.adaptMu.Unlock()
	if adapted != nil || st.adapted != nil {
		// Post-swap sample, or a quantum run that lost the swap race to
		// a concurrent worker (harmless either way — the result is
		// identical). Feed the rolling window and refresh drift.
		st.pushWindow(prof.Counts, s.cfg.ProfileWindow)
		if adapted != nil {
			s.reg.AddVolatile("serve.adapt.sampled", 1)
			drift := driftPermille(st.counts, st.windowSum)
			s.reg.SetGauge("serve.adapt.drift_permille."+keyLabel(key), drift)
		}
		return res, jerr
	}
	for k, v := range prof.Counts {
		st.counts[k] += v
	}
	st.pushWindow(prof.Counts, s.cfg.ProfileWindow)
	st.profiled++
	s.reg.Add("serve.adapt.profiled", 1)
	if st.profiled < s.cfg.AdaptAfter {
		return res, jerr
	}

	ares := compiler.DefaultOptions().AdaptOptions(&compiler.Profile{Counts: st.counts})
	st.epoch++
	st.adapted = &ares.Opts
	if ares.Changed {
		s.reg.Add("serve.adapt.swaps", 1)
	} else {
		s.reg.Add("serve.adapt.static_kept", 1)
	}
	// The swap epoch is itself a trace: its span chain and flight event
	// make adaptation decisions first-class citizens of a post-mortem.
	atid := fmt.Sprintf("adapt-%s-e%d", keyLabel(key), st.epoch)
	s.spans.Append(atid, "swap-decided", uint64(st.profiled), 0)
	s.flight.Record(s.flight.ControlShard(),
		obs.FlightEvent{Trace: atid, Stage: "adapt-swap", Detail: key})
	// Journal the swap before any job runs under it: recovery must
	// land on the same analysis, not re-enter the quantum.
	if s.journal != nil {
		if err := s.journal.AppendAdapt(key, st.epoch, st.counts); err != nil {
			s.reg.AddVolatile("serve.journal.errors", 1)
			s.autoFlightSnapshot("journal-degraded")
		} else {
			s.spans.Append(atid, "journaled", 0, 0)
		}
	}
	return res, jerr
}

// scrapeAdapt refreshes the rolling-profile and drift exports at scrape
// time: the per-member window sums (aggregated across keys) become
// serve.profile.window.* gauges, cleared first so cooled-off members
// drop out.
func (s *Server) scrapeAdapt() {
	if s.cfg.AdaptAfter <= 0 {
		return
	}
	totals := map[string]uint64{}
	s.adaptMu.Lock()
	for _, st := range s.adaptStates {
		for k, v := range st.windowSum {
			totals[k] += v
		}
	}
	s.adaptMu.Unlock()
	s.reg.ClearGauges("serve.profile.window.")
	for name, v := range totals {
		s.reg.SetGauge("serve.profile.window."+name, int64(v))
	}
}

// replayAdapt restores journaled adaptation epochs: the same pure
// profile→options pass the live swap ran, so the recovered server
// compiles the identical adapted analysis. Runs before any recovered
// job is re-enqueued.
func (s *Server) replayAdapt(records map[string]journalRecord) {
	if len(records) == 0 {
		return
	}
	s.adaptMu.Lock()
	for key, rec := range records {
		ares := compiler.DefaultOptions().AdaptOptions(&compiler.Profile{Counts: rec.Counts})
		s.adaptStates[key] = &keyAdaptState{
			profiled: s.cfg.AdaptAfter,
			counts:   rec.Counts,
			epoch:    rec.Epoch,
			adapted:  &ares.Opts,
		}
	}
	n := uint64(len(s.adaptStates))
	s.adaptMu.Unlock()
	s.reg.Add("serve.adapt.recovered", n)
}
