package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/obs"
)

// Config sizes the server. Zero fields take the documented defaults.
type Config struct {
	// Shards is the number of worker-pool shards. Jobs are placed by
	// compile fingerprint (analysis × options), so jobs sharing a
	// cached compiled analysis colocate on one shard and keep its
	// caches warm. Default 4.
	Shards int
	// WorkersPerShard is the goroutine count per shard. Default 1.
	WorkersPerShard int
	// QueueDepth bounds each shard's admission queue: a burst beyond
	// workers+queue is rejected with 429 + Retry-After instead of
	// growing an unbounded backlog. Default 64.
	QueueDepth int
	// TenantInflight caps one tenant's queued+running jobs; excess is
	// 429'd so a single hot tenant cannot starve the rest. 0 means the
	// default (16); negative disables the cap.
	TenantInflight int
	// JournalPath enables the write-ahead job journal (empty = no
	// durability).
	JournalPath string
	// JournalSyncEvery batches journal fsyncs (default 1 = every
	// record, the full-durability setting).
	JournalSyncEvery int
	// JournalFaults injects deterministic journal I/O failures (chaos
	// testing).
	JournalFaults JournalFaults
	// AdaptAfter enables the adaptive-PGO loop: each compile-affinity
	// key profiles its first AdaptAfter completed jobs, then hot-swaps
	// to a profile-adapted recompile for every later job (see adapt.go).
	// 0 disables adaptation (every job runs the static build).
	AdaptAfter int
	// ProfileSampleEvery keeps the profile stream alive after a key's
	// swap: every Nth post-swap job re-runs the profile-collecting build
	// (verdict-identical by the adaptive conformance axis), feeding the
	// rolling profile window and the drift gauge. 0 takes the default
	// (16) when adaptation is on; negative disables post-swap sampling.
	ProfileSampleEvery int
	// ProfileWindow is how many recent per-job profiles the rolling
	// window holds per compile-affinity key. Default 8.
	ProfileWindow int
	// SpanCap bounds the lifecycle span store (oldest trace evicted
	// whole beyond it). Default 1024.
	SpanCap int
	// FlightRing is the per-worker-shard flight-recorder ring size.
	// Default 256.
	FlightRing int
	// FlightSnapshotPath, when set, is where the flight recorder
	// auto-dumps (once) when the journal degrades — chaos faults
	// included — so a failed soak leaves a post-mortem behind.
	FlightSnapshotPath string
	// SLOWall is the wall-clock latency objective per job; completions
	// slower than it count into serve.slo.jobs_over_deadline_total.
	// 0 takes the default (1s); negative disables the counter.
	SLOWall time.Duration
	// Limits are the per-job resource budgets; zero fields take
	// DefaultLimits.
	Limits Limits
	// Metrics receives service counters and per-job deterministic VM
	// counters (nil = a private registry, still served on /metrics).
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantInflight == 0 {
		c.TenantInflight = 16
	}
	if c.JournalSyncEvery <= 0 {
		c.JournalSyncEvery = 1
	}
	if c.ProfileSampleEvery == 0 {
		c.ProfileSampleEvery = 16
	}
	if c.ProfileWindow <= 0 {
		c.ProfileWindow = 8
	}
	if c.SpanCap <= 0 {
		c.SpanCap = 1024
	}
	if c.FlightRing <= 0 {
		c.FlightRing = 256
	}
	if c.SLOWall == 0 {
		c.SLOWall = time.Second
	}
	def := DefaultLimits()
	if c.Limits.DefaultMaxSteps == 0 {
		c.Limits.DefaultMaxSteps = def.DefaultMaxSteps
	}
	if c.Limits.MaxMaxSteps == 0 {
		c.Limits.MaxMaxSteps = def.MaxMaxSteps
	}
	if c.Limits.DefaultMaxHeap == 0 {
		c.Limits.DefaultMaxHeap = def.DefaultMaxHeap
	}
	if c.Limits.MaxMaxHeap == 0 {
		c.Limits.MaxMaxHeap = def.MaxMaxHeap
	}
	if c.Limits.DefaultDeadline == 0 {
		c.Limits.DefaultDeadline = def.DefaultDeadline
	}
	if c.Limits.MaxDeadline == 0 {
		c.Limits.MaxDeadline = def.MaxDeadline
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// fingerprint guards the journal: results are a function of the
// journal version and the budget limits (a job that failed HeapLimit
// under one cap might succeed under another), so a journal written
// under different limits must not be replayed.
func (c Config) fingerprint() string {
	l := c.Limits
	fp := fmt.Sprintf("serve-v%d steps=%d/%d heap=%d/%d deadline=%s/%s",
		journalVersion, l.DefaultMaxSteps, l.MaxMaxSteps,
		l.DefaultMaxHeap, l.MaxMaxHeap, l.DefaultDeadline, l.MaxDeadline)
	// Adaptation epochs are journaled, so a journal written with the
	// adaptive loop enabled must not replay into a server that would
	// ignore (or differently schedule) those records. Appending only
	// when enabled keeps existing non-adaptive journals valid.
	if c.AdaptAfter > 0 {
		fp += fmt.Sprintf(" adapt=%d", c.AdaptAfter)
	}
	return fp
}

// job is one accepted job's server-side state.
type job struct {
	id    string
	seq   uint64
	trace string
	req   JobRequest
	mu    sync.Mutex
	stat  JobStatus
	done  chan struct{} // closed at terminal state
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stat
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.stat.State = state
	j.mu.Unlock()
}

// finish records the terminal status. Waiters wake only when runJob
// closes j.done, after the status is journaled and counted.
func (j *job) finish(res *JobResult, jerr *JobError) JobStatus {
	j.mu.Lock()
	if jerr != nil {
		j.stat.State = StateFailed
		j.stat.Error = jerr
	} else {
		j.stat.State = StateDone
		j.stat.Result = res
	}
	out := j.stat
	j.mu.Unlock()
	return out
}

// shard is one slice of the worker pool: a bounded queue plus a
// semaphore bounding queued+running occupancy, sized so that a job
// holding a token always has a queue slot — admission that wins a
// token never blocks on the send.
type shard struct {
	queue  chan *job
	tokens chan struct{}
}

// Server is the aldaserve core: admission, sharded execution,
// journaling, drain. Construct with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	journal *Journal
	spans   *obs.SpanStore
	flight  *obs.FlightRecorder

	snapOnce sync.Once // one auto flight snapshot per process life

	mu      sync.Mutex // jobs, seq, tenants
	jobs    map[string]*job
	seq     uint64
	tenants map[string]int

	sendMu   sync.RWMutex // guards draining + queue sends
	draining bool
	drainCh  chan struct{}
	drainOne sync.Once

	shards []*shard
	wg     sync.WaitGroup

	adaptMu     sync.Mutex // adaptive-PGO loop state (adapt.go)
	adaptStates map[string]*keyAdaptState

	cacheMu                             sync.Mutex // counter delta export for /metrics
	lastHits, lastMisses, lastEvictions uint64
	lastJournalAppends, lastJournalErrs uint64
}

// New builds a server, replays its journal (if configured), starts the
// worker pool, and re-enqueues every journaled-but-unfinished job.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Metrics,
		spans:       obs.NewSpanStore(cfg.SpanCap),
		flight:      obs.NewFlightRecorder(cfg.Shards, cfg.FlightRing),
		jobs:        map[string]*job{},
		tenants:     map[string]int{},
		adaptStates: map[string]*keyAdaptState{},
		drainCh:     make(chan struct{}),
	}
	var recovered *Recovered
	if cfg.JournalPath != "" {
		var err error
		s.journal, recovered, err = OpenJournal(cfg.JournalPath, cfg.fingerprint(), cfg.JournalSyncEvery, cfg.JournalFaults)
		if err != nil {
			return nil, err
		}
	}
	cap := cfg.QueueDepth + cfg.WorkersPerShard
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{queue: make(chan *job, cap), tokens: make(chan struct{}, cap)}
		s.shards = append(s.shards, sh)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			s.wg.Add(1)
			go s.worker(i, sh)
		}
	}
	if recovered != nil {
		s.replay(recovered)
	}
	return s, nil
}

// replay restores journaled terminal jobs and re-enqueues unfinished
// accepts. Unfinished jobs were admitted before the crash, so they
// bypass admission control (blocking token acquisition in a background
// goroutine) — a restart must never 429 work it already promised.
func (s *Server) replay(rec *Recovered) {
	// Adaptation epochs first: a re-enqueued job whose key swapped
	// before the crash must run the adapted analysis, exactly as it
	// would have.
	if s.cfg.AdaptAfter > 0 {
		s.replayAdapt(rec.Adapt)
	}
	s.mu.Lock()
	s.seq = rec.MaxSeq
	for id, st := range rec.Done {
		j := &job{id: id, trace: st.TraceID, stat: *st, done: make(chan struct{})}
		close(j.done)
		s.jobs[id] = j
	}
	var pending []*job
	for _, a := range rec.Unfinished {
		// The trace ID rides the accept record; journals predating the
		// tid field re-mint it from the sequence number, which by
		// construction yields the same ID the original admission minted.
		tid := a.Tid
		if tid == "" {
			tid = obs.MintTraceID(a.Seq)
		}
		j := &job{
			id: a.ID, seq: a.Seq, trace: tid, req: *a.Req,
			stat: JobStatus{ID: a.ID, TraceID: tid, Tenant: a.Req.Tenant, State: StateQueued},
			done: make(chan struct{}),
		}
		s.jobs[a.ID] = j
		s.tenants[a.Req.Tenant]++
		pending = append(pending, j)
	}
	s.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	s.reg.Add("serve.jobs.recovered", uint64(len(pending)))
	go func() {
		for _, j := range pending {
			// A recovered job keeps its identity: its chain restarts with
			// a "recovered" span instead of "accepted", which is how a
			// post-mortem tells a re-run from a first run.
			s.spans.Append(j.trace, "recovered", 0, 0)
			s.flight.Record(s.flight.ControlShard(),
				obs.FlightEvent{Trace: j.trace, Stage: "recovered", Detail: j.id})
			sh := s.shards[s.shardOf(&j.req)]
			select {
			case sh.tokens <- struct{}{}:
			case <-s.drainCh:
				return // still journaled as unfinished; the next restart gets it
			}
			s.sendMu.RLock()
			if s.draining {
				s.sendMu.RUnlock()
				return
			}
			s.spans.Append(j.trace, "queued", 0, 0)
			sh.queue <- j
			s.sendMu.RUnlock()
		}
	}()
}

// shardOf places a job by compile fingerprint so cache-affine jobs
// colocate.
func (s *Server) shardOf(req *JobRequest) int {
	h := fnv.New32a()
	h.Write([]byte(req.fingerprintKey()))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// worker drains one shard's queue until Shutdown closes it.
func (s *Server) worker(shIdx int, sh *shard) {
	defer s.wg.Done()
	for j := range sh.queue {
		s.runJob(shIdx, j)
		<-sh.tokens
	}
}

// runJob executes one job, journals the terminal status, records its
// lifecycle spans and latency histograms, folds the run's counters into
// the registry, and only then wakes the job's waiters.
func (s *Server) runJob(shIdx int, j *job) {
	j.setState(StateRunning)
	var shard *obs.Shard
	if s.reg != nil {
		shard = obs.NewShard()
	}
	start := time.Now()
	// onStage records one pipeline stage three ways: the span store
	// (structure deterministic, wall volatile), the shard's flight ring,
	// and the per-stage wall-latency histogram. Stage *sequence* is a
	// pure function of the request; only the wall numbers vary.
	prev := start
	onStage := func(stage string, virtual uint64) {
		now := time.Now()
		stageUS := now.Sub(prev).Microseconds()
		prev = now
		s.spans.Append(j.trace, stage, virtual, stageUS)
		s.flight.Record(shIdx, obs.FlightEvent{
			Trace: j.trace, Stage: stage, Virtual: virtual, WallUS: stageUS,
		})
		s.reg.ObserveVolatile("serve.latency.wall_us.stage."+stage, uint64(stageUS))
	}
	var res *JobResult
	var jerr *JobError
	if s.cfg.AdaptAfter > 0 {
		res, jerr = s.runAdaptive(j, shard, onStage)
	} else {
		res, jerr = ExecuteObserved(&j.req, s.cfg.Limits, shard, nil, onStage)
	}
	wall := time.Since(start)

	status := j.finish(res, jerr)
	if s.journal != nil {
		if err := s.journal.AppendDone(&status); err != nil {
			s.reg.AddVolatile("serve.journal.errors", 1)
			s.autoFlightSnapshot("journal-degraded")
		} else {
			onStage("journaled", 0)
		}
	}
	s.mu.Lock()
	s.tenants[j.req.Tenant]--
	if s.tenants[j.req.Tenant] <= 0 {
		delete(s.tenants, j.req.Tenant)
	}
	s.mu.Unlock()

	if jerr != nil {
		onStage("error", 0)
		s.reg.Add("serve.jobs.failed."+jerr.Kind, 1)
	} else {
		onStage("done", res.Virtual)
		s.reg.Add("serve.jobs.completed", 1)
		// Virtual job latency is deterministic — it belongs in the
		// deterministic histogram family, alongside the counters.
		s.reg.Observe("serve.latency.virtual.job", res.Virtual)
		s.reg.MergeShard(shard)
	}
	s.reg.Add("serve.jobs.by_analysis."+j.req.Analysis, 1)
	s.reg.AddVolatile("serve.job_wall_ns", uint64(wall))
	wallUS := uint64(wall.Microseconds())
	s.reg.ObserveVolatile("serve.latency.wall_us.job", wallUS)
	tenant := j.req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	s.reg.ObserveVolatile("serve.latency.wall_us.tenant."+tenant, wallUS)
	if s.cfg.SLOWall > 0 && wall > s.cfg.SLOWall {
		s.reg.AddVolatile("serve.slo.jobs_over_deadline_total", 1)
	}
	// A waiter that wakes now finds the job journaled (or the journal
	// degraded and the flight snapshot written) and counted.
	close(j.done)
}

// autoFlightSnapshot dumps the flight recorder to the configured path,
// once per process life — fired on the first journal degradation
// (chaos-injected faults included) so the post-mortem captures the ring
// state nearest the failure.
func (s *Server) autoFlightSnapshot(reason string) {
	s.flight.Record(s.flight.ControlShard(), obs.FlightEvent{Stage: reason})
	if s.cfg.FlightSnapshotPath == "" {
		return
	}
	s.snapOnce.Do(func() {
		if err := s.flight.SnapshotToFile(s.cfg.FlightSnapshotPath, reason); err != nil {
			s.reg.AddVolatile("serve.flight.snapshot_errors", 1)
		} else {
			s.reg.AddVolatile("serve.flight.snapshots", 1)
		}
	})
}

// accept admits one validated request: tenant cap, shard token,
// journal, enqueue. Returns the queued job or a typed rejection.
func (s *Server) accept(req *JobRequest) (*job, int, *JobError) {
	shIdx := s.shardOf(req)
	sh := s.shards[shIdx]

	// Per-tenant in-flight cap first: a busy tenant must not consume
	// queue tokens other tenants could use.
	if s.cfg.TenantInflight > 0 {
		s.mu.Lock()
		busy := s.tenants[req.Tenant] >= s.cfg.TenantInflight
		s.mu.Unlock()
		if busy {
			s.reg.AddVolatile("serve.rejected.tenant_cap", 1)
			return nil, http.StatusTooManyRequests,
				&JobError{Kind: "TenantBusy", Message: fmt.Sprintf("tenant %q at in-flight cap %d", req.Tenant, s.cfg.TenantInflight), Retryable: true}
		}
	}
	// Bounded queue: win a shard token or be backpressured.
	select {
	case sh.tokens <- struct{}{}:
	default:
		s.reg.AddVolatile("serve.rejected.queue_full", 1)
		return nil, http.StatusTooManyRequests,
			&JobError{Kind: "QueueFull", Message: fmt.Sprintf("shard %d queue full", shIdx), Retryable: true}
	}

	s.mu.Lock()
	s.seq++
	j := &job{
		id: fmt.Sprintf("j%d", s.seq), seq: s.seq,
		trace: obs.MintTraceID(s.seq), req: *req,
		done: make(chan struct{}),
	}
	j.stat = JobStatus{ID: j.id, TraceID: j.trace, Tenant: req.Tenant, State: StateQueued}
	s.jobs[j.id] = j
	s.tenants[req.Tenant]++
	s.mu.Unlock()
	s.spans.Append(j.trace, "accepted", 0, 0)

	// Write-ahead: the accept record reaches the journal (fsynced)
	// before the client sees 202. A journal failure degrades
	// durability, not availability.
	if s.journal != nil {
		if err := s.journal.AppendAccept(j.seq, j.id, j.trace, &j.req); err != nil {
			s.reg.AddVolatile("serve.journal.errors", 1)
			s.autoFlightSnapshot("journal-degraded")
		}
	}

	s.sendMu.RLock()
	if s.draining {
		// Lost the race with Shutdown: undo the admission.
		s.sendMu.RUnlock()
		<-sh.tokens
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.tenants[req.Tenant]--
		if s.tenants[req.Tenant] <= 0 {
			delete(s.tenants, req.Tenant)
		}
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable,
			&JobError{Kind: "Draining", Message: "server is draining", Retryable: true}
	}
	// The "queued" span lands before the enqueue: once the job is in the
	// channel a worker may already be running it, and stage order within
	// a trace must stay deterministic.
	s.spans.Append(j.trace, "queued", 0, 0)
	sh.queue <- j // token held ⇒ never blocks
	s.sendMu.RUnlock()

	s.reg.Add("serve.jobs.accepted", 1)
	return j, http.StatusAccepted, nil
}

// lookup returns a job by ID.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	return s.draining
}

// Shutdown gracefully drains the server: stop accepting, finish every
// queued and running job, flush and close the journal. If ctx expires
// first, the remaining jobs stay journaled as unfinished — a restart
// with the same journal picks them up (that is the "checkpoint
// in-flight" half of the drain contract) — and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.sendMu.Lock()
		s.draining = true
		close(s.drainCh)
		for _, sh := range s.shards {
			close(sh.queue)
		}
		s.sendMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.journal != nil {
			if err := s.journal.Close(); err != nil {
				return fmt.Errorf("closing journal: %w", err)
			}
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain interrupted: %w", ctx.Err())
	}
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// errorBody is the non-job error envelope (bad request, not found,
// draining, backpressure).
type errorBody struct {
	Error *JobError `json:"error"`
}

// Handler mounts the service API:
//
//	POST /v1/jobs        submit (202, or 400/429/503 typed errors);
//	                     ?wait=1 blocks until terminal and returns 200
//	GET  /v1/jobs/{id}   status/result; ?wait=1 blocks until terminal
//	GET  /healthz        process liveness
//	GET  /readyz         accepting? 200 ("ok" or "degraded: journal") / 503 draining
//	GET  /metrics        obs registry: JSON by default, Prometheus text
//	                     exposition with Accept: text/plain or ?format=prom
//	GET  /debug/flight   flight-recorder ring dump (JSON)
//	GET  /debug/spans    lifecycle span store dump (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.timed("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.timed("get", s.handleGet))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.timed("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /debug/spans", s.handleSpans)
	return mux
}

// timed wraps a handler with the per-endpoint wall-latency histogram.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.reg.ObserveVolatile("serve.latency.wall_us.endpoint."+endpoint,
			uint64(time.Since(start).Microseconds()))
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{&JobError{Kind: "Draining", Message: "server is draining", Retryable: true}})
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	if err := dec.Decode(&req); err != nil {
		s.reg.AddVolatile("serve.rejected.invalid", 1)
		writeJSON(w, http.StatusBadRequest,
			errorBody{&JobError{Kind: "BadRequest", Message: err.Error()}})
		return
	}
	if err := req.Validate(); err != nil {
		s.reg.AddVolatile("serve.rejected.invalid", 1)
		writeJSON(w, http.StatusBadRequest,
			errorBody{&JobError{Kind: "BadRequest", Message: err.Error()}})
		return
	}
	j, code, jerr := s.accept(&req)
	if jerr != nil {
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, errorBody{jerr})
		return
	}
	w.Header().Set("X-Alda-Trace-Id", j.trace)
	if r.URL.Query().Get("wait") != "" {
		s.waitAndReply(w, r, j)
		return
	}
	writeJSON(w, code, j.snapshot())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{&JobError{Kind: "NotFound", Message: "no such job"}})
		return
	}
	w.Header().Set("X-Alda-Trace-Id", j.trace)
	if r.URL.Query().Get("wait") != "" {
		s.waitAndReply(w, r, j)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// waitAndReply blocks until the job is terminal (or the client goes
// away) and replies with the final status.
func (s *Server) waitAndReply(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, j.snapshot())
	case <-r.Context().Done():
		writeJSON(w, http.StatusOK, j.snapshot()) // best effort: current state
	}
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	if s.journal != nil && s.journal.Degraded() {
		w.Write([]byte("degraded: journal\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// scrapeCaches folds the process-wide compile-cache and journal deltas
// in as volatile counters (they are shared across servers in one
// process, hence not deterministic per server). The delta-state update
// and the registry writes commit under one cacheMu critical section, so
// two concurrent scrapes — or a scrape racing a compile — can never
// observe a delta applied against the wrong epoch's baseline.
func (s *Server) scrapeCaches() {
	hits, misses, evicts := compiler.CompileCacheStats()
	s.cacheMu.Lock()
	dh, dm, de := hits-s.lastHits, misses-s.lastMisses, evicts-s.lastEvictions
	s.lastHits, s.lastMisses, s.lastEvictions = hits, misses, evicts
	s.reg.AddVolatile("compiler.cache.hits", dh)
	s.reg.AddVolatile("compiler.cache.misses", dm)
	s.reg.AddVolatile("compiler.cache.evictions", de)
	if s.journal != nil {
		appends, errs := s.journal.Stats()
		da, de2 := appends-s.lastJournalAppends, errs-s.lastJournalErrs
		s.lastJournalAppends, s.lastJournalErrs = appends, errs
		s.reg.AddVolatile("serve.journal.appends", da)
		s.reg.AddVolatile("serve.journal.append_errors", de2)
	}
	s.cacheMu.Unlock()
}

// scrapeGauges refreshes the point-in-time levels: per-shard queue
// depth and in-flight occupancy, per-tenant in-flight counts, and the
// live span count. Tenant gauges are cleared first so departed tenants
// don't linger as stale series.
func (s *Server) scrapeGauges() {
	for i, sh := range s.shards {
		s.reg.SetGauge(fmt.Sprintf("serve.queue.depth.%d", i), int64(len(sh.queue)))
		s.reg.SetGauge(fmt.Sprintf("serve.inflight.%d", i), int64(len(sh.tokens)))
	}
	s.reg.ClearGauges("serve.tenant.inflight.")
	s.mu.Lock()
	for t, n := range s.tenants {
		name := t
		if name == "" {
			name = "anonymous"
		}
		s.reg.SetGauge("serve.tenant.inflight."+name, int64(n))
	}
	s.mu.Unlock()
	s.reg.SetGauge("serve.spans.live", int64(s.spans.Len()))
}

// promRules maps the registry's dotted families onto labeled Prometheus
// metrics: error kinds, analysis names, shards, tenants and pipeline
// stages become labels without the hot path ever recording a label pair.
func promRules() []obs.PromRule {
	return []obs.PromRule{
		{Prefix: "serve.jobs.failed.", Metric: "alda_serve_jobs_failed_total", Label: "kind"},
		{Prefix: "serve.jobs.by_analysis.", Metric: "alda_serve_jobs_by_analysis_total", Label: "analysis"},
		{Prefix: "serve.rejected.", Metric: "alda_serve_rejected_total", Label: "reason"},
		{Prefix: "serve.queue.depth.", Metric: "alda_serve_queue_depth", Label: "shard"},
		{Prefix: "serve.inflight.", Metric: "alda_serve_inflight", Label: "shard"},
		{Prefix: "serve.tenant.inflight.", Metric: "alda_serve_tenant_inflight", Label: "tenant"},
		{Prefix: "serve.latency.wall_us.stage.", Metric: "alda_serve_stage_wall_us", Label: "stage"},
		{Prefix: "serve.latency.wall_us.endpoint.", Metric: "alda_serve_endpoint_wall_us", Label: "endpoint"},
		{Prefix: "serve.latency.wall_us.tenant.", Metric: "alda_serve_tenant_wall_us", Label: "tenant"},
		{Prefix: "serve.profile.window.", Metric: "alda_serve_profile_window", Label: "member"},
		{Prefix: "serve.adapt.drift_permille.", Metric: "alda_serve_profile_drift_permille", Label: "key"},
		{Prefix: "profile.member.", Metric: "alda_profile_member_total", Label: "member"},
	}
}

// handleMetrics serves the registry in two formats: the PR-5 JSON dump
// (the default, wire-compatible with every existing scraper and smoke
// script) or the Prometheus text exposition when the client asks for
// text/plain (or forces ?format=prom|json).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapeCaches()
	s.scrapeGauges()
	s.scrapeAdapt()
	format := r.URL.Query().Get("format")
	wantProm := format == "prom" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain"))
	if wantProm {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WriteProm(w, true, promRules()...)
		return
	}
	s.reg.WriteJSON(w, true)
}

// handleFlight dumps the flight-recorder rings.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteSnapshot(w, "debug")
}

// handleSpans dumps the lifecycle span store (volatile wall times
// included; pass ?volatile=0 for the deterministic structure only).
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.spans.WriteJSON(w, r.URL.Query().Get("volatile") != "0")
}

// Spans exposes the span store's snapshot (for tests and tooling).
func (s *Server) Spans(includeVolatile bool) []obs.TraceExport {
	return s.spans.Snapshot(includeVolatile)
}

// FlightSnapshot exposes the flight recorder's current rings.
func (s *Server) FlightSnapshot(reason string) obs.FlightSnapshot {
	return s.flight.Snapshot(reason)
}

// SnapshotFlightTo dumps the flight recorder to a file — the SIGQUIT
// hook in cmd/aldaserve.
func (s *Server) SnapshotFlightTo(path, reason string) error {
	return s.flight.SnapshotToFile(path, reason)
}
