package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/obs"
)

// Config sizes the server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the number of goroutines draining the one admission
	// queue. Every job compiles through the process-wide compile cache
	// and runs on a private VM, so any worker serves any job equally
	// well. Default 4.
	Workers int
	// QueueDepth bounds the admission queue: a burst beyond
	// Workers+QueueDepth jobs is rejected with 429 + Retry-After instead
	// of growing an unbounded backlog. Default 256.
	QueueDepth int
	// TenantInflight caps one tenant's queued+running jobs; excess is
	// 429'd so a single hot tenant cannot starve the rest. 0 means the
	// default (16); negative disables the cap.
	TenantInflight int
	// JournalPath enables the write-ahead job journal (empty = no
	// durability).
	JournalPath string
	// JournalFaults injects deterministic journal I/O failures (chaos
	// testing).
	JournalFaults JournalFaults
	// FlightRing is the event capacity of the flight recorder's job
	// ring, the one bound on the server's event log; the control ring
	// holds 16 events. Default obs.DefaultFlightRing (6,144): 1,024
	// six-stage job chains, whatever the traffic mix.
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
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TenantInflight == 0 {
		c.TenantInflight = 16
	}
	if c.FlightRing <= 0 {
		c.FlightRing = obs.DefaultFlightRing
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
	return fmt.Sprintf("serve-v%d steps=%d/%d heap=%d/%d deadline=%s/%s",
		journalVersion, l.DefaultMaxSteps, l.MaxMaxSteps,
		l.DefaultMaxHeap, l.MaxMaxHeap, l.DefaultDeadline, l.MaxDeadline)
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

// Server is the aldaserve core: admission, execution on a worker pool,
// journaling, drain. Construct with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	journal *Journal
	flight  *obs.FlightRecorder // the event log: flight dump and span view

	snapOnce sync.Once // one auto flight snapshot per process life

	mu      sync.Mutex // jobs, seq, tenants
	jobs    map[string]*job
	seq     uint64
	tenants map[string]int

	sendMu   sync.RWMutex // guards draining + queue sends
	draining bool
	drainCh  chan struct{}
	drainOne sync.Once

	// queue is the one admission queue, drained by cfg.Workers
	// goroutines. tokens bounds queued+running occupancy and is sized
	// like queue, so a job holding a token always has a queue slot:
	// admission that wins a token never blocks on the send.
	queue  chan *job
	tokens chan struct{}
	wg     sync.WaitGroup

	cacheMu                             sync.Mutex // counter delta export for /metrics
	lastHits, lastMisses, lastEvictions uint64
	lastJournalAppends, lastJournalErrs uint64
}

// New builds a server, replays its journal (if configured), starts the
// worker pool, and re-enqueues every journaled-but-unfinished job.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Metrics,
		flight:  obs.NewFlightRecorder(cfg.FlightRing),
		jobs:    map[string]*job{},
		tenants: map[string]int{},
		drainCh: make(chan struct{}),
	}
	var recovered *Recovered
	if cfg.JournalPath != "" {
		var err error
		s.journal, recovered, err = OpenJournal(cfg.JournalPath, cfg.fingerprint(), cfg.JournalFaults)
		if err != nil {
			return nil, err
		}
	}
	slots := cfg.QueueDepth + cfg.Workers
	s.queue = make(chan *job, slots)
	s.tokens = make(chan struct{}, slots)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
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
			s.flight.Record(obs.JobRing, obs.FlightEvent{Trace: j.trace, Stage: "recovered", Detail: j.id})
			select {
			case s.tokens <- struct{}{}:
			case <-s.drainCh:
				return // still journaled as unfinished; the next restart gets it
			}
			s.sendMu.RLock()
			if s.draining {
				s.sendMu.RUnlock()
				return
			}
			s.flight.Record(obs.JobRing, obs.FlightEvent{Trace: j.trace, Stage: "queued"})
			s.queue <- j
			s.sendMu.RUnlock()
		}
	}()
}

// worker drains the admission queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
		<-s.tokens
	}
}

// runJob executes one job, journals the terminal status, records its
// lifecycle spans and latency histograms, folds the run's counters into
// the registry, and only then wakes the job's waiters.
func (s *Server) runJob(j *job) {
	j.setState(StateRunning)
	var shard *obs.Shard
	if s.reg != nil {
		shard = obs.NewShard()
	}
	start := time.Now()
	// onStage records one pipeline stage in the job ring (structure
	// deterministic, wall volatile) and in the per-stage
	// wall-latency histogram. Stage *sequence* is a pure function of the
	// request; only the wall numbers vary.
	prev := start
	onStage := func(stage string, virtual uint64) {
		now := time.Now()
		stageUS := now.Sub(prev).Microseconds()
		prev = now
		s.flight.Record(obs.JobRing, obs.FlightEvent{
			Trace: j.trace, Stage: stage, Virtual: virtual, WallUS: stageUS,
		})
		s.reg.ObserveVolatile("serve.latency.wall_us.stage."+stage, uint64(stageUS))
	}
	res, jerr := ExecuteObserved(&j.req, s.cfg.Limits, shard, onStage)
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
	s.releaseTenant(j.req.Tenant)

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
	s.flight.Record(obs.ControlRing, obs.FlightEvent{Stage: reason})
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

// accept admits one validated request: tenant reservation, queue
// token, journal, enqueue. Returns the queued job or a typed rejection.
func (s *Server) accept(req *JobRequest) (*job, int, *JobError) {
	// Per-tenant in-flight cap first, checked and reserved in one
	// critical section so concurrent submits from one tenant cannot all
	// pass the check; a busy tenant must not consume queue tokens other
	// tenants could use.
	s.mu.Lock()
	if s.cfg.TenantInflight > 0 && s.tenants[req.Tenant] >= s.cfg.TenantInflight {
		s.mu.Unlock()
		s.reg.AddVolatile("serve.rejected.tenant_cap", 1)
		return nil, http.StatusTooManyRequests,
			&JobError{Kind: "TenantBusy", Message: fmt.Sprintf("tenant %q at in-flight cap %d", req.Tenant, s.cfg.TenantInflight), Retryable: true}
	}
	s.tenants[req.Tenant]++
	s.mu.Unlock()
	// Bounded queue: win a token or be backpressured.
	select {
	case s.tokens <- struct{}{}:
	default:
		s.releaseTenant(req.Tenant)
		s.reg.AddVolatile("serve.rejected.queue_full", 1)
		return nil, http.StatusTooManyRequests,
			&JobError{Kind: "QueueFull", Message: "admission queue full", Retryable: true}
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
	s.mu.Unlock()
	s.flight.Record(obs.JobRing, obs.FlightEvent{Trace: j.trace, Stage: "accepted"})

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
		<-s.tokens
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		s.releaseTenant(req.Tenant)
		return nil, http.StatusServiceUnavailable,
			&JobError{Kind: "Draining", Message: "server is draining", Retryable: true}
	}
	// The "queued" span lands before the enqueue: once the job is in the
	// channel a worker may already be running it, and stage order within
	// a trace must stay deterministic.
	s.flight.Record(obs.JobRing, obs.FlightEvent{Trace: j.trace, Stage: "queued"})
	s.queue <- j // token held ⇒ never blocks
	s.sendMu.RUnlock()

	s.reg.Add("serve.jobs.accepted", 1)
	return j, http.StatusAccepted, nil
}

// releaseTenant returns one of the tenant's in-flight reservations.
func (s *Server) releaseTenant(tenant string) {
	s.mu.Lock()
	s.tenants[tenant]--
	if s.tenants[tenant] <= 0 {
		delete(s.tenants, tenant)
	}
	s.mu.Unlock()
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
		close(s.queue)
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
//	GET  /debug/spans    the same events grouped by trace (JSON)
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

// scrapeGauges refreshes the point-in-time levels: queue depth and
// queued+running occupancy, per-tenant in-flight counts, and the
// number of live traces, which the flight recorder keeps at record time
// so a scrape never copies the job ring. Tenant gauges are cleared first
// so departed tenants don't linger as stale series.
func (s *Server) scrapeGauges() {
	s.reg.SetGauge("serve.queue.depth", int64(len(s.queue)))
	s.reg.SetGauge("serve.inflight", int64(len(s.tokens)))
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
	s.reg.SetGauge("serve.spans.live", int64(s.flight.LiveTraces()))
}

// promRules maps the registry's dotted families onto labeled Prometheus
// metrics: error kinds, analysis names, tenants and pipeline stages
// become labels without the hot path ever recording a label pair.
func promRules() []obs.PromRule {
	return []obs.PromRule{
		{Prefix: "serve.jobs.failed.", Metric: "alda_serve_jobs_failed_total", Label: "kind"},
		{Prefix: "serve.jobs.by_analysis.", Metric: "alda_serve_jobs_by_analysis_total", Label: "analysis"},
		{Prefix: "serve.rejected.", Metric: "alda_serve_rejected_total", Label: "reason"},
		{Prefix: "serve.tenant.inflight.", Metric: "alda_serve_tenant_inflight", Label: "tenant"},
		{Prefix: "serve.latency.wall_us.stage.", Metric: "alda_serve_stage_wall_us", Label: "stage"},
		{Prefix: "serve.latency.wall_us.endpoint.", Metric: "alda_serve_endpoint_wall_us", Label: "endpoint"},
		{Prefix: "serve.latency.wall_us.tenant.", Metric: "alda_serve_tenant_wall_us", Label: "tenant"},
	}
}

// handleMetrics serves the registry in two formats: the PR-5 JSON dump
// (the default, wire-compatible with every existing scraper and smoke
// script) or the Prometheus text exposition when the client asks for
// text/plain (or forces ?format=prom|json).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapeCaches()
	s.scrapeGauges()
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

// handleFlight dumps the flight recorder's two rings.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteSnapshot(w, "debug")
}

// handleSpans dumps the span view (volatile wall times included; pass
// ?volatile=0 for the deterministic structure only).
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Spans(r.URL.Query().Get("volatile") != "0"))
}

// Spans is the span view of the flight recorder: each job's stage
// chain, sorted by trace ID.
func (s *Server) Spans(includeVolatile bool) []obs.TraceExport {
	return s.flight.Traces(includeVolatile)
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
