// Command aldaserve runs the analysis-as-a-service daemon: the one-shot
// aldabench machinery behind a long-lived HTTP/JSON job API.
//
// Usage:
//
//	aldaserve -addr :8080 -journal jobs.jsonl
//	aldaserve -addr :8080 -workers 4 -queue-depth 256
//	aldaserve -addr :8080 -journal jobs.jsonl -chaos-journal-write-nth 50
//
// API:
//
//	POST /v1/jobs        submit a job ({workload|mir, analysis, options});
//	                     202 + status, or typed 400/429/503. ?wait=1 blocks.
//	GET  /v1/jobs/{id}   job status/result; ?wait=1 blocks until terminal
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 while draining; notes journal degradation)
//	GET  /metrics        obs registry: JSON by default, Prometheus text
//	                     exposition with Accept: text/plain or ?format=prom
//	GET  /debug/flight   flight-recorder dump (recent job and control events)
//	GET  /debug/spans    the same events grouped into per-job span chains
//
// Jobs are deterministic in their request (virtual-time results), so the
// write-ahead journal (-journal) makes the service crash-safe: kill -9,
// restart with the same journal, and exactly the unfinished jobs re-run
// with byte-identical results. SIGTERM/SIGINT drains gracefully: no new
// admissions, queued and running jobs finish, journal is flushed.
//
// The -chaos-* flags inject deterministic journal I/O faults (the serve
// half of the fault-injection testbed); VM-level chaos arrives per job
// via options.fault_seed.
//
// SIGQUIT dumps the flight recorder to -flight-snapshot (or stderr when
// unset) and keeps serving — the live post-mortem hook. The same
// snapshot fires automatically on the first journal degradation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "worker goroutines draining the one admission queue")
	queueDepth := flag.Int("queue-depth", 256, "admission-queue depth beyond the running jobs (overflow is 429)")
	tenantCap := flag.Int("tenant-inflight", 16, "per-tenant in-flight job cap (<0 disables)")
	journal := flag.String("journal", "", "write-ahead job journal path (empty = no durability)")
	chaosWrite := flag.Uint64("chaos-journal-write-nth", 0, "inject a failure on the Nth journal write")
	chaosSync := flag.Uint64("chaos-journal-sync-nth", 0, "inject a failure on the Nth journal fsync")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max time to finish in-flight jobs on SIGTERM")
	maxSteps := flag.Uint64("max-steps", 0, "per-job step-budget cap (0 = default limits)")
	slo := flag.Duration("slo", 0, "per-job wall-latency objective; slower completions count into serve.slo.jobs_over_deadline_total (0 = default 1s, <0 = off)")
	flightSnap := flag.String("flight-snapshot", "", "file the flight recorder auto-dumps to on journal degradation or SIGQUIT")
	flightRing := flag.Int("flight-ring", 0, "events retained in the flight recorder's job ring, the bound on /debug/flight and /debug/spans; the control ring holds 16 (0 = default 6144, 1,024 six-stage job chains)")
	flag.Parse()

	cfg := serve.Config{
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		TenantInflight:     *tenantCap,
		JournalPath:        *journal,
		JournalFaults:      serve.JournalFaults{FailWriteNth: *chaosWrite, FailSyncNth: *chaosSync},
		SLOWall:            *slo,
		FlightSnapshotPath: *flightSnap,
		FlightRing:         *flightRing,
		Metrics:            obs.NewRegistry(),
	}
	if *maxSteps > 0 {
		cfg.Limits = serve.DefaultLimits()
		cfg.Limits.MaxMaxSteps = *maxSteps
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aldaserve: %v\n", err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "aldaserve: listening on %s (workers=%d queue=%d journal=%q)\n",
		*addr, *workers, *queueDepth, *journal)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGQUIT)
loop:
	for {
		select {
		case err := <-errCh:
			fmt.Fprintf(os.Stderr, "aldaserve: %v\n", err)
			os.Exit(1)
		case got := <-sig:
			if got == syscall.SIGQUIT {
				// Live post-mortem: dump the flight recorder, keep serving.
				if *flightSnap != "" {
					if err := s.SnapshotFlightTo(*flightSnap, "sigquit"); err != nil {
						fmt.Fprintf(os.Stderr, "aldaserve: flight snapshot: %v\n", err)
					} else {
						fmt.Fprintf(os.Stderr, "aldaserve: SIGQUIT: flight snapshot written to %s\n", *flightSnap)
					}
				} else {
					snap := s.FlightSnapshot("sigquit")
					b, _ := json.Marshal(snap)
					fmt.Fprintf(os.Stderr, "aldaserve: SIGQUIT flight dump: %s\n", b)
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "aldaserve: %v: draining (timeout %s)\n", got, *drainTimeout)
			break loop
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop admissions first (readyz flips, jobs drain), then close the
	// listener; in-flight HTTP waits get their responses.
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "aldaserve: drain: %v (unfinished jobs stay journaled)\n", err)
		srv.Close()
		os.Exit(1)
	}
	srv.Shutdown(ctx)
	fmt.Fprintln(os.Stderr, "aldaserve: drained cleanly")
}
