package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestChaosSoak is the serve-layer chaos drill: concurrent tenants
// submit jobs carrying deterministic VM fault plans (seeded malloc
// failures, handler panics, scheduler perturbation) while the journal
// itself suffers injected I/O faults. The invariants under all of it:
// every accepted job reaches a typed terminal state, the process never
// dies, rejections are only backpressure, and the journal fault
// degrades /readyz instead of failing requests.
func TestChaosSoak(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	s, err := New(Config{
		Shards: 2, WorkersPerShard: 2, QueueDepth: 8,
		JournalPath:   path,
		JournalFaults: JournalFaults{FailWriteNth: 5, FailSyncNth: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines = 4
	const perG = 10
	var mu sync.Mutex
	var accepted []string
	rejected := 0

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perG; i++ {
				req := JobRequest{
					Tenant:   fmt.Sprintf("tenant%d", g),
					Workload: "memcached",
					Analysis: "uaf",
					Options: JobOptions{
						// A different deterministic fault plan per job:
						// some break malloc, some panic handlers, some
						// only perturb the scheduler.
						FaultSeed: int64(g*perG + i + 1),
					},
				}
				if i%3 == 1 {
					req.Options.Engine = "interp"
				}
				body, _ := json.Marshal(req)
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				var st JobStatus
				code := resp.StatusCode
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				mu.Lock()
				switch code {
				case http.StatusAccepted:
					accepted = append(accepted, st.ID)
				case http.StatusTooManyRequests:
					rejected++
				default:
					t.Errorf("g%d i%d: unexpected code %d", g, i, code)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("chaos soak accepted nothing")
	}

	// Every accepted job reaches a typed terminal state: done, or
	// failed with a taxonomy kind — never stuck, never a bare panic.
	kinds := map[string]int{}
	for _, id := range accepted {
		j := s.lookup(id)
		select {
		case <-j.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s wedged under chaos", id)
		}
		st := j.snapshot()
		switch st.State {
		case StateDone:
			kinds["ok"]++
		case StateFailed:
			if st.Error == nil || st.Error.Kind == "" {
				t.Fatalf("job %s failed untyped: %+v", id, st)
			}
			kinds[st.Error.Kind]++
		default:
			t.Fatalf("job %s non-terminal %q", id, st.State)
		}
	}
	// The seeded fault plans must actually have bitten: at least one
	// injected library fault or handler panic surfaced as a typed error.
	if kinds["LibFault"]+kinds["Trap"] == 0 {
		t.Fatalf("no injected fault surfaced; outcomes: %v", kinds)
	}

	// The injected journal fault degraded durability, not availability.
	if !s.journal.Degraded() {
		t.Fatal("journal faults never fired")
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d under journal degradation, want 200 + degraded note", resp.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 256)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "degraded: journal") {
		t.Fatalf("readyz body %q does not surface journal degradation", sb.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
}

// TestChaosDeterministicOutcomes: the same seeded fault plan yields the
// same typed outcome on a fresh server — chaos here is reproducible,
// not random.
func TestChaosDeterministicOutcomes(t *testing.T) {
	run := func() []byte {
		s, err := New(Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var out []JobStatus
		for seed := int64(1); seed <= 6; seed++ {
			code, b := postJob(t, ts, JobRequest{
				Workload: "memcached", Analysis: "uaf",
				Options: JobOptions{FaultSeed: seed},
			}, "?wait=1")
			if code != http.StatusOK {
				t.Fatalf("seed %d: code %d", seed, code)
			}
			var st JobStatus
			if err := json.Unmarshal(b, &st); err != nil {
				t.Fatal(err)
			}
			st.ID = "" // IDs differ across servers; outcomes must not
			out = append(out, st)
		}
		b, _ := json.Marshal(out)
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("seeded chaos not reproducible:\n%s\n%s", a, b)
	}
}
