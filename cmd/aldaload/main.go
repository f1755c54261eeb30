// Command aldaload is the load generator for aldaserve: it drives a
// mixed job stream at a fixed concurrency, rides out backpressure with
// capped exponential backoff + jitter, and reports the sustained
// jobs/sec the server actually completed.
//
// Usage:
//
//	aldaload -url http://localhost:8080 -n 200 -c 8
//	aldaload -url http://localhost:8080 -n 500 -c 16 -workloads sort,fft -analyses uaf,msan
//	aldaload -url http://localhost:8080 -n 100 -c 8 -fault-seed-every 5   # chaos mix
//
// Every 429/503 is retried with equal-jitter exponential backoff up to
// -retry-budget total wait per job; a 5xx or an exhausted budget is a
// hard failure and the exit status is non-zero. The summary line is machine-grepped by the
// serve-smoke CI step and now carries tail latency (per-job wall time
// from submit to terminal response, backoff waits included — what a
// client actually experienced):
//
//	aldaload: ok=200 failed=0 lost=0 retries=37 elapsed=2.51s jobs/sec=79.7 p50_ms=18.2 p95_ms=104.7 p99_ms=311.0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error *struct {
		Kind string `json:"kind"`
	} `json:"error"`
}

// splitmix64 is the same tiny PRNG the harness jitters with: enough to
// decorrelate clients without math/rand state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// percentile is the nearest-rank estimate over the collected per-job
// latencies (sorts its input; called once per quantile at exit).
func percentile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// backoff returns the equal-jitter wait for the given retry ordinal:
// uniform in [d/2, d] where d doubles from base up to max.
func backoff(base, max time.Duration, try int, seed uint64) time.Duration {
	d := base
	for i := 0; i < try && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(splitmix64(seed+uint64(try))%uint64(half+1))
}

func main() {
	url := flag.String("url", "http://localhost:8080", "aldaserve base URL")
	n := flag.Int("n", 100, "total jobs to submit")
	c := flag.Int("c", 8, "concurrent submitters")
	workloadList := flag.String("workloads", "sort,fft,bzip2", "comma-separated workload mix")
	analysisList := flag.String("analyses", "uaf,msan,eraser", "comma-separated analysis mix")
	tenants := flag.Int("tenants", 4, "number of synthetic tenants")
	faultEvery := flag.Int("fault-seed-every", 0, "give every Nth job a deterministic fault seed (0 = none)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "initial backoff after a 429/503")
	retryMax := flag.Duration("retry-max", 2*time.Second, "per-wait backoff cap")
	retryBudget := flag.Duration("retry-budget", 30*time.Second, "total backoff budget per job")
	seed := flag.Uint64("seed", 1, "jitter seed")
	quiet := flag.Bool("quiet", false, "suppress per-failure lines")
	flag.Parse()

	workloads := strings.Split(*workloadList, ",")
	analyses := strings.Split(*analysisList, ",")

	var ok, failed, lost, retries atomic.Uint64
	failKinds := struct {
		sync.Mutex
		m map[string]uint64
	}{m: map[string]uint64{}}
	lat := struct {
		sync.Mutex
		ms []float64 // per terminal job: wall time submit → terminal response
	}{}

	client := &http.Client{Timeout: 5 * time.Minute}
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				req := map[string]any{
					"tenant":   fmt.Sprintf("tenant%d", i%*tenants),
					"workload": workloads[i%len(workloads)],
					"analysis": analyses[i%len(analyses)],
				}
				if *faultEvery > 0 && i%*faultEvery == *faultEvery-1 {
					req["options"] = map[string]any{"fault_seed": i + 1}
				}
				body, _ := json.Marshal(req)

				var spent time.Duration
				try := 0
				jobStart := time.Now()
				for {
					resp, err := client.Post(*url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
					if err != nil {
						if !*quiet {
							fmt.Fprintf(os.Stderr, "aldaload: job %d: %v\n", i, err)
						}
						lost.Add(1)
						break
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
						d := backoff(*retryBase, *retryMax, try, splitmix64(*seed)+uint64(i))
						if spent+d > *retryBudget {
							if !*quiet {
								fmt.Fprintf(os.Stderr, "aldaload: job %d: backoff budget exhausted after %d tries\n", i, try+1)
							}
							lost.Add(1)
							break
						}
						time.Sleep(d)
						spent += d
						try++
						retries.Add(1)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						if !*quiet {
							fmt.Fprintf(os.Stderr, "aldaload: job %d: HTTP %d: %s\n", i, resp.StatusCode, b)
						}
						lost.Add(1)
						break
					}
					var st jobStatus
					if err := json.Unmarshal(b, &st); err != nil || st.State == "" {
						lost.Add(1)
						break
					}
					lat.Lock()
					lat.ms = append(lat.ms, float64(time.Since(jobStart).Microseconds())/1000)
					lat.Unlock()
					if st.State == "done" {
						ok.Add(1)
					} else {
						failed.Add(1)
						kind := "unknown"
						if st.Error != nil {
							kind = st.Error.Kind
						}
						failKinds.Lock()
						failKinds.m[kind]++
						failKinds.Unlock()
					}
					break
				}
			}
		}(w)
	}
	for i := 0; i < *n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	rate := float64(ok.Load()+failed.Load()) / elapsed.Seconds()
	p50, p95, p99 := percentile(lat.ms, 0.50), percentile(lat.ms, 0.95), percentile(lat.ms, 0.99)
	fmt.Printf("aldaload: ok=%d failed=%d lost=%d retries=%d elapsed=%.2fs jobs/sec=%.1f p50_ms=%.1f p95_ms=%.1f p99_ms=%.1f\n",
		ok.Load(), failed.Load(), lost.Load(), retries.Load(), elapsed.Seconds(), rate, p50, p95, p99)
	if len(failKinds.m) > 0 {
		var parts []string
		for k, v := range failKinds.m {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
		fmt.Printf("aldaload: failure kinds: %s\n", strings.Join(parts, " "))
	}
	if lost.Load() > 0 {
		os.Exit(1)
	}
}
