// Benchmarks of the tooling around the evaluation: compiling the
// analyses, the harness's measurement grid and the compile cache. The
// figures themselves are timed as paired rounds by cmd/aldabench and
// by figbench, which EXPERIMENTS.md records.
//
// Suggested invocation:
//
//	go test -bench=. -benchmem -benchtime=1x .
package alda_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/analyses"
	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// BenchmarkTable4 measures ALDAcc compilation itself over the eight
// analyses (Table 4 is about analysis authoring cost; this is the
// tooling-side counterpart).
func BenchmarkTable4(b *testing.B) {
	for _, n := range analyses.Names() {
		src := analyses.MustSource(n)
		b.Run(n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile(src, compiler.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHarness measures the evaluation harness itself: Figure 4's
// full measurement grid executed serially versus fanned out across
// GOMAXPROCS workers. The speedup sub-benchmark times both back to back
// per iteration and reports their wall-clock ratio as the "speedup"
// metric — ~1.0 on a single-core host, approaching the worker count on
// multi-core hosts (cells are independent and CPU-bound).
func BenchmarkHarness(b *testing.B) {
	grid := func(parallelism int) harness.Config {
		return harness.Config{
			Size:        workloads.SizeTiny,
			Reps:        1,
			Parallelism: parallelism,
			Out:         io.Discard,
		}
	}
	runOnce := func(b *testing.B, cfg harness.Config) time.Duration {
		b.Helper()
		start := time.Now()
		if _, err := harness.Fig4(cfg); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	workers := runtime.GOMAXPROCS(0)
	b.Run("fig4/serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, grid(1))
		}
	})
	b.Run(fmt.Sprintf("fig4/parallel-%d", workers), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runOnce(b, grid(workers))
		}
	})
	b.Run("fig4/speedup", func(b *testing.B) {
		var serial, parallel time.Duration
		for i := 0; i < b.N; i++ {
			serial += runOnce(b, grid(1))
			parallel += runOnce(b, grid(workers))
		}
		if parallel > 0 {
			b.ReportMetric(float64(serial)/float64(parallel), "speedup")
		}
	})
}

// BenchmarkCompileCache measures what the compile-once cache saves: a
// cold compile of the combined four-analysis source versus the cached
// lookup the harness performs on every figure after the first.
func BenchmarkCompileCache(b *testing.B) {
	parts := []string{"eraser", "fasttrack", "uaf", "tainttrack"}
	src, err := analyses.Combined(parts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiler.Compile(src, compiler.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := analyses.CompileCombined(compiler.DefaultOptions(), parts...); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := analyses.CompileCombined(compiler.DefaultOptions(), parts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}
