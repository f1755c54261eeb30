package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Record/replay experiment: each workload's uninstrumented run is
// recorded once into TraceDir as a compressed trace, then every
// analysis runs twice per workload — live (the program re-executes
// under instrumentation) and trace-driven (the interpreter sources the
// schedule, load values and library results from the recorded stream
// and only the analysis hooks do new work). The replay column is the
// paper's offline-analysis story: record once, analyze many times
// without paying for the environment again.

// ReplayPrograms is the replay experiment's workload set: a mix of the
// single-threaded SPEC-style rows and the multi-threaded Splash2 /
// real-world rows, so the trace stream carries both straight-line load
// traffic and scheduler quanta with lock churn.
var ReplayPrograms = []string{"fft", "lu_c", "radix", "memcached", "sort", "bzip2"}

// ReplayAnalyses is the analysis axis the recorded trace fans across:
// one per hook shape (per-access shadow, lockset, def-use).
var ReplayAnalyses = []string{"uaf", "eraser", "msan"}

// tracePath is the on-disk location of one workload's recorded trace.
func (c Config) tracePath(w string) string {
	return filepath.Join(c.TraceDir, w+".trc")
}

// ensureTraces records any missing workload traces into TraceDir (one
// plain run each, written atomically). With TraceRecord off a missing
// trace is an error: a -trace-in directory is expected to be complete.
// Runs before the grid computes its checkpoint fingerprint, so freshly
// recorded traces participate in it.
func (c Config) ensureTraces(programs []string) error {
	if c.TraceDir == "" {
		return fmt.Errorf("harness: replay experiment needs Config.TraceDir (-trace-out or -trace-in)")
	}
	if err := os.MkdirAll(c.TraceDir, 0o755); err != nil {
		return err
	}
	for _, w := range programs {
		path := c.tracePath(w)
		if _, err := os.Stat(path); err == nil {
			continue
		}
		if !c.TraceRecord {
			return fmt.Errorf("harness: missing recorded trace %s (record it with -trace-out)", path)
		}
		p, err := workloads.Build(w, c.Size)
		if err != nil {
			return fmt.Errorf("harness: building %s for trace recording: %w", w, err)
		}
		data, _, err := core.RecordTrace(p, c.Opt)
		if err != nil {
			// A verdict-grade failure still yields a complete trace whose
			// terminal reproduces it at replay; only infrastructure errors
			// abort recording.
			var re *vm.RunError
			if !errors.As(err, &re) {
				return fmt.Errorf("harness: recording %s: %w", w, err)
			}
		}
		if err := obs.WriteFileAtomic(path, data, 0o644); err != nil {
			return fmt.Errorf("harness: writing %s: %w", path, err)
		}
	}
	return nil
}

// traceHash fingerprints the recorded traces a sweep measures against:
// FNV-64a over the sorted *.trc names and contents of TraceDir. Part of
// the checkpoint fingerprint, so -resume rejects cells checkpointed
// against traces that have since been regenerated or corrupted.
func (c Config) traceHash() uint64 {
	h := fnv.New64a()
	entries, err := os.ReadDir(c.TraceDir)
	if err != nil {
		return 0
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".trc") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		data, err := os.ReadFile(filepath.Join(c.TraceDir, n))
		if err != nil {
			continue
		}
		h.Write(data)
	}
	return h.Sum64()
}

// traceCache memoizes decoded trace files across the grid's cells (one
// workload's trace replays into every analysis column). It keeps one
// entry per path, tagged with the file's stat identity: a regenerated
// file is re-decoded and replaces its entry.
var traceCache = struct {
	mu sync.Mutex
	m  map[string]cachedTrace
}{m: map[string]cachedTrace{}}

type cachedTrace struct {
	size, mod int64
	tr        *trace.Trace
}

func loadTraceFile(path string) (*trace.Trace, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	size, mod := st.Size(), st.ModTime().UnixNano()
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	if e, ok := traceCache.m[path]; ok && e.size == size && e.mod == mod {
		return e.tr, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	traceCache.m[path] = cachedTrace{size: size, mod: mod, tr: tr}
	return tr, nil
}

// Replay measures live analysis runs against trace-driven replay runs
// of the same analyses, normalized to the uninstrumented baseline. The
// trailing summary line reports the average replay saving per analysis.
func Replay(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if err := cfg.ensureTraces(ReplayPrograms); err != nil {
		return nil, err
	}
	var cols []column
	for _, n := range ReplayAnalyses {
		cols = append(cols, column{name: n + "-live", variant: n}, column{name: n + "-replay", variant: n, replay: true})
	}
	g, err := gridSpec{
		name:     "replay",
		title:    fmt.Sprintf("Record/replay: live analysis vs trace-driven replay (size=%s, reps=%d)", cfg.Size, cfg.Reps),
		programs: ReplayPrograms,
	}.measure(cols...)
	if err != nil {
		return nil, err
	}
	t, err := cfg.runGrid(g)
	if err != nil {
		return nil, err
	}
	for i, n := range ReplayAnalyses {
		live, rep := t.Averages[2*i], t.Averages[2*i+1]
		if live > 0 && rep > 0 {
			fmt.Fprintf(cfg.Out, "replay saving %-8s %.1f%% of the live analysis run\n", n, (1-rep/live)*100)
		}
	}
	fmt.Fprintln(cfg.Out)
	return t, nil
}
