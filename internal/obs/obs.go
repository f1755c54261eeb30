// Package obs is the runtime observability layer: a metrics registry
// of counters and histograms fed by the VM dispatch loop, the metadata
// containers, the compiler and the benchmark harness, plus a streaming
// Chrome trace_event writer (trace.go) and the serving tier's bounded
// in-memory event log (flight.go).
//
// Two collection disciplines keep the hot path honest:
//
//   - The VM and the containers count unconditionally into plain struct
//     fields (no branches, no atomics, no allocation — a Machine and a
//     Container are single-goroutine by construction). Those fields are
//     flattened into a Shard once, after the run.
//   - Anything that writes bytes (trace spans) hides behind a
//     nil-guarded pointer, so the disabled path stays allocation-free —
//     the testing.AllocsPerRun proofs in internal/perf pin this. The
//     dispatch loop never reads the wall clock around a handler.
//
// Counters are split into a deterministic section and a volatile one.
// Deterministic counters are pure functions of (program, analysis,
// seed): opcode counts, hook dispatches, container traffic. Under the
// harness's -virtual mode their merged JSON export is byte-identical
// across serial, parallel and resumed sweeps, so it can be
// golden-pinned. Volatile counters (nanosecond timings, retry counts,
// cache hit totals subject to process-level memoization) are exported
// separately and never pinned.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"strings"
	"sync"
)

// Shard accumulates one run's (or one harness cell's) deterministic
// counters before they are merged into a Registry. A Shard is
// single-goroutine — each cell owns its own — which is what makes the
// merged totals order-independent: merging is commutative addition, so
// serial and parallel sweeps produce identical registries. Volatile
// counters go to the Registry directly.
type Shard struct {
	Counts map[string]uint64
}

// NewShard returns an empty shard.
func NewShard() *Shard {
	return &Shard{Counts: map[string]uint64{}}
}

// Add increments a deterministic counter.
func (s *Shard) Add(name string, v uint64) { s.Counts[name] += v }

// Reset clears the shard for a retry attempt, so a cell that fails and
// re-runs contributes exactly one attempt's counters. Nil-safe.
func (s *Shard) Reset() {
	if s == nil {
		return
	}
	clear(s.Counts)
}

// hist is a power-of-two-bucket histogram: bucket i counts values v
// with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i (bucket 0 holds
// zeros). Coarse, allocation-free, and deterministic for deterministic
// inputs.
type hist struct {
	buckets [65]uint64
	count   uint64
	sum     uint64
}

// Registry is the merge target for shards plus a home for
// harness-level counters and histograms. Safe for concurrent use.
//
// Beyond the PR-5 deterministic/volatile counter split, a registry
// holds three live-serving families: gauges (point-in-time levels such
// as queue depth — always volatile by nature), volatile histograms
// (wall-clock latency distributions), and the original deterministic
// histograms. The deterministic export (includeVolatile false) never
// contains gauges or volatile histograms, which is what keeps the
// golden-pinned -virtual exports stable.
type Registry struct {
	mu       sync.Mutex
	counts   map[string]uint64
	volatile map[string]uint64
	gauges   map[string]int64
	hists    map[string]*hist
	vhists   map[string]*hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts:   map[string]uint64{},
		volatile: map[string]uint64{},
		gauges:   map[string]int64{},
		hists:    map[string]*hist{},
		vhists:   map[string]*hist{},
	}
}

// Add increments a deterministic counter.
func (r *Registry) Add(name string, v uint64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// AddVolatile increments a volatile counter.
func (r *Registry) AddVolatile(name string, v uint64) {
	r.mu.Lock()
	r.volatile[name] += v
	r.mu.Unlock()
}

// Observe records a value into a deterministic histogram.
func (r *Registry) Observe(name string, v uint64) {
	r.mu.Lock()
	observeLocked(r.hists, name, v)
	r.mu.Unlock()
}

// ObserveVolatile records a value into a volatile histogram — the home
// for wall-clock latencies, which must never leak into the
// deterministic export.
func (r *Registry) ObserveVolatile(name string, v uint64) {
	r.mu.Lock()
	observeLocked(r.vhists, name, v)
	r.mu.Unlock()
}

func observeLocked(m map[string]*hist, name string, v uint64) {
	h := m[name]
	if h == nil {
		h = &hist{}
		m[name] = h
	}
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
}

// SetGauge records a point-in-time level (queue depth, in-flight jobs).
// Gauges are volatile: they appear only in the includeVolatile export.
func (r *Registry) SetGauge(name string, v int64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Gauge returns a gauge's current value.
func (r *Registry) Gauge(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// ClearGauges drops every gauge whose name starts with prefix — the
// scrape-time reset for label-like gauge families (per-tenant in-flight)
// whose members come and go.
func (r *Registry) ClearGauges(prefix string) {
	r.mu.Lock()
	for k := range r.gauges {
		if strings.HasPrefix(k, prefix) {
			delete(r.gauges, k)
		}
	}
	r.mu.Unlock()
}

// Quantile estimates the q-quantile (0 <= q <= 1) of a histogram by
// linear interpolation inside its power-of-two bucket. Checks the
// deterministic histograms first, then the volatile ones. The second
// return is false when the histogram does not exist or is empty.
func (r *Registry) Quantile(name string, q float64) (float64, bool) {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = r.vhists[name]
	}
	r.mu.Unlock()
	if h == nil || h.count == 0 {
		return 0, false
	}
	return h.quantile(q), true
}

// quantile is the nearest-rank estimate with linear interpolation
// within the winning bucket's [2^(i-1), 2^i) value range.
func (h *hist) quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo, hi := bucketBounds(i)
			if next == cum {
				return lo
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	_, hi := bucketBounds(64)
	return hi
}

// bucketBounds returns bucket i's value range [lo, hi): bucket 0 holds
// zeros, bucket i>0 holds 2^(i-1) <= v < 2^i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	lo = float64(uint64(1) << (i - 1))
	if i >= 64 {
		return lo, 2 * lo
	}
	return lo, float64(uint64(1) << i)
}

// MergeShard folds a completed shard into the registry.
func (r *Registry) MergeShard(s *Shard) {
	if s == nil {
		return
	}
	r.mu.Lock()
	for k, v := range s.Counts {
		r.counts[k] += v
	}
	r.mu.Unlock()
}

// MergeCounts folds a checkpointed deterministic-counter map into the
// registry — the resume path's replacement for re-running the cell.
func (r *Registry) MergeCounts(m map[string]uint64) {
	r.mu.Lock()
	for k, v := range m {
		r.counts[k] += v
	}
	r.mu.Unlock()
}

// Counter returns a deterministic counter's current value.
func (r *Registry) Counter(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// HistExport is a histogram's JSON shape. Bucket keys are "le_2^NN"
// with a fixed-width exponent so lexicographic key order (what
// encoding/json emits for maps) is numeric order.
type HistExport struct {
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"`
}

// Export is the registry's JSON shape. encoding/json sorts map keys,
// so marshaling an Export is deterministic for deterministic contents.
// Gauges and volatile histograms only appear in the includeVolatile
// export, so pre-existing deterministic goldens are byte-stable.
type Export struct {
	Counters           map[string]uint64     `json:"counters"`
	Histograms         map[string]HistExport `json:"histograms,omitempty"`
	Volatile           map[string]uint64     `json:"volatile,omitempty"`
	Gauges             map[string]int64      `json:"gauges,omitempty"`
	VolatileHistograms map[string]HistExport `json:"volatile_histograms,omitempty"`
}

// bucketLabel renders bucket index i (0..64) as its upper-bound label.
func bucketLabel(i int) string {
	return "le_2^" + string([]byte{'0' + byte(i/10), '0' + byte(i%10)})
}

// Export snapshots the registry. With includeVolatile false only the
// deterministic counters and histograms are present — the form the
// golden tests pin.
func (r *Registry) Export(includeVolatile bool) Export {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Export{Counters: make(map[string]uint64, len(r.counts))}
	for k, v := range r.counts {
		e.Counters[k] = v
	}
	if len(r.hists) > 0 {
		e.Histograms = make(map[string]HistExport, len(r.hists))
		for k, h := range r.hists {
			e.Histograms[k] = h.export()
		}
	}
	if includeVolatile && len(r.volatile) > 0 {
		e.Volatile = make(map[string]uint64, len(r.volatile))
		for k, v := range r.volatile {
			e.Volatile[k] = v
		}
	}
	if includeVolatile && len(r.gauges) > 0 {
		e.Gauges = make(map[string]int64, len(r.gauges))
		for k, v := range r.gauges {
			e.Gauges[k] = v
		}
	}
	if includeVolatile && len(r.vhists) > 0 {
		e.VolatileHistograms = make(map[string]HistExport, len(r.vhists))
		for k, h := range r.vhists {
			e.VolatileHistograms[k] = h.export()
		}
	}
	return e
}

func (h *hist) export() HistExport {
	he := HistExport{Count: h.count, Sum: h.sum, Buckets: map[string]uint64{}}
	for i, c := range h.buckets {
		if c != 0 {
			he.Buckets[bucketLabel(i)] = c
		}
	}
	return he
}

// WriteJSON writes the registry as indented JSON with sorted keys —
// byte-identical for identical deterministic contents when
// includeVolatile is false.
func (r *Registry) WriteJSON(w io.Writer, includeVolatile bool) error {
	b, err := json.MarshalIndent(r.Export(includeVolatile), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
