package compiler

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/vm"
)

// Compile-once memoization. The evaluation harness compiles the same
// eight shipped analyses for every figure and every workload cell; with
// parallel cells that multiplies further. Compilation is deterministic
// in (source, options), so one compile per (analysis name, options
// fingerprint) per process suffices. The cache is singleflight: when N
// worker goroutines request the same analysis at once, one compiles and
// the rest wait for its result.
//
// The cache is bounded: a long-running server fields arbitrary
// (analysis, options) combinations from its tenants, so an unbounded
// map is a slow memory leak. Entries live in an LRU keyed by (name,
// options fingerprint); inserting past the capacity evicts the least
// recently used entry. Eviction only drops the cache's reference — a
// goroutine still compiling (or holding) an evicted *Analysis keeps it
// alive and its singleflight group intact, so eviction never blocks or
// re-runs anybody's in-flight compile.
//
// A cached *Analysis is shared — callers must treat it as immutable
// after the build function returns (NewRuntime and instrument.Apply
// already only read it).

// Fingerprint returns a stable encoding of every compilation switch,
// usable as a cache key component. Two Options values with equal
// fingerprints compile identically.
//
// The encoding also carries the selection thresholds, the address
// space and the constants "pcfalse" (it once named profile counters)
// and ",enginterp" (it once named the VM execution tier), although no
// Options field sets them, so that fingerprints recorded earlier still
// match. SplitCold appends ",split" only when set, for the same reason.
func (o Options) Fingerprint() string {
	fp := fmt.Sprintf("co%t,cse%t,sel%t,fuse%t,pcfalse,g%d,sft%g,bits%d,arr%d,as%d,enginterp",
		o.Coalesce, o.CSE, o.SmartSelect, o.FuseHandlers,
		o.Granularity, shadowFactorThreshold, bitSetMaxBytes,
		arrayMapMaxKeys, vm.AddrSpace)
	if o.SplitCold {
		fp += ",split"
	}
	return fp
}

type cacheKey struct {
	name string
	fp   string
}

type cacheEntry struct {
	key  cacheKey
	once sync.Once
	a    *Analysis
	err  error
}

// DefaultCompileCacheCap bounds the process-wide compile cache. Sized
// for the full evaluation matrix (8 analyses × 14 ablation legs plus
// combined variants) with headroom; a server tuning for many tenants
// can raise or shrink it with SetCompileCacheCap.
const DefaultCompileCacheCap = 256

var (
	cacheMu      sync.Mutex
	cacheCap     = DefaultCompileCacheCap
	cacheEntries = map[cacheKey]*list.Element{}
	cacheLRU     = list.New() // front = most recently used; values are *cacheEntry
	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	cacheEvicts  atomic.Uint64
)

// lookupOrInsert returns the live entry for key, creating (and, if over
// capacity, evicting) under the cache lock. The compile itself runs
// outside the lock via the entry's once.
func lookupOrInsert(key cacheKey) *cacheEntry {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if el, ok := cacheEntries[key]; ok {
		cacheLRU.MoveToFront(el)
		return el.Value.(*cacheEntry)
	}
	entry := &cacheEntry{key: key}
	cacheEntries[key] = cacheLRU.PushFront(entry)
	for cacheLRU.Len() > cacheCap {
		oldest := cacheLRU.Back()
		if oldest == nil {
			break
		}
		victim := oldest.Value.(*cacheEntry)
		cacheLRU.Remove(oldest)
		delete(cacheEntries, victim.key)
		cacheEvicts.Add(1)
	}
	return entry
}

// CachedCompile memoizes build under (name, opts.Fingerprint()).
// Concurrent callers with the same key share one compilation.
func CachedCompile(name string, opts Options, build func() (*Analysis, error)) (*Analysis, error) {
	entry := lookupOrInsert(cacheKey{name: name, fp: opts.Fingerprint()})
	built := false
	entry.once.Do(func() {
		entry.a, entry.err = build()
		built = true
	})
	if built {
		cacheMisses.Add(1)
	} else {
		cacheHits.Add(1)
	}
	return entry.a, entry.err
}

// SetCompileCacheCap resizes the cache bound (minimum 1), evicting
// least-recently-used entries if the new capacity is already exceeded.
// Returns the previous capacity.
func SetCompileCacheCap(n int) int {
	if n < 1 {
		n = 1
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	prev := cacheCap
	cacheCap = n
	for cacheLRU.Len() > cacheCap {
		oldest := cacheLRU.Back()
		victim := oldest.Value.(*cacheEntry)
		cacheLRU.Remove(oldest)
		delete(cacheEntries, victim.key)
		cacheEvicts.Add(1)
	}
	return prev
}

// CompileCacheLen reports the number of live cached entries.
func CompileCacheLen() int {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return cacheLRU.Len()
}

// CompileCacheStats reports cache hits, misses (compiles performed) and
// LRU evictions since process start or the last reset.
func CompileCacheStats() (hits, misses, evictions uint64) {
	return cacheHits.Load(), cacheMisses.Load(), cacheEvicts.Load()
}

// ResetCompileCache drops all cached analyses and zeroes the counters;
// for tests. The capacity is left as configured.
func ResetCompileCache() {
	cacheMu.Lock()
	cacheEntries = map[cacheKey]*list.Element{}
	cacheLRU.Init()
	cacheMu.Unlock()
	cacheHits.Store(0)
	cacheMisses.Store(0)
	cacheEvicts.Store(0)
}
