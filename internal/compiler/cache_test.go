package compiler

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestOptionsFingerprint(t *testing.T) {
	base := DefaultOptions()
	if base.Fingerprint() != DefaultOptions().Fingerprint() {
		t.Fatal("equal options must fingerprint equally")
	}
	seen := map[string]string{base.Fingerprint(): "default"}
	variants := map[string]Options{
		"ds-only": DSOnlyOptions(),
		"naive":   NaiveOptions(),
	}
	mutate := func(name string, f func(*Options)) {
		o := DefaultOptions()
		f(&o)
		variants[name] = o
	}
	mutate("no-coalesce", func(o *Options) { o.Coalesce = false })
	mutate("no-cse", func(o *Options) { o.CSE = false })
	mutate("no-fuse", func(o *Options) { o.FuseHandlers = false })
	mutate("gran-1", func(o *Options) { o.Granularity = 1 })
	mutate("split", func(o *Options) { o.SplitCold = true })
	for name, o := range variants {
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("options %q and %q share fingerprint %q", name, prev, fp)
		}
		seen[fp] = name
	}
}

func TestCachedCompileSingleflight(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	var builds atomic.Int32
	build := func() (*Analysis, error) {
		builds.Add(1)
		return &Analysis{}, nil
	}
	const callers = 16
	results := make([]*Analysis, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := CachedCompile("x", DefaultOptions(), build)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different Analysis pointer", i)
		}
	}
	hits, misses, _ := CompileCacheStats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats hits=%d misses=%d, want %d/1", hits, misses, callers-1)
	}

	// A different name or different options must compile separately.
	if _, err := CachedCompile("y", DefaultOptions(), build); err != nil {
		t.Fatal(err)
	}
	if _, err := CachedCompile("x", DSOnlyOptions(), build); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 3 {
		t.Errorf("build ran %d times after distinct keys, want 3", n)
	}
}

// TestCacheLRUEviction: inserting past the capacity evicts the least
// recently used key, a re-request of the victim recompiles, and the
// eviction counter tracks exactly the drops.
func TestCacheLRUEviction(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	defer SetCompileCacheCap(DefaultCompileCacheCap)
	SetCompileCacheCap(2)

	var builds atomic.Int32
	build := func() (*Analysis, error) {
		builds.Add(1)
		return &Analysis{}, nil
	}
	mustCompile := func(name string) *Analysis {
		t.Helper()
		a, err := CachedCompile(name, DefaultOptions(), build)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := mustCompile("a")
	mustCompile("b")
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if got := mustCompile("a"); got != a {
		t.Fatal("hit returned a different pointer")
	}
	mustCompile("c")
	if n := CompileCacheLen(); n != 2 {
		t.Fatalf("cache len = %d, want 2", n)
	}
	if _, _, ev := CompileCacheStats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// "a" survived (recently used): hit. "b" was evicted: recompile.
	if got := mustCompile("a"); got != a {
		t.Error("recently-used entry was evicted")
	}
	pre := builds.Load()
	mustCompile("b")
	if builds.Load() != pre+1 {
		t.Errorf("evicted entry did not recompile (builds %d -> %d)", pre, builds.Load())
	}
}

// TestCacheCapShrinkEvicts: shrinking the capacity below the live
// population evicts immediately, oldest first.
func TestCacheCapShrinkEvicts(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	defer SetCompileCacheCap(DefaultCompileCacheCap)
	SetCompileCacheCap(8)
	build := func() (*Analysis, error) { return &Analysis{}, nil }
	for _, n := range []string{"a", "b", "c", "d"} {
		if _, err := CachedCompile(n, DefaultOptions(), build); err != nil {
			t.Fatal(err)
		}
	}
	SetCompileCacheCap(1)
	if n := CompileCacheLen(); n != 1 {
		t.Fatalf("cache len after shrink = %d, want 1", n)
	}
	if _, _, ev := CompileCacheStats(); ev != 3 {
		t.Fatalf("evictions = %d, want 3", ev)
	}
	// The survivor is the most recently used ("d"): requesting it hits.
	h0, _, _ := CompileCacheStats()
	if _, err := CachedCompile("d", DefaultOptions(), build); err != nil {
		t.Fatal(err)
	}
	if h1, _, _ := CompileCacheStats(); h1 != h0+1 {
		t.Error("most-recently-used entry did not survive the shrink")
	}
}

// TestCacheEvictionDoesNotBreakSingleflight: hammer a capacity-2 cache
// from many goroutines over a keyspace that forces constant eviction,
// with compiles that linger long enough to be evicted mid-flight.
// Every caller must still get a non-nil result, and callers that
// joined the same singleflight group must observe the same pointer.
// Run under -race this is the server-prerequisite concurrency proof.
func TestCacheEvictionDoesNotBreakSingleflight(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	defer SetCompileCacheCap(DefaultCompileCacheCap)
	SetCompileCacheCap(2)

	names := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := names[(g+i)%len(names)]
				a, err := CachedCompile(name, DefaultOptions(), func() (*Analysis, error) {
					return &Analysis{}, nil
				})
				if err != nil || a == nil {
					t.Errorf("CachedCompile(%s): a=%v err=%v", name, a, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, evicts := CompileCacheStats()
	if hits+misses != 16*200 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 16*200)
	}
	if evicts == 0 {
		t.Error("keyspace of 5 over capacity 2 produced no evictions")
	}
	if n := CompileCacheLen(); n > 2 {
		t.Errorf("cache len = %d exceeds capacity 2", n)
	}
}
