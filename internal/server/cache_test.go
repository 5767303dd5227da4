package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	ossm "github.com/ossm-mining/ossm"
	"github.com/ossm-mining/ossm/internal/obs"
)

func TestBoundCacheLRU(t *testing.T) {
	k := func(s string) []byte { return []byte(s) }
	c := newBoundCache(2, obs.NewRegistry())
	c.put(k("a"), 1)
	c.put(k("b"), 2)
	if b, ok := c.get(k("a")); !ok || b != 1 {
		t.Fatalf("get a = %d, %v", b, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.put(k("c"), 3)
	if _, ok := c.get(k("b")); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get(k("a")); !ok {
		t.Fatal("a was evicted despite being most recently used")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Re-putting an existing key updates in place without growing.
	c.put(k("a"), 10)
	if b, _ := c.get(k("a")); b != 10 {
		t.Fatalf("updated a = %d, want 10", b)
	}
	if c.len() != 2 || c.evictions.Value() != 1 {
		t.Fatalf("len %d, evictions %d; want 2, 1", c.len(), c.evictions.Value())
	}
	if c.hits.Value() == 0 || c.misses.Value() == 0 {
		t.Fatalf("hits %d, misses %d: not counted", c.hits.Value(), c.misses.Value())
	}
}

func TestBoundCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newBoundCache(capacity, obs.NewRegistry())
		c.put([]byte("a"), 1)
		if _, ok := c.get([]byte("a")); ok {
			t.Fatalf("capacity %d cached a value", capacity)
		}
		if c.len() != 0 {
			t.Fatalf("capacity %d holds %d entries", capacity, c.len())
		}
	}
}

func TestCacheKeyDistinguishesVersions(t *testing.T) {
	key := func(name string, v uint64, items ...ossm.Item) string {
		return string(appendCacheKey(nil, name, v, ossm.NewItemset(items...)))
	}
	if key("a", 1, 2, 3) == key("a", 2, 2, 3) {
		t.Fatal("versions collide")
	}
	if key("a", 1, 2, 3) == key("b", 1, 2, 3) {
		t.Fatal("index names collide")
	}
	// A name that embeds a trailing digit must not collide with another
	// (name, version) split; the NUL separators guarantee it.
	if key("a\x001", 1, 2) == key("a", 11, 2) {
		t.Fatal("separator ambiguity")
	}
	// Permutations and duplicates collapse onto one canonical key.
	if key("a", 1, 3, 2, 3) != key("a", 1, 2, 3) {
		t.Fatal("permuted itemsets do not share a key")
	}
}

// randomItemset draws 1–4 in-domain items (duplicates allowed — Bound
// must canonicalize them away).
func randomItemset(rng *rand.Rand, numItems int) []ossm.Item {
	n := 1 + rng.Intn(4)
	items := make([]ossm.Item, n)
	for i := range items {
		items[i] = ossm.Item(rng.Intn(numItems))
	}
	return items
}

// TestCachedBoundMatchesFresh is the cache-correctness property: for
// random datasets and random query streams, a bound served through the
// cache always equals the bound computed fresh from the index.
func TestCachedBoundMatchesFresh(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, ix := fixture(t, 800, seed)
			// A small capacity forces evictions mid-stream, so the
			// property also covers re-computation after an evict.
			s := New(Config{CacheSize: 8})
			if err := s.AddIndex("p", ix); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 101))
			// Draw queries from a fixed pool larger than the cache, so
			// the stream both repeats itemsets (hits) and overflows the
			// capacity (evictions, re-computation).
			pool := make([][]ossm.Item, 48)
			for i := range pool {
				pool[i] = randomItemset(rng, d.NumItems())
			}
			for i := 0; i < 400; i++ {
				items := pool[rng.Intn(len(pool))]
				got, err := s.bound("p", items, false)
				if err != nil {
					t.Fatalf("Bound(%v): %v", items, err)
				}
				want := ix.UpperBound(ossm.NewItemset(items...))
				if got.Bound != want {
					t.Fatalf("iteration %d: cached bound %d != fresh bound %d for %v (cached=%v)",
						i, got.Bound, want, items, got.Cached)
				}
			}
			if s.cache.hits.Value() == 0 || s.cache.evictions.Value() == 0 {
				t.Fatalf("query stream exercised no hits (%d) or no evictions (%d)",
					s.cache.hits.Value(), s.cache.evictions.Value())
			}
		})
	}
}

// TestSwapInvalidatesCache is the staleness property: after Swap
// replaces an index, every query answers from the new index even if the
// same itemset was cached against the old one.
func TestSwapInvalidatesCache(t *testing.T) {
	d, ix := fixture(t, 800, 4)
	s := New(Config{CacheSize: 1024})
	if err := s.AddIndex("p", ix); err != nil {
		t.Fatal(err)
	}

	// A second generation over a strict prefix of the data: bounds can
	// only shrink or stay, and most singletons differ.
	app, err := ossm.NewAppender(d.NumItems(), ossm.AppenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumTx()/2; i++ {
		if err := app.Add(d.Tx(i)); err != nil {
			t.Fatal(err)
		}
	}
	next, err := ossm.SnapshotIndex(app)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	sets := make([][]ossm.Item, 64)
	for i := range sets {
		sets[i] = randomItemset(rng, d.NumItems())
	}
	// Warm the cache against generation 1.
	for _, items := range sets {
		if _, err := s.bound("p", items, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.reg.Swap("p", next); err != nil {
		t.Fatal(err)
	}
	for _, items := range sets {
		got, err := s.bound("p", items, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached {
			t.Fatalf("first post-swap query for %v served from cache", items)
		}
		want := next.UpperBound(ossm.NewItemset(items...))
		if got.Bound != want {
			t.Fatalf("post-swap bound %d != new index's %d for %v", got.Bound, want, items)
		}
	}
}

// BenchmarkUbsupCached vs BenchmarkUbsupUncached is the acceptance
// benchmark: the cache-hit path must beat recomputing the bound on a
// 10k-transaction index.
func benchBounds(b *testing.B, noCache bool) {
	d, err := ossm.GenerateSkewed(ossm.DefaultSkewed(10000, 11))
	if err != nil {
		b.Fatal(err)
	}
	// 100 segments (the page ceiling for 10k transactions): a fresh
	// bound min-scans all of them, which is the work a hit skips.
	ix, err := ossm.Build(d, ossm.BuildOptions{Segments: 100, Algorithm: ossm.RandomGreedy, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{CacheSize: 4096})
	if err := s.AddIndex("retail", ix); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sets := make([][]ossm.Item, 256)
	for i := range sets {
		sets[i] = randomItemset(rng, d.NumItems())
	}
	// Warm the cache so the cached variant measures pure hits.
	for _, items := range sets {
		if _, err := s.bound("retail", items, noCache); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.bound("retail", sets[i%len(sets)], noCache); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUbsupCached(b *testing.B)   { benchBounds(b, false) }
func BenchmarkUbsupUncached(b *testing.B) { benchBounds(b, true) }

// bound answers one ubsup query against the named index, through the
// cache unless noCache is set, as a batch of one.
func (s *Server) bound(name string, items []ossm.Item, noCache bool) (BoundResult, error) {
	ix, version, ok := s.reg.Lookup(name)
	if !ok {
		return BoundResult{}, fmt.Errorf("unknown index %q", name)
	}
	fleet, err := s.fleetFor(name)
	if err != nil {
		return BoundResult{}, err
	}
	res, err := s.boundBatch(context.Background(), ix, fleet, name, version, [][]ossm.Item{items}, noCache)
	if err != nil {
		return BoundResult{}, err
	}
	return res[0], nil
}
