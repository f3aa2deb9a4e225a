package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"pasgal/internal/gen"
	"pasgal/internal/graph"
)

// getRaw issues one GET and returns status, body, and the cache marker.
func getRaw(t *testing.T, url string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Pasgal-Cache")
}

// TestServeCacheByteIdentical: a repeat query replays the exact bytes of
// the first response, marked as a hit.
func TestServeCacheByteIdentical(t *testing.T) {
	g := gen.ER(300, 1200, true, 11)
	s, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	for _, target := range []string{
		"/query/bfs?graph=g&src=7",
		"/query/sssp?graph=g&src=7",
		"/query/scc?graph=g",
		"/query/kcore?graph=g",
		"/query/reachable?graph=g&src=7",
		"/query/p2p?graph=g&src=7&dst=200",
	} {
		st1, body1, mark1 := getRaw(t, hs.URL+target)
		st2, body2, mark2 := getRaw(t, hs.URL+target)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s: statuses %d, %d", target, st1, st2)
		}
		if mark1 != "miss" || mark2 != "hit" {
			t.Fatalf("%s: cache markers %q, %q; want miss, hit", target, mark1, mark2)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s: cache hit is not byte-identical\nfirst:  %.120q\nsecond: %.120q",
				target, body1, body2)
		}
	}
	hits, misses := s.cache.stats()
	if hits != 6 || misses != 6 {
		t.Fatalf("cache stats: %d hits / %d misses, want 6/6", hits, misses)
	}
}

// TestServeCacheOptOut: cache=off neither reads nor writes the cache.
func TestServeCacheOptOut(t *testing.T) {
	g := gen.Chain(100, true)
	s, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{})
	for i := 0; i < 2; i++ {
		_, _, mark := getRaw(t, hs.URL+"/query/bfs?graph=g&src=9&cache=off")
		if mark != "miss" {
			t.Fatalf("round %d: marker %q, want miss", i, mark)
		}
	}
	if c := s.cache.len(); c != 0 {
		t.Fatalf("cache holds %d entries after cache=off traffic", c)
	}
	if got := s.cacheBypass.Load(); got != 2 {
		t.Fatalf("cacheBypass = %d, want 2", got)
	}
	// The opt-out body still matches the cached path's body.
	_, direct, _ := getRaw(t, hs.URL+"/query/bfs?graph=g&src=9&cache=off")
	_, cached, _ := getRaw(t, hs.URL+"/query/bfs?graph=g&src=9")
	if !bytes.Equal(direct, cached) {
		t.Fatal("cache=off body differs from the cacheable body")
	}
}

// TestServeCacheEviction: the entry bound holds under churn and evicts
// least-recently-used first.
func TestServeCacheEviction(t *testing.T) {
	g := gen.Chain(100, true)
	s, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{CacheEntries: 4})
	for src := 0; src < 10; src++ {
		getRaw(t, fmt.Sprintf("%s/query/bfs?graph=g&src=%d", hs.URL, src))
	}
	if c := s.cache.len(); c != 4 {
		t.Fatalf("cache holds %d entries, bound is 4", c)
	}
	// The four most recent (6..9) are in; the oldest (0) was evicted.
	if _, _, mark := getRaw(t, hs.URL+"/query/bfs?graph=g&src=9"); mark != "hit" {
		t.Fatal("most recent entry evicted")
	}
	if _, _, mark := getRaw(t, hs.URL+"/query/bfs?graph=g&src=0"); mark != "miss" {
		t.Fatal("oldest entry survived a full churn")
	}
	if c := s.cache.len(); c != 4 {
		t.Fatalf("cache holds %d entries after refill, bound is 4", c)
	}
}

// TestServeCacheDisabled: a negative CacheEntries turns caching off
// entirely; /metrics reports it disabled.
func TestServeCacheDisabled(t *testing.T) {
	g := gen.Chain(50, true)
	_, hs := newTestServer(t, map[string]*graph.Graph{"g": g}, Config{CacheEntries: -1})
	for i := 0; i < 2; i++ {
		_, _, mark := getRaw(t, hs.URL+"/query/bfs?graph=g&src=3")
		if mark != "miss" {
			t.Fatalf("round %d: marker %q with caching disabled", i, mark)
		}
	}
	var mr MetricsResponse
	if st, _ := getJSON(t, hs.URL+"/metrics", &mr); st != http.StatusOK {
		t.Fatalf("/metrics status %d", st)
	}
	if mr.Cache.Enabled || mr.Cache.Entries != 0 || mr.Cache.Hits != 0 {
		t.Fatalf("disabled cache reports %+v", mr.Cache)
	}
}

// Unit tests for the LRU itself.

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if body, ok := c.get("a"); !ok || string(body) != "A" {
		t.Fatalf("get a = %q, %t", body, ok)
	}
	c.put("c", []byte("C")) // evicts b (a was refreshed by the get)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived; LRU order ignores recency of use")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	c.put("a", []byte("A2")) // refresh in place
	if body, _ := c.get("a"); string(body) != "A2" {
		t.Fatalf("refresh did not replace the body: %q", body)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	hits, misses := c.stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats %d/%d, want 3 hits / 1 miss", hits, misses)
	}
}

func TestResultCacheNil(t *testing.T) {
	var c *resultCache
	if c := newResultCache(0); c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	c.put("k", []byte("v")) // must not panic
	if _, ok := c.get("k"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Fatal("nil cache has entries")
	}
	if h, m := c.stats(); h != 0 || m != 0 {
		t.Fatal("nil cache has stats")
	}
}
