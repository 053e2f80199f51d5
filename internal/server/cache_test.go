package server

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"protoquot/internal/api"
	"protoquot/internal/dsl"
)

// hexKey builds a synthetic but well-formed cache key (64 lowercase hex).
func hexKey(i int) string {
	return fmt.Sprintf("%064x", i)
}

func entry(i int) *api.Artifact {
	return &api.Artifact{Key: hexKey(i), Exists: true, Converter: "spec C\ninit c0\n"}
}

func TestCacheEvictionSparesHitEntry(t *testing.T) {
	c, err := NewCache(2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(entry(1))
	c.Put(entry(2))
	// Touch 1 so 2 becomes the eviction victim.
	if _, ok := c.Get(hexKey(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	c.Put(entry(3))
	if _, ok := c.Get(hexKey(2)); ok {
		t.Error("entry 2 should have been evicted (never hit)")
	}
	if _, ok := c.Get(hexKey(1)); !ok {
		t.Error("recently used entry 1 was evicted")
	}
	if _, ok := c.Get(hexKey(3)); !ok {
		t.Error("entry 3 missing")
	}
	hits, misses, evictions, _, _ := c.Counters()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if hits != 3 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	c, _ := NewCache(2, "", nil)
	c.Put(entry(1))
	e := entry(1)
	e.Converter = "spec C2\ninit c0\n"
	c.Put(e)
	if c.Len() != 1 {
		t.Errorf("replacing a key grew the cache to %d entries", c.Len())
	}
	got, _ := c.Get(hexKey(1))
	if got.Converter != e.Converter {
		t.Error("replacement entry not returned")
	}
}

func TestCacheDiskPersistenceAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	// A real converter so the artifact set is complete.
	conv := "spec C\ninit c0\next c0 x c0\n"
	if _, err := dsl.ParseString(conv); err != nil {
		t.Fatal(err)
	}
	e := &api.Artifact{Key: hexKey(7), Exists: true, Converter: conv,
		Stats: &api.WireStats{FinalStates: 1}}

	c1, err := NewCache(4, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(e)
	for _, ext := range []string{".json", ".spec", ".dot"} {
		p := filepath.Join(dir, hexKey(7)+ext)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("artifact %s not persisted: %v", ext, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, hexKey(7)+".spec"))
	if err != nil || string(data) != conv {
		t.Errorf("persisted .spec differs: %q err=%v", data, err)
	}

	// A new instance over the same dir — a restarted daemon — serves the
	// entry from disk and counts a disk hit.
	c2, err := NewCache(4, dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(hexKey(7))
	if !ok {
		t.Fatal("entry not recovered from disk")
	}
	if got.Converter != conv || got.Stats == nil || got.Stats.FinalStates != 1 {
		t.Errorf("recovered entry differs: %+v", got)
	}
	_, _, _, diskHits, diskErrors := c2.Counters()
	if diskHits != 1 || diskErrors != 0 {
		t.Errorf("diskHits/diskErrors = %d/%d, want 1/0", diskHits, diskErrors)
	}
	// Now in memory: a second Get must not touch disk again.
	c2.Get(hexKey(7))
	if _, _, _, dh, _ := c2.Counters(); dh != 1 {
		t.Errorf("in-memory hit went to disk (diskHits=%d)", dh)
	}
}

func TestCacheCorruptDiskEntryTolerated(t *testing.T) {
	dir := t.TempDir()
	key := hexKey(9)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	c, err := NewCache(4, dir, func(f string, v ...any) {
		fmt.Fprintf(&logged, f+"\n", v...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	_, misses, _, _, diskErrors := c.Counters()
	if misses != 1 || diskErrors != 1 {
		t.Errorf("misses/diskErrors = %d/%d, want 1/1", misses, diskErrors)
	}
	if !strings.Contains(logged.String(), "corrupt") {
		t.Errorf("corruption not logged: %q", logged.String())
	}

	// Key-mismatch corruption (entry copied under the wrong name) is also
	// rejected: content addressing means the name must match the content.
	wrong := hexKey(10)
	if err := os.WriteFile(filepath.Join(dir, wrong+".json"),
		[]byte(`{"key":"`+key+`","exists":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(wrong); ok {
		t.Error("entry with mismatched key served")
	}
}

func TestCacheRejectsNonHexKeys(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(4, dir, nil)
	// A hostile key must never reach the filesystem.
	c.Put(&api.Artifact{Key: "../../etc/passwd", Exists: true, Converter: "x"})
	if _, err := os.Stat(filepath.Join(dir, "..", "..", "etc")); err == nil {
		t.Fatal("path traversal")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("non-hex key produced files: %v", entries)
	}
	if _, _, _, _, diskErrors := c.Counters(); diskErrors == 0 {
		t.Error("refusal not counted as a disk error")
	}
}

// keysOf lists the in-memory keys as entry numbers, oldest inserted first.
func keysOf(c *Cache) []int {
	var out []int
	for _, k := range c.Keys() {
		var i int
		fmt.Sscanf(k, "%x", &i)
		out = append(out, i)
	}
	return out
}

// TestCacheSieveWalk follows the hand by hand through a 4-entry cache. A hit
// spares its entry once and costs it the bit; the hand resumes where the
// last eviction left it, not at the back; and it wraps to the back when it
// runs off the front.
func TestCacheSieveWalk(t *testing.T) {
	c, _ := NewCache(4, "", nil)
	for i := 1; i <= 4; i++ {
		c.Put(entry(i))
	}
	steps := []struct {
		hits []int // entries hit before the Put
		put  int
		want []int // Keys after the Put, oldest inserted first
	}{
		// From the back: 1 is visited and loses its bit, 2 goes; the hand
		// stays at 3.
		{[]int{1, 3}, 5, []int{1, 3, 4, 5}},
		// From 3, not from the back (where the now unvisited 1 would go):
		// 3 loses its bit, 4 goes; the hand stays at 5.
		{nil, 6, []int{1, 3, 5, 6}},
		// 5 and 6 lose their bits, the hand runs off the front, wraps to
		// the back and takes 1; it stays at 3.
		{[]int{5, 6}, 7, []int{3, 5, 6, 7}},
		// 3, unvisited since the second pass, goes next.
		{nil, 8, []int{5, 6, 7, 8}},
	}
	for _, st := range steps {
		for _, i := range st.hits {
			if _, ok := c.Get(hexKey(i)); !ok {
				t.Fatalf("before Put(%d): entry %d missing", st.put, i)
			}
		}
		c.Put(entry(st.put))
		if got := keysOf(c); fmt.Sprint(got) != fmt.Sprint(st.want) {
			t.Fatalf("after Put(%d): keys %v, want %v", st.put, got, st.want)
		}
	}
	if _, _, ev, _, _ := c.Counters(); ev != 4 {
		t.Errorf("evictions = %d, want 4", ev)
	}
}

// TestCacheScanResistance hits a hot set, then sends a run of one-hit keys
// three times the cache's size through the server's miss path (Get, then
// Put). The hot set must survive it; under LRU the scan flushes it.
func TestCacheScanResistance(t *testing.T) {
	const size = 4
	c, _ := NewCache(size, "", nil)
	hot := []int{1, 2}
	for _, i := range hot {
		c.Put(entry(i))
		c.Get(hexKey(i))
	}
	for i := 100; i < 100+3*size; i++ {
		if _, ok := c.Get(hexKey(i)); !ok {
			c.Put(entry(i))
		}
	}
	for _, i := range hot {
		if _, ok := c.Get(hexKey(i)); !ok {
			t.Errorf("hot entry %d flushed by a scan of one-hit keys", i)
		}
	}
}

// lruModel is the reference LRU policy the cache used to run: a hit moves
// its key to the front, and an insert beyond the bound drops the back.
type lruModel struct {
	max int
	ll  *list.List
	at  map[int]*list.Element
}

func (m *lruModel) access(k int) (hit bool) {
	if el, ok := m.at[k]; ok {
		m.ll.MoveToFront(el)
		return true
	}
	m.at[k] = m.ll.PushFront(k)
	if m.ll.Len() > m.max {
		delete(m.at, m.ll.Remove(m.ll.Back()).(int))
	}
	return false
}

// zipfTrace returns n of keys ranks in serve-zipf's stream shape: every
// block of about 500 requests holds each rank's Zipf(s) share exactly, in an
// order rng shuffles.
func zipfTrace(rng *rand.Rand, keys int, s float64, n int) []int {
	var sum float64
	for r := 1; r <= keys; r++ {
		sum += math.Pow(float64(r), -s)
	}
	var block []int
	for k := 0; k < keys; k++ {
		for j := math.Round(500 * math.Pow(float64(k+1), -s) / sum); j > 0; j-- {
			block = append(block, k)
		}
	}
	var out []int
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// TestCacheZipfBeatsLRU drives a seeded Zipf(1.1) trace over 40 keys through
// a 16-entry cache — serve-zipf's keyspace and bound — on one goroutine, and
// through the LRU model. The hit counts are exact for the seed; SIEVE must
// lead LRU by at least 0.04 in hit ratio.
func TestCacheZipfBeatsLRU(t *testing.T) {
	const keys, size, n = 40, 16, 20000
	c, _ := NewCache(size, "", nil)
	lru := &lruModel{max: size, ll: list.New(), at: make(map[int]*list.Element)}
	lruHits := 0
	for _, k := range zipfTrace(rand.New(rand.NewSource(1)), keys, 1.1, n) {
		if _, ok := c.Get(hexKey(k)); !ok {
			c.Put(entry(k))
		}
		if lru.access(k) {
			lruHits++
		}
	}
	hits, misses, _, _, _ := c.Counters()
	if hits+misses != n {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, n)
	}
	if hits != 15563 || lruHits != 14525 {
		t.Errorf("hits: SIEVE %d, LRU %d; want 15563, 14525", hits, lruHits)
	}
	if sieve, ref := float64(hits)/n, float64(lruHits)/n; sieve-ref < 0.04 {
		t.Errorf("SIEVE hit ratio %.4f leads LRU's %.4f by less than 0.04", sieve, ref)
	}
}

// TestCacheSizeOne bounds the cache to one entry, also when asked for none:
// the hand must clear the lone entry's bit, wrap onto it and evict it.
func TestCacheSizeOne(t *testing.T) {
	for _, max := range []int{1, 0} {
		c, _ := NewCache(max, "", nil)
		c.Put(entry(1))
		if _, ok := c.Get(hexKey(1)); !ok {
			t.Fatalf("NewCache(%d): entry 1 missing", max)
		}
		c.Put(entry(2))
		if got := keysOf(c); fmt.Sprint(got) != "[2]" {
			t.Errorf("NewCache(%d): keys %v after a second Put, want [2]", max, got)
		}
		if _, ok := c.Get(hexKey(2)); !ok {
			t.Errorf("NewCache(%d): newest entry evicted", max)
		}
		if _, _, ev, _, _ := c.Counters(); ev != 1 {
			t.Errorf("NewCache(%d): evictions = %d, want 1", max, ev)
		}
	}
}

// TestCacheConcurrentUse runs Get, GetAlias, Put and Alias from several
// goroutines over a keyspace four times the cache (run it under -race), then
// checks the structure: the bound, the hand on the list, every alias on its
// entry, and every counted lookup.
func TestCacheConcurrentUse(t *testing.T) {
	const size, keys, workers, ops = 4, 16, 4, 2000
	c, _ := NewCache(size, "", nil)
	var lookups, aliasHits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				d := sha256.Sum256([]byte{byte(k), byte(rng.Intn(6))})
				if _, ok := c.GetAlias(d); ok {
					aliasHits.Add(1)
					continue
				}
				lookups.Add(1)
				if _, ok := c.Get(hexKey(k)); !ok {
					c.Put(entry(k))
				}
				c.Alias(d, hexKey(k))
			}
		}(int64(w))
	}
	wg.Wait()

	hits, misses, _, _, _ := c.Counters()
	if got, want := hits+misses, lookups.Load()+aliasHits.Load(); got != want {
		t.Errorf("hits+misses = %d, want %d lookups", got, want)
	}
	if got := c.AliasHits(); got != aliasHits.Load() {
		t.Errorf("AliasHits = %d, callers saw %d", got, aliasHits.Load())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.ll.Len(); n != len(c.byKey) || n > size {
		t.Fatalf("list holds %d entries, key index %d, bound %d", n, len(c.byKey), size)
	}
	handOnList := c.hand == nil
	aliases := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ce := el.Value.(*cacheEntry)
		handOnList = handOnList || el == c.hand
		if c.byKey[ce.art.Key] != el {
			t.Errorf("entry %.8s not indexed by its key", ce.art.Key)
		}
		for _, d := range ce.aliases {
			if c.byAlias[d] != el {
				t.Errorf("alias of %.8s points elsewhere", ce.art.Key)
			}
		}
		aliases += len(ce.aliases)
	}
	if aliases != len(c.byAlias) {
		t.Errorf("alias index holds %d digests, entries own %d", len(c.byAlias), aliases)
	}
	if !handOnList {
		t.Error("hand points at an element off the list")
	}
}
