package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"protoquot/internal/api"
	"protoquot/internal/codegen"
	"protoquot/internal/convrt"
	"protoquot/internal/dsl"
	"protoquot/internal/render"
)

// Cache is the content-addressed converter cache: an in-memory map keyed by
// api.CacheKey and bounded by SIEVE eviction (DESIGN.md §9, "Eviction"),
// with optional write-through persistence of envelope and converter
// artifacts to a directory. Entries are api.Artifact values — immutable
// once stored, so repeat requests (and shard peers) are served from them
// bit-identically. Renderings (DOT, Go source) are not stored; they are
// deterministic functions of the converter, recomputed on demand and, under
// disk persistence, written once as sibling artifacts.
//
// Beside the key index the cache keeps an alias index: the SHA-256 of a
// request body that the full request path resolved to an entry's key,
// stored with the request options that body decodes to. The aliases live on
// their entry, at most aliasesPerEntry of them, and leave with it, so the
// alias index is bounded by the cache's own bound. DESIGN.md §9 argues when
// a body digest may stand in for the key.
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List    // front = newest insertion; values are *cacheEntry
	hand    *list.Element // next eviction candidate; nil: start at the back
	byKey   map[string]*list.Element
	byAlias map[[sha256.Size]byte]*list.Element
	dir     string // "" disables persistence
	logf    func(format string, args ...any)

	hits, misses, evictions, aliasHits atomic.Int64
	diskHits, diskErrors               atomic.Int64
}

// cacheEntry is one stored artifact and the body digests that alias it,
// oldest first. visited records a hit since the hand last passed the entry.
type cacheEntry struct {
	art     *api.Artifact
	aliases []alias
	visited bool
}

// alias is one body digest of an entry and the options its body decodes to:
// an alias hit renders the response from them without decoding the body.
type alias struct {
	digest [sha256.Size]byte
	opts   api.DeriveOptions
}

// aliasesPerEntry bounds the body digests kept per entry. Bodies that differ
// only in what the key ignores (whitespace, renderings, timeouts) share an
// entry; past the bound the oldest alias is dropped, and its body takes the
// full path again.
const aliasesPerEntry = 4

// NewCache returns a cache bounded to max entries (min 1). dir, when
// non-empty, enables disk persistence: every stored entry is written
// through as <key>.json plus converter artifacts (<key>.spec, <key>.dot,
// and <key>.go when the converter is deterministic enough for codegen), and
// an in-memory miss falls back to <key>.json before counting as a miss —
// so a restarted daemon keeps its warm set. logf, when non-nil, receives
// persistence problems (they degrade the cache, never the request).
func NewCache(max int, dir string, logf func(format string, args ...any)) (*Cache, error) {
	if max < 1 {
		max = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: cache dir: %w", err)
		}
	}
	return &Cache{
		max:     max,
		ll:      list.New(),
		byKey:   make(map[string]*list.Element),
		byAlias: make(map[[sha256.Size]byte]*list.Element),
		dir:     dir,
		logf:    logf,
	}, nil
}

// Get returns the entry stored under key, consulting disk on an in-memory
// miss when persistence is enabled, and counts the lookup as a hit or a
// miss.
func (c *Cache) Get(key string) (*api.Artifact, bool) {
	return c.lookup(key, true)
}

// lookup is Get with the counting optional. Either way a hit marks the
// entry visited and a disk hit is promoted into memory; only count moves
// the hit, miss and disk-hit counters. A peer fill looks up uncounted: it
// is demand for the entry, but the requesting node counted the lookup.
func (c *Cache) lookup(key string, count bool) (*api.Artifact, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := visit(el)
		c.mu.Unlock()
		if count {
			c.hits.Add(1)
		}
		return e, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if e, ok := c.diskGet(key); ok {
			c.insert(e, false) // promote without re-writing to disk
			if count {
				c.hits.Add(1)
				c.diskHits.Add(1)
			}
			return e, true
		}
	}
	if count {
		c.misses.Add(1)
	}
	return nil, false
}

// GetAlias returns the in-memory entry that body digest d aliases and the
// request options recorded with d, counting a hit (and an alias hit) when
// there is one. A miss is not counted: the request goes on to decode its
// body and look up its key with Get.
func (c *Cache) GetAlias(d [sha256.Size]byte) (*api.Artifact, api.DeriveOptions, bool) {
	c.mu.Lock()
	el, ok := c.byAlias[d]
	if !ok {
		c.mu.Unlock()
		return nil, api.DeriveOptions{}, false
	}
	var opts api.DeriveOptions
	for _, a := range el.Value.(*cacheEntry).aliases {
		if a.digest == d {
			opts = a.opts
			break
		}
	}
	e := visit(el)
	c.mu.Unlock()
	c.hits.Add(1)
	c.aliasHits.Add(1)
	return e, opts, true
}

// Alias records body digest d, whose body decodes to options opts, as an
// alias of the in-memory entry stored under key. It does nothing when key
// is not in memory or d is already an alias. The caller vouches that the
// body's answer is the entry's whatever the spec registry holds: only
// all-inline bodies are aliased.
func (c *Cache) Alias(d [sha256.Size]byte, key string, opts api.DeriveOptions) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	if _, known := c.byAlias[d]; known {
		return
	}
	ce := el.Value.(*cacheEntry)
	if len(ce.aliases) == aliasesPerEntry {
		delete(c.byAlias, ce.aliases[0].digest)
		ce.aliases = append(ce.aliases[:0], ce.aliases[1:]...)
	}
	ce.aliases = append(ce.aliases, alias{digest: d, opts: opts})
	c.byAlias[d] = el
}

// peek returns the in-memory entry stored under key without counting a
// lookup: the flight path's re-check after the request's counted miss.
func (c *Cache) peek(key string) (*api.Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		return visit(el), true
	}
	return nil, false
}

// fetch returns the entry stored under key, in memory or on disk, without
// counting a lookup, marking the entry visited or promoting a disk entry:
// the preload read of a peer copying this node's cache, which is no demand
// for the entry and must not bend the hit counters or spare the entry from
// eviction.
func (c *Cache) fetch(key string) (*api.Artifact, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry).art
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		return c.diskGet(key)
	}
	return nil, false
}

// visit marks el's entry as hit and returns its artifact. A hit moves
// nothing: it only spares the entry from the hand's next pass.
func visit(el *list.Element) *api.Artifact {
	ce := el.Value.(*cacheEntry)
	ce.visited = true
	return ce.art
}

// Put stores an entry, evicting one entry first when the cache is full (the
// SIEVE policy, see evict) and writing through to disk when persistence is
// enabled.
func (c *Cache) Put(e *api.Artifact) {
	c.insert(e, c.dir != "")
}

func (c *Cache) insert(e *api.Artifact, persist bool) {
	c.mu.Lock()
	if el, ok := c.byKey[e.Key]; ok {
		ce := el.Value.(*cacheEntry)
		ce.art, ce.visited = e, true // same key, same answer: aliases stay
	} else {
		if c.ll.Len() >= c.max {
			c.evict()
		}
		c.byKey[e.Key] = c.ll.PushFront(&cacheEntry{art: e})
	}
	c.mu.Unlock()
	if persist {
		c.diskPut(e)
	}
}

// evict removes one entry, with its aliases, by SIEVE: the hand walks from
// where it stopped toward the front, wrapping to the back, clearing visited
// bits until it reaches an unvisited entry. That entry goes; the hand stays
// at its predecessor. The caller holds c.mu and evicts before inserting, so
// a newcomer is never its own victim.
func (c *Cache) evict() {
	el := c.hand
	if el == nil {
		el = c.ll.Back()
	}
	for ce := el.Value.(*cacheEntry); ce.visited; ce = el.Value.(*cacheEntry) {
		ce.visited = false
		if el = el.Prev(); el == nil {
			el = c.ll.Back()
		}
	}
	c.hand = el.Prev()
	old := c.ll.Remove(el).(*cacheEntry)
	delete(c.byKey, old.art.Key)
	for _, a := range old.aliases {
		delete(c.byAlias, a.digest)
	}
	c.evictions.Add(1)
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns the in-memory keys, oldest inserted first (the list from back
// to front) — the order a warm-start preload replays them through Put, so
// the receiving node's list keeps the sender's insertion order.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*cacheEntry).art.Key)
	}
	return out
}

// Counters returns the cumulative hit/miss/eviction/disk counters.
func (c *Cache) Counters() (hits, misses, evictions, diskHits, diskErrors int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(),
		c.diskHits.Load(), c.diskErrors.Load()
}

// AliasHits returns how many of the hits were found through a body digest.
func (c *Cache) AliasHits() int64 { return c.aliasHits.Load() }

// entryPath sanity-checks the key before using it as a file name: CacheKey
// only ever produces lowercase hex, so anything else is rejected rather
// than spliced into a path.
func (c *Cache) entryPath(key, ext string) (string, bool) {
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		return "", false
	}
	return filepath.Join(c.dir, key+ext), true
}

func (c *Cache) diskGet(key string) (*api.Artifact, bool) {
	p, ok := c.entryPath(key, ".json")
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	var e api.Artifact
	err = json.Unmarshal(data, &e)
	var tableErr error
	if err == nil {
		tableErr, err = checkArtifact(&e, key)
	}
	if err != nil {
		c.diskErrors.Add(1)
		c.logf("cache: corrupt entry %s: %v", p, err)
		return nil, false
	}
	if tableErr != nil {
		c.diskErrors.Add(1)
		c.logf("cache: corrupt table in %s: %v (dropping that artifact class)", p, tableErr)
	}
	return &e, true
}

// checkArtifact vets an artifact that comes from outside this node's memory
// — the disk store or a peer — before it is cached or served. One filed
// under a key other than key is rejected (err). The compiled-table class is
// validated independently: a table that does not decode is a miss for that
// class only, never for the artifact, so it is dropped (tableErr says why)
// and, like a missing one, rebuilt from the converter, which remains the
// source of truth.
func checkArtifact(e *api.Artifact, key string) (tableErr, err error) {
	if e.Key != key {
		return nil, fmt.Errorf("artifact filed under key %s, want %s", shortKey(e.Key), shortKey(key))
	}
	if e.Table != "" {
		if _, tableErr = convrt.Decode([]byte(e.Table)); tableErr != nil {
			e.Table = ""
		}
	}
	if e.Table == "" && e.Exists && e.Converter != "" {
		if conv, err := dsl.ParseString(e.Converter); err == nil {
			if table, err := convrt.CompileEncoded(conv); err == nil {
				e.Table = string(table)
			}
		}
	}
	return tableErr, nil
}

// diskPut writes the envelope and the converter artifacts. Each file is
// written atomically (temp + rename) so a crashed daemon never leaves a
// half-written entry for its successor to trust.
func (c *Cache) diskPut(e *api.Artifact) {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		c.diskErrors.Add(1)
		c.logf("cache: marshal %s: %v", e.Key, err)
		return
	}
	c.writeAtomic(e.Key, ".json", data)
	if !e.Exists || e.Converter == "" {
		return
	}
	c.writeAtomic(e.Key, ".spec", []byte(e.Converter))
	conv, err := dsl.ParseString(e.Converter)
	if err != nil {
		c.diskErrors.Add(1)
		c.logf("cache: reparse converter %s: %v", e.Key, err)
		return
	}
	c.writeAtomic(e.Key, ".dot", []byte(render.DOTString(conv, render.DOTOptions{})))
	// Codegen requires a deterministic converter; the maximal converter
	// usually is not, so a failure here is expected and not an error.
	if src, err := codegen.Generate(conv, codegen.Config{Package: "converter"}); err == nil {
		c.writeAtomic(e.Key, ".go", src)
	}
	// The compiled-table sidecar is the execution runtime's artifact class:
	// <key>.table is directly loadable by `convrt -table`. Prefer the bytes
	// already on the artifact; rebuild them when an older producer omitted
	// them. Same eligibility as codegen, so failures are likewise expected.
	table := []byte(e.Table)
	if len(table) == 0 {
		if t, err := convrt.CompileEncoded(conv); err == nil {
			table = t
		}
	}
	if len(table) > 0 {
		c.writeAtomic(e.Key, ".table", table)
	}
}

func (c *Cache) writeAtomic(key, ext string, data []byte) {
	p, ok := c.entryPath(key, ext)
	if !ok {
		c.diskErrors.Add(1)
		c.logf("cache: refusing non-hex key %q", key)
		return
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		c.diskErrors.Add(1)
		c.logf("cache: write %s: %v", tmp, err)
		return
	}
	if err := os.Rename(tmp, p); err != nil {
		c.diskErrors.Add(1)
		c.logf("cache: rename %s: %v", p, err)
		os.Remove(tmp)
	}
}
