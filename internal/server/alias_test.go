package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"protoquot/internal/api"
	"protoquot/internal/dsl"
	"protoquot/internal/specgen"
)

// post sends body to POST /v1/derive; safe to call from any goroutine.
func post(url string, body []byte) (*api.DeriveResponse, int, error) {
	resp, err := http.Post(url+"/v1/derive", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out api.DeriveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, fmt.Errorf("decode response: %w", err)
	}
	return &out, resp.StatusCode, nil
}

func postRaw(t *testing.T, url string, body []byte) (*api.DeriveResponse, int) {
	t.Helper()
	out, code, err := post(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return out, code
}

func uploadSpecs(t *testing.T, url, text string) {
	t.Helper()
	body, _ := json.Marshal(api.SpecUploadRequest{Text: text})
	resp, err := http.Post(url+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
}

// TestCachedKeyIsNotDerivedTwice forces the interleaving that used to run
// the engine twice for one key: a request misses the cache, and before it
// reaches the flight group another request's flight derives the key, stores
// it and leaves the flight map. The flight must find the stored entry.
func TestCachedKeyIsNotDerivedTwice(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	missed, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	s.afterMiss = func(string) {
		if first.CompareAndSwap(false, true) {
			close(missed)
			<-release
		}
	}
	body, _ := json.Marshal(simpleRequest())
	late := make(chan *api.DeriveResponse, 1)
	go func() {
		out, code, err := post(ts.URL, body)
		if err != nil || code != http.StatusOK {
			t.Errorf("held request: status %d, error %v", code, err)
			out = &api.DeriveResponse{}
		}
		late <- out
	}()
	<-missed
	early, code := postDerive(t, ts.URL, simpleRequest())
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, early.Error)
	}
	close(release)
	held := <-late

	st := getStats(t, ts.URL)
	if st.Derives != 1 {
		t.Fatalf("engine ran %d times for one key, want 1", st.Derives)
	}
	if !held.Cached || held.Converter != early.Converter || held.Key != early.Key {
		t.Errorf("held request: cached=%t, same answer=%t; want the stored entry", held.Cached,
			held.Converter == early.Converter && held.Key == early.Key)
	}
	if st.CacheHits+st.CacheMisses != st.DeriveRequests {
		t.Errorf("cache hits %d + misses %d != derive requests %d", st.CacheHits, st.CacheMisses, st.DeriveRequests)
	}
}

// TestRefRequestsNeverTakeAlias re-uploads a spec under the same name: the
// same by-ref body must then reach the new spec's answer, so by-ref bodies
// are never looked up by digest.
func TestRefRequestsNeverTakeAlias(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadSpecs(t, ts.URL, serviceText+worldText)
	req := api.DeriveRequest{Service: api.SpecSource{Ref: "S"}, Envs: []api.SpecSource{{Ref: "B"}}}
	first, _ := postDerive(t, ts.URL, req)
	again, _ := postDerive(t, ts.URL, req)
	if !first.Exists || !again.Cached || again.Key != first.Key {
		t.Fatalf("by-ref derivation and its repeat: %+v / %+v", first, again)
	}
	// B renamed from the doomed world: no converter exists for it.
	uploadSpecs(t, ts.URL, "spec B\ninit b0\next b0 del b1\next b1 fwd b0\next b0 acc b0\n")
	after, code := postDerive(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, after.Error)
	}
	if after.Key == first.Key || after.Exists || after.Cached {
		t.Errorf("after re-upload: key changed %t, exists %t, cached %t; want a fresh nonexistence answer",
			after.Key != first.Key, after.Exists, after.Cached)
	}
	if st := getStats(t, ts.URL); st.CacheAliasHits != 0 {
		t.Errorf("by-ref requests took %d alias hit(s), want 0", st.CacheAliasHits)
	}
}

// TestEvictionDropsAliases evicts an aliased entry: its body must take the
// full path again, and the alias index must not outgrow the cache.
func TestEvictionDropsAliases(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	x := simpleRequest()
	y := api.DeriveRequest{Service: api.SpecSource{Inline: serviceText}, Envs: []api.SpecSource{{Inline: doomedWorld}}}
	postDerive(t, ts.URL, x)
	if out, _ := postDerive(t, ts.URL, x); !out.Cached {
		t.Fatal("repeat not cached")
	}
	if st := getStats(t, ts.URL); st.CacheAliasHits != 1 {
		t.Fatalf("alias hits %d after one repeat, want 1", st.CacheAliasHits)
	}
	postDerive(t, ts.URL, y) // evicts x
	s.cache.mu.Lock()
	aliases := len(s.cache.byAlias)
	s.cache.mu.Unlock()
	if aliases != 1 {
		t.Errorf("alias index holds %d digest(s) after eviction, want 1 (y's)", aliases)
	}
	out, _ := postDerive(t, ts.URL, x)
	st := getStats(t, ts.URL)
	if out.Cached || st.CacheAliasHits != 1 || st.Derives != 3 {
		t.Errorf("evicted body: cached %t, alias hits %d, derives %d; want false, 1, 3", out.Cached, st.CacheAliasHits, st.Derives)
	}
}

// TestWhitespaceBodyTakesFullPath sends a body that differs from a cached
// one only in whitespace: its digest is new, so it reaches the same key
// through the full path and becomes an alias itself.
func TestWhitespaceBodyTakesFullPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	compact, _ := json.Marshal(simpleRequest())
	spaced, _ := json.MarshalIndent(simpleRequest(), " ", "\t")
	first, _ := postRaw(t, ts.URL, compact)
	out, code := postRaw(t, ts.URL, spaced)
	if code != http.StatusOK || out.Key != first.Key || !out.Cached {
		t.Fatalf("whitespace variant: status %d, same key %t, cached %t", code, out.Key == first.Key, out.Cached)
	}
	if st := getStats(t, ts.URL); st.CacheAliasHits != 0 || st.CacheHits != 1 {
		t.Errorf("whitespace variant: alias hits %d, hits %d; want 0, 1 (a full-path hit)", st.CacheAliasHits, st.CacheHits)
	}
	again, _ := postRaw(t, ts.URL, spaced)
	if st := getStats(t, ts.URL); again.Key != first.Key || st.CacheAliasHits != 1 {
		t.Errorf("repeat of the whitespace variant: same key %t, alias hits %d; want true, 1", again.Key == first.Key, st.CacheAliasHits)
	}
}

// TestLookupsMatchDeriveRequests runs a mixed load of valid requests —
// inline and by-ref, repeats, whitespace variants, a nonexistence answer,
// concurrent identical requests — and requires one counted cache lookup per
// derive request, whichever path served it.
func TestLookupsMatchDeriveRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 2})
	uploadSpecs(t, ts.URL, serviceText+worldText)
	compact, _ := json.Marshal(simpleRequest())
	spaced, _ := json.MarshalIndent(simpleRequest(), "", "  ")
	doomed, _ := json.Marshal(api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
		Envs: []api.SpecSource{{Inline: doomedWorld}}})
	pruned := simpleRequest()
	pruned.Options.Prune = true
	prunedBody, _ := json.Marshal(pruned)
	byRef, _ := json.Marshal(api.DeriveRequest{Service: api.SpecSource{Ref: "S"}, Envs: []api.SpecSource{{Ref: "B"}}})
	bodies := [][]byte{compact, spaced, doomed, prunedBody, byRef}

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if _, code, err := post(ts.URL, bodies[(i+c)%len(bodies)]); err != nil || code != http.StatusOK {
					t.Errorf("status %d, error %v", code, err)
				}
			}
		}(c)
	}
	wg.Wait()
	st := getStats(t, ts.URL)
	if st.CacheHits+st.CacheMisses != st.DeriveRequests {
		t.Errorf("cache hits %d + misses %d != derive requests %d", st.CacheHits, st.CacheMisses, st.DeriveRequests)
	}
	if st.CacheAliasHits == 0 || st.CacheAliasHits > st.CacheHits {
		t.Errorf("alias hits %d, hits %d: want some alias hits, no more than the hits", st.CacheAliasHits, st.CacheHits)
	}
}

// aliasHits returns the server's alias-hit counter.
func aliasHits(t *testing.T, url string) int64 {
	t.Helper()
	return getStats(t, url).CacheAliasHits
}

// TestAliasCarriesItsBodysOptions sends two bodies for one key that differ
// only in their renderings. Each repeat is answered by digest with the
// renderings its own body asked for.
func TestAliasCarriesItsBodysOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	withTable, withDOT := simpleRequest(), simpleRequest()
	withTable.Options.IncludeTable = true
	withDOT.Options.IncludeDOT = true
	tableBody, _ := json.Marshal(withTable)
	dotBody, _ := json.Marshal(withDOT)
	postRaw(t, ts.URL, tableBody)
	postRaw(t, ts.URL, dotBody)
	for i, tc := range []struct {
		body       []byte
		table, dot bool
	}{{tableBody, true, false}, {dotBody, false, true}} {
		out, code := postRaw(t, ts.URL, tc.body)
		if code != http.StatusOK || !out.Cached {
			t.Fatalf("repeat %d: status %d, cached %t", i, code, out.Cached)
		}
		if got := aliasHits(t, ts.URL); got != int64(i+1) {
			t.Errorf("repeat %d: alias hits %d, want %d", i, got, i+1)
		}
		if (out.Table != "") != tc.table || (out.DOT != "") != tc.dot {
			t.Errorf("repeat %d: table %t, dot %t; want %t, %t", i, out.Table != "", out.DOT != "", tc.table, tc.dot)
		}
	}
}

// TestTrailingWhitespaceSharesAlias: a body followed by JSON whitespace
// hits the alias of the same body without it.
func TestTrailingWhitespaceSharesAlias(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(simpleRequest())
	first, _ := postRaw(t, ts.URL, body)
	for i, tail := range []string{"\n", " \t\r\n"} {
		out, code := postRaw(t, ts.URL, append(append([]byte(nil), body...), tail...))
		if code != http.StatusOK || out.Key != first.Key {
			t.Fatalf("tail %q: status %d, same key %t", tail, code, out.Key == first.Key)
		}
		if got := aliasHits(t, ts.URL); got != int64(i+1) {
			t.Errorf("tail %q: alias hits %d, want %d", tail, got, i+1)
		}
	}
}

// TestBytesAfterTheValue: what follows a body's JSON value is ignored by the
// decode, as before; the whole body is the alias, so its repeat hits. When
// those bytes take the body past MaxBodyBytes, the request is rejected.
func TestBytesAfterTheValue(t *testing.T) {
	body, _ := json.Marshal(simpleRequest())
	trailed := append(append([]byte(nil), body...), `{"not":"read"}`...)
	_, ts := newTestServer(t, Config{})
	first, _ := postRaw(t, ts.URL, body)
	out, code := postRaw(t, ts.URL, trailed)
	if code != http.StatusOK || out.Key != first.Key || aliasHits(t, ts.URL) != 0 {
		t.Fatalf("trailed body: status %d, same key %t; want a full-path answer for the same key", code, out.Key == first.Key)
	}
	postRaw(t, ts.URL, trailed)
	if got := aliasHits(t, ts.URL); got != 1 {
		t.Errorf("repeat of the trailed body: alias hits %d, want 1", got)
	}

	_, small := newTestServer(t, Config{MaxBodyBytes: int64(len(body)) + 4})
	if out, code := postRaw(t, small.URL, body); code != http.StatusOK {
		t.Fatalf("body within the bound: status %d: %+v", code, out.Error)
	}
	out, code = postRaw(t, small.URL, trailed)
	if code != http.StatusBadRequest || out.Error == nil || out.Error.Code != api.ErrCodeBadRequest ||
		out.Error.Message != "body: http: request body too large" {
		t.Errorf("trailed body past the bound: status %d, error %+v; want 400 bad_request, body too large", code, out.Error)
	}
}

// TestPeerReadsAreNotLookups copies a node's cache to a fresh one: the
// origin's counters must not move, and no entry may be marked visited. A
// key evicted to disk is served to a peer without being promoted.
func TestPeerReadsAreNotLookups(t *testing.T) {
	origin, originTS := newTestServer(t, Config{CacheEntries: 1, CacheDir: t.TempDir()})
	evicted, _ := postDerive(t, originTS.URL, api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
		Envs: []api.SpecSource{{Inline: doomedWorld}}})
	postDerive(t, originTS.URL, simpleRequest())
	visited := func() (n int) {
		origin.cache.mu.Lock()
		defer origin.cache.mu.Unlock()
		for el := origin.cache.ll.Front(); el != nil; el = el.Next() {
			if el.Value.(*cacheEntry).visited {
				n++
			}
		}
		return n
	}
	if n := visited(); n != 0 {
		t.Fatalf("%d entries visited before the preload, want 0", n)
	}
	before := origin.statsSnapshot()
	fresh, _ := newTestServer(t, Config{})
	addr := strings.TrimPrefix(originTS.URL, "http://")
	if n, err := fresh.PreloadFromPeer(context.Background(), addr); err != nil || n != 1 {
		t.Fatalf("preloaded %d artifacts (error %v), want 1", n, err)
	}
	if n := visited(); n != 0 {
		t.Errorf("%d entries visited after the preload, want 0", n)
	}
	if _, err := api.NewClient(addr).PeerArtifact(context.Background(), addr, evicted.Key); err != nil {
		t.Fatalf("peer read of the key on disk: %v", err)
	}
	after := origin.statsSnapshot()
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses ||
		after.DeriveRequests != before.DeriveRequests {
		t.Errorf("peer reads moved the origin's hits/misses/derive requests: %d/%d/%d → %d/%d/%d",
			before.CacheHits, before.CacheMisses, before.DeriveRequests,
			after.CacheHits, after.CacheMisses, after.DeriveRequests)
	}
	if keys := origin.cache.Keys(); len(keys) != 1 || keys[0] == evicted.Key {
		t.Errorf("origin's in-memory keys after the peer reads: %v; the disk entry must not be promoted", keys)
	}
}

// componentsBody is an all-inline body whose environment is the world spec
// composed with n-1 specs that have no events, so its answer is the simple
// request's while its size grows with n.
func componentsBody(t testing.TB, n int) []byte {
	t.Helper()
	req := api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
		Components: []api.SpecSource{{Inline: worldText}}}
	for i := 1; i < n; i++ {
		req.Components = append(req.Components, api.SpecSource{Inline: fmt.Sprintf("spec Idle%d\ninit z0\n", i)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// serve runs one POST /v1/derive through h in-process.
func serve(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/derive", bytes.NewReader(body)))
	return rec
}

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops items at random and allocation counts wander.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "-race" {
				return st.Value == "true"
			}
		}
	}
	return false
}

// TestAliasHitAllocsIndependentOfSpecs: an alias hit decodes nothing, so its
// allocations do not grow with the number of inline specs in the body.
func TestAliasHitAllocsIndependentOfSpecs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s, _ := newTestServer(t, Config{Logf: func(string, ...any) {}})
	h := s.Handler()
	allocs := make(map[int]float64)
	for _, n := range []int{2, 12} {
		body := componentsBody(t, n)
		for i := 0; i < 2; i++ {
			if rec := serve(h, body); rec.Code != http.StatusOK {
				t.Fatalf("%d components: status %d: %s", n, rec.Code, rec.Body)
			}
		}
		before := s.cache.AliasHits()
		allocs[n] = testing.AllocsPerRun(50, func() { serve(h, body) })
		if got := s.cache.AliasHits() - before; got < 50 {
			t.Fatalf("%d components: %d alias hits over 51 runs", n, got)
		}
	}
	t.Logf("allocations per alias hit: %.0f with 2 components, %.0f with 12", allocs[2], allocs[12])
	if allocs[12] > allocs[2] {
		t.Errorf("allocations per alias hit: %.0f with 2 components, %.0f with 12", allocs[2], allocs[12])
	}
}

// TestDeclaredLengthDoesNotSizeTheBuffer: a client may declare the largest
// allowed Content-Length and then stall after its headers; the handler must
// not allocate the declared length before the bytes arrive. A short body
// that declares MaxBodyBytes may cost bodyPresize more than the same body
// declaring its true length, rounded up to an allocation size class.
func TestDeclaredLengthDoesNotSizeTheBuffer(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation sizes are not stable under the race detector")
	}
	s, _ := newTestServer(t, Config{Logf: func(string, ...any) {}})
	h := s.Handler()
	body := componentsBody(t, 2)
	serve(h, body)
	allocated := func(declared int64) uint64 {
		least := uint64(1<<63 - 1)
		for i := 0; i < 5; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/derive", bytes.NewReader(body))
			req.ContentLength = declared
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(httptest.NewRecorder(), req)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	honest, declared := allocated(int64(len(body))), allocated(s.cfg.MaxBodyBytes)
	t.Logf("a %d-byte body allocated %d bytes declaring its length, %d declaring %d",
		len(body), honest, declared, s.cfg.MaxBodyBytes)
	if declared > honest+2*bodyPresize {
		t.Errorf("declaring %d bytes cost %d bytes more than declaring %d",
			s.cfg.MaxBodyBytes, declared-honest, len(body))
	}
}

// BenchmarkAliasHit serves a repeated body the size of the serve benchmark's
// (chain(3) as components, pruned, with its table) through the handler: the
// alias-hit path from raw body to response bytes.
func BenchmarkAliasHit(b *testing.B) {
	s, err := New(Config{Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Abort()
	f := specgen.Chain(3)
	req := api.DeriveRequest{Service: api.SpecSource{Inline: dsl.String(f.Service)},
		Options: api.DeriveOptions{OmitVacuous: true, Prune: true, IncludeTable: true}}
	for _, c := range f.Components {
		req.Components = append(req.Components, api.SpecSource{Inline: dsl.String(c)})
	}
	body, _ := json.Marshal(req)
	h := s.Handler()
	for i := 0; i < 2; i++ {
		if rec := serve(h, body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	before := s.cache.AliasHits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(h, body)
	}
	b.StopTimer()
	if got := s.cache.AliasHits() - before; got != int64(b.N) {
		b.Fatalf("%d alias hits over %d requests", got, b.N)
	}
}

// TestPeerFillsAreNotLookups: a peer fill is shard traffic, so the owner
// counts no cache hit or miss for it, just as it counts no derive request,
// and DESIGN §9's hits + misses = derive requests holds on every node of a
// cluster. Two fills of one key on a fresh node derive it once and serve
// it from the cache the second time.
func TestPeerFillsAreNotLookups(t *testing.T) {
	owner, ts := newTestServer(t, Config{})
	addr := strings.TrimPrefix(ts.URL, "http://")
	req := simpleRequest()
	for i, wantCached := range []bool{false, true} {
		resp, err := api.NewClient(addr).PeerFill(context.Background(), addr, &req)
		if err != nil {
			t.Fatalf("peer fill %d: %v", i+1, err)
		}
		if resp.Cached != wantCached {
			t.Errorf("peer fill %d: cached %t, want %t", i+1, resp.Cached, wantCached)
		}
	}
	st := owner.statsSnapshot()
	if st.CacheHits+st.CacheMisses != st.DeriveRequests {
		t.Errorf("after two peer fills: cache_hits %d + cache_misses %d != derive_requests %d",
			st.CacheHits, st.CacheMisses, st.DeriveRequests)
	}
	if st.Derives != 1 {
		t.Errorf("after two peer fills: derives %d, want 1", st.Derives)
	}
}

// TestPeerFillIsDemand: a peer fill counts no lookup, but it is demand for
// the key, so it marks a cached entry visited (SIEVE spares it) and
// promotes an entry held only on disk back into memory, as Get does.
func TestPeerFillIsDemand(t *testing.T) {
	owner, ts := newTestServer(t, Config{CacheEntries: 1, CacheDir: t.TempDir()})
	addr := strings.TrimPrefix(ts.URL, "http://")
	req := simpleRequest()
	fill := func(step string) *api.PeerFillResponse {
		t.Helper()
		resp, err := api.NewClient(addr).PeerFill(context.Background(), addr, &req)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return resp
	}
	state := func(key string) (inMemory, visited bool) {
		owner.cache.mu.Lock()
		defer owner.cache.mu.Unlock()
		el, ok := owner.cache.byKey[key]
		if !ok {
			return false, false
		}
		return true, el.Value.(*cacheEntry).visited
	}
	key := fill("first fill").Artifact.Key
	if in, vis := state(key); !in || vis {
		t.Fatalf("after the deriving fill: in memory %t, visited %t; want true, false", in, vis)
	}
	if resp := fill("second fill"); !resp.Cached {
		t.Fatalf("second fill was not served from the cache")
	}
	if in, vis := state(key); !in || !vis {
		t.Errorf("after a cached fill: in memory %t, visited %t; want true, true", in, vis)
	}
	postDerive(t, ts.URL, api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
		Envs: []api.SpecSource{{Inline: doomedWorld}}})
	if in, _ := state(key); in {
		t.Fatalf("the one-entry cache still holds the filled key after another derivation")
	}
	if resp := fill("fill from disk"); !resp.Cached {
		t.Fatalf("fill of the key on disk was not served from the cache")
	}
	if in, vis := state(key); !in || vis {
		t.Errorf("after a fill from disk: in memory %t, visited %t; want true, false (promoted)", in, vis)
	}
	st := owner.statsSnapshot()
	if st.CacheHits+st.CacheMisses != st.DeriveRequests || st.CacheDiskHits != 0 {
		t.Errorf("cache_hits %d + cache_misses %d, derive_requests %d, disk_hits %d; want hits + misses = requests, no disk hit counted",
			st.CacheHits, st.CacheMisses, st.DeriveRequests, st.CacheDiskHits)
	}
}
