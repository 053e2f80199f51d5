package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"protoquot/internal/api"
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
