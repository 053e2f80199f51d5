package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/specgen"
)

const serviceText = `
spec S
init v0
ext v0 acc v1
ext v1 del v0
`

const worldText = `
spec B
init b0
ext b0 acc b1
ext b1 fwd b2
ext b2 del b0
`

// doomedWorld can emit del immediately, which the service forbids before
// acc: no converter exists (safety phase, with witness del).
const doomedWorld = `
spec D
init b0
ext b0 del b1
ext b1 fwd b0
ext b0 acc b0
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Abort)
	return s, ts
}

func postDerive(t *testing.T, url string, req api.DeriveRequest) (*api.DeriveResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/derive", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.DeriveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &out, resp.StatusCode
}

func getStats(t *testing.T, url string) api.StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func simpleRequest() api.DeriveRequest {
	return api.DeriveRequest{
		Service: api.SpecSource{Inline: serviceText},
		Envs:    []api.SpecSource{{Inline: worldText}},
	}
}

func TestDeriveEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	out, code := postDerive(t, ts.URL, simpleRequest())
	if code != http.StatusOK {
		t.Fatalf("status %d, error: %+v", code, out.Error)
	}
	if !out.Exists || out.Converter == "" {
		t.Fatalf("expected a converter, got %+v", out)
	}
	if out.Cached || out.Coalesced {
		t.Errorf("first request cannot be cached or coalesced: %+v", out)
	}
	if len(out.Key) != 64 {
		t.Errorf("key should be a hex sha256, got %q", out.Key)
	}
	if out.Stats == nil || out.Stats.FinalStates == 0 {
		t.Errorf("stats missing: %+v", out.Stats)
	}
	// The wire converter must verify against the inputs end to end.
	c, err := dsl.ParseString(out.Converter)
	if err != nil {
		t.Fatalf("converter does not parse: %v", err)
	}
	a, _ := dsl.ParseString(serviceText)
	b, _ := dsl.ParseString(worldText)
	if err := core.Verify(a, b, c); err != nil {
		t.Errorf("B‖C does not satisfy A: %v", err)
	}
}

func TestRepeatRequestServedFromCacheBitIdentically(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, code := postDerive(t, ts.URL, simpleRequest())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	second, code := postDerive(t, ts.URL, simpleRequest())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Cached {
		t.Error("first request claims cached")
	}
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	// Bit-identical modulo per-request fields: normalize those, then the
	// envelopes must match byte for byte.
	norm := func(r api.DeriveResponse) string {
		r.RequestID, r.Cached, r.Coalesced, r.ElapsedMS = "", false, false, 0
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := norm(*first), norm(*second); a != b {
		t.Errorf("cached response differs from the original:\n first: %s\nsecond: %s", a, b)
	}
	st := getStats(t, ts.URL)
	if st.Derives != 1 {
		t.Errorf("engine ran %d times for two identical requests, want 1", st.Derives)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 4})
	// Hold the flight leader inside the engine until both requests are in
	// the system, so the second request must join the first's flight.
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.preDerive = func(key string) {
		once.Do(func() { close(entered) })
		<-release
	}
	type result struct {
		out  *api.DeriveResponse
		code int
	}
	results := make(chan result, 2)
	post := func() {
		out, code := postDerive(t, ts.URL, simpleRequest())
		results <- result{out, code}
	}
	go post()
	<-entered // leader is inside the engine
	go post()
	// The follower has no engine hook to rendezvous on; give it a moment to
	// reach the flight, then let the leader finish.
	for i := 0; i < 200; i++ {
		st := getStats(t, ts.URL)
		if st.DeriveRequests >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)

	var coalesced int
	var converters []string
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("status %d: %+v", r.code, r.out.Error)
		}
		if r.out.Coalesced {
			coalesced++
		}
		converters = append(converters, r.out.Converter)
	}
	if converters[0] != converters[1] {
		t.Error("coalesced requests returned different converters")
	}
	st := getStats(t, ts.URL)
	if st.Derives != 1 {
		t.Errorf("two identical concurrent requests ran the engine %d times, want 1 (singleflight)", st.Derives)
	}
	if st.Coalesced != 1 || coalesced != 1 {
		t.Errorf("expected exactly one coalesced request, stats=%d envelope=%d", st.Coalesced, coalesced)
	}
}

func TestNoConverterIsDefinitiveAndCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.DeriveRequest{
		Service: api.SpecSource{Inline: serviceText},
		Envs:    []api.SpecSource{{Inline: doomedWorld}},
	}
	out, code := postDerive(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("nonexistence should be a definitive 200, got %d", code)
	}
	if out.Exists {
		t.Fatal("converter should not exist")
	}
	if out.Error == nil || out.Error.Code != api.ErrCodeNoQuotient {
		t.Fatalf("want no_quotient error, got %+v", out.Error)
	}
	if out.Error.Phase != "safety" || len(out.Error.Witness) == 0 {
		t.Errorf("want safety-phase proof with witness, got %+v", out.Error)
	}
	again, _ := postDerive(t, ts.URL, req)
	if !again.Cached {
		t.Error("nonexistence proof should be cached")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  api.DeriveRequest
		code int
		werr string
	}{
		{"no sources", api.DeriveRequest{Service: api.SpecSource{Inline: serviceText}}, 400, api.ErrCodeBadRequest},
		{"both kinds", api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
			Envs:       []api.SpecSource{{Inline: worldText}},
			Components: []api.SpecSource{{Inline: worldText}}}, 400, api.ErrCodeBadRequest},
		{"bad dsl", api.DeriveRequest{Service: api.SpecSource{Inline: "spec"},
			Envs: []api.SpecSource{{Inline: worldText}}}, 400, api.ErrCodeBadSpec},
		{"unknown ref", api.DeriveRequest{Service: api.SpecSource{Ref: "nope"},
			Envs: []api.SpecSource{{Inline: worldText}}}, 404, api.ErrCodeNotFound},
		{"bad engine", api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
			Components: []api.SpecSource{{Inline: worldText}},
			Options:    api.DeriveOptions{Engine: "warp"}}, 400, api.ErrCodeBadRequest},
		{"bad go_package", api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
			Envs:    []api.SpecSource{{Inline: worldText}},
			Options: api.DeriveOptions{IncludeGo: true, GoPackage: "my-pkg"}}, 400, api.ErrCodeBadRequest},
	}
	for _, tc := range cases {
		out, code := postDerive(t, ts.URL, tc.req)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
		if out.Error == nil || out.Error.Code != tc.werr {
			t.Errorf("%s: error %+v, want code %s", tc.name, out.Error, tc.werr)
		}
	}
	// Every rejection comes before the engine runs.
	if st := getStats(t, ts.URL); st.Derives != 0 {
		t.Errorf("derives = %d after bad requests only, want 0", st.Derives)
	}
}

func TestSpecUploadAndDeriveByRef(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(api.SpecUploadRequest{Text: serviceText + worldText})
	resp, err := http.Post(ts.URL+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var up api.SpecListResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(up.Specs) != 2 {
		t.Fatalf("uploaded 2 specs, registered %d", len(up.Specs))
	}
	for _, info := range up.Specs {
		if len(info.Hash) != 64 {
			t.Errorf("spec %s: bad hash %q", info.Name, info.Hash)
		}
	}

	out, code := postDerive(t, ts.URL, api.DeriveRequest{
		Service: api.SpecSource{Ref: "S"},
		Envs:    []api.SpecSource{{Ref: "B"}},
	})
	if code != http.StatusOK || !out.Exists {
		t.Fatalf("derive by ref failed: %d %+v", code, out.Error)
	}

	// By-ref and inline requests with the same content share a cache key.
	inline, _ := postDerive(t, ts.URL, simpleRequest())
	if inline.Key != out.Key {
		t.Errorf("inline and by-ref keys differ: %s vs %s", inline.Key, out.Key)
	}
	if !inline.Cached {
		t.Error("inline request after identical by-ref derivation should hit the cache")
	}

	// GET endpoints round-trip.
	got, err := http.Get(ts.URL + "/v1/specs/S")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := readAll(got)
	if !strings.Contains(text, "spec S") {
		t.Errorf("GET /v1/specs/S returned %q", text)
	}
	missing, err := http.Get(ts.URL + "/v1/specs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("GET of unknown spec: %d, want 404", missing.StatusCode)
	}
}

func TestComponentsLazyAndIndexedShareCacheKey(t *testing.T) {
	// "indexed" is still accepted on the wire and runs the lazy pipeline;
	// engine choice is excluded from the key, so a request naming it warms
	// the cache for one naming "lazy".
	_, ts := newTestServer(t, Config{})
	f := specgen.Chain(2)
	comps := make([]api.SpecSource, len(f.Components))
	for i, c := range f.Components {
		comps[i] = api.SpecSource{Inline: dsl.String(c)}
	}
	req := api.DeriveRequest{
		Service:    api.SpecSource{Inline: dsl.String(f.Service)},
		Components: comps,
		Options:    api.DeriveOptions{Engine: "indexed"},
	}
	first, code := postDerive(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, first.Error)
	}
	req.Options.Engine = "lazy"
	second, code := postDerive(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !second.Cached {
		t.Error("lazy request should be served from the indexed derivation's cache entry")
	}
	if first.Key != second.Key {
		t.Errorf("keys differ across engines: %s vs %s", first.Key, second.Key)
	}
	// Workers likewise must not fragment the cache.
	req.Options.Workers = 4
	third, _ := postDerive(t, ts.URL, req)
	if !third.Cached {
		t.Error("worker count fragments the cache key")
	}
}

func TestOverloadShedsWith503(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1, MaxQueue: -1})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.preDerive = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, code := postDerive(t, ts.URL, simpleRequest())
		if code != http.StatusOK {
			t.Errorf("occupying request failed: %d %+v", code, out.Error)
		}
	}()
	<-entered
	// Different key (different option in the keyed set) so it cannot join
	// the first request's flight: it must be shed at the pool.
	req := simpleRequest()
	req.Options.OmitVacuous = true
	out, code := postDerive(t, ts.URL, req)
	if code != http.StatusServiceUnavailable {
		t.Errorf("expected 503 under overload, got %d (%+v)", code, out.Error)
	}
	if out.Error == nil || out.Error.Code != api.ErrCodeQueueFull {
		t.Errorf("want queue_full error, got %+v", out.Error)
	}
	close(release)
	<-done
	if st := getStats(t, ts.URL); st.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Rejected)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("readyz before drain = %d", got)
	}
	s.StartDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (liveness != readiness)", got)
	}
	if !getStats(t, ts.URL).Draining {
		t.Error("stats should report draining")
	}
}

func TestDeriveTimeout(t *testing.T) {
	// A deadline far below the derivation cost must produce 504 and count a
	// timeout; nothing may be cached for the key.
	_, ts := newTestServer(t, Config{DefaultTimeout: 1 * time.Nanosecond})
	out, code := postDerive(t, ts.URL, simpleRequest())
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%+v)", code, out.Error)
	}
	if out.Error == nil || out.Error.Code != api.ErrCodeDeadline {
		t.Fatalf("want deadline error, got %+v", out.Error)
	}
	st := getStats(t, ts.URL)
	if st.Timeouts == 0 {
		t.Error("timeout not counted")
	}
	if st.CacheEntries != 0 {
		t.Error("timed-out derivation must not populate the cache")
	}
}

func TestArtifactRenderings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := simpleRequest()
	req.Options.IncludeDOT = true
	req.Options.IncludeGo = true
	req.Options.Minimize = true // deterministic converter → codegen succeeds
	req.Options.Prune = true
	out, code := postDerive(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, out.Error)
	}
	if !strings.Contains(out.DOT, "digraph") {
		t.Errorf("DOT rendering missing: %q", out.DOT)
	}
	if !strings.Contains(out.GoSource, "package converter") {
		t.Errorf("Go rendering missing: %q", out.GoSource)
	}
	// Renderings are derived on demand: the cache entry stores only the
	// converter, and a repeat without renderings omits them.
	plain := simpleRequest()
	plain.Options.Minimize = true
	plain.Options.Prune = true
	out2, _ := postDerive(t, ts.URL, plain)
	if !out2.Cached {
		t.Error("rendering options must not fragment the cache key")
	}
	if out2.DOT != "" || out2.GoSource != "" {
		t.Error("renderings returned without being requested")
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), err
		}
	}
}

func TestStatsLatencyQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if _, code := postDerive(t, ts.URL, simpleRequest()); code != 200 {
			t.Fatalf("request %d failed", i)
		}
	}
	st := getStats(t, ts.URL)
	if st.ColdP50MS <= 0 {
		t.Errorf("cold p50 not populated: %+v", st)
	}
	if st.WarmP50MS <= 0 {
		t.Errorf("warm p50 not populated: %+v", st)
	}
	if st.WarmP99MS < st.WarmP50MS || st.ColdP99MS < st.ColdP50MS {
		t.Errorf("p99 below p50: %+v", st)
	}
	if st.UptimeMS <= 0 || st.PoolWorkers < 1 {
		t.Errorf("config gauges missing: %+v", st)
	}
}

func TestRobustVariantOrderIsKeyed(t *testing.T) {
	// Conservative keying: variant order participates in the address, so
	// reordering variants is a miss, never a wrong hit.
	_, ts := newTestServer(t, Config{})
	lossy := `
spec L
init b0
ext b0 acc b1
ext b1 fwd b2
ext b2 del b0
int b1 b0
`
	r1 := api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
		Envs: []api.SpecSource{{Inline: worldText}, {Inline: lossy}}}
	r2 := api.DeriveRequest{Service: api.SpecSource{Inline: serviceText},
		Envs: []api.SpecSource{{Inline: lossy}, {Inline: worldText}}}
	a, code := postDerive(t, ts.URL, r1)
	if code != http.StatusOK {
		t.Fatalf("robust derive failed: %+v", a.Error)
	}
	b, _ := postDerive(t, ts.URL, r2)
	if a.Key == b.Key {
		t.Error("variant order should change the key (conservative)")
	}
}

func TestExpvarPublish(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.PublishExpvar()
	s.PublishExpvar() // idempotent; must not panic
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	text, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "quotd") {
		t.Skip("another test won the process-wide expvar name first")
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(text), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["quotd"]; !ok {
		t.Error("quotd var missing from /debug/vars")
	}
}

func TestServerSideMaxStatesCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxStatesCap: 1})
	out, code := postDerive(t, ts.URL, simpleRequest())
	if code != http.StatusBadRequest {
		t.Fatalf("capped derivation: status %d (%+v)", code, out.Error)
	}
	if out.Error == nil || !strings.Contains(out.Error.Message, "MaxStates") {
		t.Errorf("error should mention the state cap: %+v", out.Error)
	}
	// And the asked-for bound is clamped, producing the same key as asking
	// for nothing (both resolve to the cap).
	req := simpleRequest()
	req.Options.MaxStates = 100
	out2, _ := postDerive(t, ts.URL, req)
	if out.Key != out2.Key {
		t.Errorf("clamped keys differ: %s vs %s", out.Key, out2.Key)
	}
}
