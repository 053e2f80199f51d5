package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protoquot/internal/api"
)

// TestBadSpecCarriesRoleAndLine pins the structured parse-error contract:
// a malformed spec is 400 with code bad_spec, naming the offending input
// and the line inside its DSL text.
func TestBadSpecCarriesRoleAndLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  api.DeriveRequest
		role string
	}{
		{"service", api.DeriveRequest{
			Service: api.SpecSource{Inline: "spec X\ninit\n"},
			Envs:    []api.SpecSource{{Inline: worldText}},
		}, "service"},
		{"env", api.DeriveRequest{
			Service: api.SpecSource{Inline: serviceText},
			Envs:    []api.SpecSource{{Inline: worldText}, {Inline: "spec Y\next b0\n"}},
		}, "envs[1]"},
	}
	for _, tc := range cases {
		out, code := postDerive(t, ts.URL, tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if out.Error == nil || out.Error.Code != api.ErrCodeBadSpec {
			t.Fatalf("%s: error %+v, want bad_spec", tc.name, out.Error)
		}
		if out.Error.Role != tc.role {
			t.Errorf("%s: role %q, want %q", tc.name, out.Error.Role, tc.role)
		}
		if out.Error.Line < 2 {
			t.Errorf("%s: line %d, want the offending line (>= 2)", tc.name, out.Error.Line)
		}
	}
}

// TestSpecUploadBadSpecIs400 pins the upload path: malformed DSL is 400
// with the structured bad_spec envelope, not a plain-text error.
func TestSpecUploadBadSpecIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(api.SpecUploadRequest{Text: "spec X\ninit\n"})
	resp, err := http.Post(ts.URL+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var werr api.Error
	if err := json.NewDecoder(resp.Body).Decode(&werr); err != nil {
		t.Fatal(err)
	}
	if werr.Code != api.ErrCodeBadSpec || werr.Line < 2 {
		t.Errorf("want bad_spec with a line, got %+v", werr)
	}
}

// TestQueueFullKeeps503RetryAfterAndStructuredBody pins the shedding
// contract end to end: HTTP 503, a Retry-After header, and a queue_full
// envelope a client can branch on.
func TestQueueFullKeeps503RetryAfterAndStructuredBody(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1, MaxQueue: -1})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.preDerive = func(string) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer close(release)
	go func() {
		hold, _ := json.Marshal(simpleRequest())
		resp, err := http.Post(ts.URL+"/v1/derive", "application/json", bytes.NewReader(hold))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	req := simpleRequest()
	req.Options.OmitVacuous = true // distinct key: cannot coalesce, must shed
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/derive", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if v := resp.Header.Get(api.VersionHeader); v != api.Version {
		t.Errorf("%s = %q, want %q", api.VersionHeader, v, api.Version)
	}
	var out api.DeriveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == nil || out.Error.Code != api.ErrCodeQueueFull {
		t.Errorf("want queue_full envelope, got %+v", out.Error)
	}
}

// TestResponsesCarryVersionHeader: every JSON response advertises the
// protocol version clients use to reject skew.
func TestResponsesCarryVersionHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/stats", "/v1/specs", "/v1/peer/keys"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v := resp.Header.Get(api.VersionHeader); v != api.Version {
			t.Errorf("GET %s: %s = %q, want %q", path, api.VersionHeader, v, api.Version)
		}
	}
}

// TestPanicInFlightFinishesIt pins that a panic inside a flight finishes
// it: the leader and a request that joined its flight both get an internal
// error, nothing is cached, the pool slot is released, and a fresh request
// for the same key derives normally instead of joining a stranded flight.
func TestPanicInFlightFinishesIt(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1})
	var calls atomic.Int32
	s.preDerive = func(key string) {
		if calls.Add(1) > 1 {
			return
		}
		// Panic only once a second request waits on this flight.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			s.flights.mu.Lock()
			f := s.flights.flying[key]
			joined := f != nil && f.waiters.Load() > 0
			s.flights.mu.Unlock()
			if joined {
				break
			}
			if time.Now().After(deadline) {
				t.Error("no request joined the flight")
				break
			}
		}
		panic("injected engine fault")
	}
	body, err := json.Marshal(simpleRequest())
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		out  *api.DeriveResponse
		code int
		err  error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			out, code, err := post(ts.URL, body)
			results <- result{out, code, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusInternalServerError || r.out.Error == nil || r.out.Error.Code != api.ErrCodeInternal {
			t.Fatalf("request in the panicking flight: status %d, error %+v; want 500 internal", r.code, r.out.Error)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after a panicking flight, want 0", n)
	}
	if _, inflight := s.pool.depths(); inflight != 0 {
		t.Errorf("pool reports %d running derivations after the flight, want 0", inflight)
	}
	out, code, err := post(ts.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || !out.Exists || out.Cached || out.Coalesced {
		t.Fatalf("fresh request after the panic: status %d, exists=%t cached=%t coalesced=%t, error %+v; want a fresh 200 derivation",
			code, out.Exists, out.Cached, out.Coalesced, out.Error)
	}
	if st := getStats(t, ts.URL); st.Derives != 2 || st.DeriveErrors != 2 {
		t.Errorf("stats derives=%d derive_errors=%d, want 2 and 2", st.Derives, st.DeriveErrors)
	}
}
