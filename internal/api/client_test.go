package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeNode is a minimal v1 endpoint speaking just enough of the protocol
// for client tests: the server package's own tests cover the real daemon.
func fakeNode(t *testing.T, derive http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/derive", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(VersionHeader, Version)
		derive(w, r)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func TestClientDeriveAndStructuredErrors(t *testing.T) {
	ts := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		var req DeriveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("server got undecodable body: %v", err)
		}
		if req.Service.Inline == "bad" {
			writeJSON(w, http.StatusBadRequest, &DeriveResponse{
				Error: &Error{Code: ErrCodeBadSpec, Role: "service", Line: 3, Message: "nope"}})
			return
		}
		writeJSON(w, http.StatusOK, &DeriveResponse{Key: strings.Repeat("a", 64), Exists: true, Converter: "spec C\ninit c0\n"})
	})
	c := NewClient(ts.URL)
	out, err := c.Derive(context.Background(), &DeriveRequest{Service: SpecSource{Inline: "ok"}})
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	if !out.Exists || out.Converter == "" {
		t.Fatalf("envelope: %+v", out)
	}
	_, err = c.Derive(context.Background(), &DeriveRequest{Service: SpecSource{Inline: "bad"}})
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("error is not *api.Error: %v", err)
	}
	if ae.Code != ErrCodeBadSpec || ae.Role != "service" || ae.Line != 3 {
		t.Errorf("structured error lost fields: %+v", ae)
	}
	if got := ae.Error(); got != "bad_spec: nope" {
		t.Errorf("Error() = %q, want %q", got, "bad_spec: nope")
	}
}

func TestClientFailsOverOnTransportError(t *testing.T) {
	live := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &DeriveResponse{Key: strings.Repeat("b", 64), Exists: true})
	})
	// A dead address first: the client must rotate to the live node.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.Listener.Addr().String()
	dead.Close()

	c := NewClusterClient([]string{deadAddr, live.URL})
	out, err := c.Derive(context.Background(), &DeriveRequest{})
	if err != nil {
		t.Fatalf("failover derive: %v", err)
	}
	if !out.Exists {
		t.Fatalf("envelope: %+v", out)
	}
	// The client stays pinned to the node that answered.
	if err := c.Ready(context.Background()); err != nil {
		t.Errorf("ready after failover: %v", err)
	}
}

func TestClientAllNodesDownIsPeerUnavailable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.Listener.Addr().String()
	dead.Close()
	c := NewClusterClient([]string{addr})
	_, err := c.Derive(context.Background(), &DeriveRequest{})
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != ErrCodePeerUnavailable {
		t.Fatalf("want peer_unavailable, got %v", err)
	}
}

func TestClientRejectsVersionSkew(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/derive", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(VersionHeader, "v9")
		writeJSON(w, http.StatusOK, &DeriveResponse{Exists: true})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL)
	_, err := c.Derive(context.Background(), &DeriveRequest{})
	var ae *Error
	if !errors.As(err, &ae) || !strings.Contains(ae.Message, "v9") {
		t.Fatalf("version skew not rejected: %v", err)
	}
}

// TestClientWithHTTPClient: requests go through the http.Client the option
// supplies.
func TestClientWithHTTPClient(t *testing.T) {
	ts := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {})
	var calls int
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		calls++
		return http.DefaultTransport.RoundTrip(r)
	})}
	if err := NewClient(ts.URL, WithHTTPClient(hc)).Ready(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("the supplied client carried %d requests, want 1", calls)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
