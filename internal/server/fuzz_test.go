package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/dsl"
)

// fuzzSeedRequests are the request shapes the decoder fuzzers start from:
// the request bodies of TestGoldenHTTPResponses plus one by reference to an
// uploaded spec.
func fuzzSeedRequests() []api.DeriveRequest {
	minimized := simpleRequest()
	minimized.Options.Prune = true
	minimized.Options.Minimize = true
	return []api.DeriveRequest{
		simpleRequest(),
		minimized,
		{Service: api.SpecSource{Inline: serviceText}, Envs: []api.SpecSource{{Inline: doomedWorld}}},
		{Service: api.SpecSource{Inline: serviceText}},
		{Service: api.SpecSource{Inline: "spec X\ninit\n"}, Envs: []api.SpecSource{{Inline: worldText}}},
		{Service: api.SpecSource{Ref: "S"}, Components: []api.SpecSource{{Inline: worldText}}},
	}
}

// newFuzzServer is the decoder fuzzers' server: a small state cap and a
// one-second deadline bound every derivation, and the service is uploaded
// as "S" for the by-reference seed.
func newFuzzServer(f *testing.F) *Server {
	s, err := New(Config{MaxStatesCap: 1024, DefaultTimeout: time.Second, MaxTimeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	svc, err := dsl.ParseString(serviceText)
	if err != nil {
		f.Fatal(err)
	}
	s.RegisterSpec(svc)
	return s
}

// FuzzDeriveRequest hammers quotd's request decoder — the JSON body of
// POST /v1/derive, decoded as the handler does and resolved by compile —
// with arbitrary bytes. Invariants: compile never panics; every rejection
// is an *api.Error carrying one of the codes compile documents
// (bad_request, bad_spec, not_found) and a message; every accepted request
// has a cache key and a normal-form service, the engine's precondition.
// Each accepted body is then sent through the handler twice (under a small
// state cap and deadline): when the first answer is a 200, the second —
// which an all-inline body gets through the alias index — must carry the
// same key, existence and converter, and must be an alias hit exactly when
// every spec is inline. The seeds are fuzzSeedRequests.
func FuzzDeriveRequest(f *testing.F) {
	for _, req := range fuzzSeedRequests() {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	s := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req api.DeriveRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		cr, werr := s.compile(&req)
		if werr != nil {
			switch werr.Code {
			case api.ErrCodeBadRequest, api.ErrCodeBadSpec, api.ErrCodeNotFound:
			default:
				t.Fatalf("rejection with code %q: %+v", werr.Code, werr)
			}
			if werr.Message == "" {
				t.Fatalf("rejection without a message: %+v", werr)
			}
			return
		}
		if cr.key == "" {
			t.Fatal("accepted request has no cache key")
		}
		if err := cr.a.IsNormalForm(); err != nil {
			t.Fatalf("accepted service is not in normal form: %v", err)
		}

		var answers [2]api.DeriveResponse
		var codes [2]int
		var aliasHits int64
		for i := range answers {
			aliasHits = s.cache.AliasHits()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/derive", bytes.NewReader(body)))
			codes[i] = rec.Code
			if err := json.Unmarshal(rec.Body.Bytes(), &answers[i]); err != nil {
				t.Fatalf("response %d does not decode: %v", i, err)
			}
		}
		if codes[0] != http.StatusOK {
			return
		}
		first, second := answers[0], answers[1]
		if codes[1] != http.StatusOK || second.Key != first.Key || second.Exists != first.Exists ||
			second.Converter != first.Converter {
			t.Fatalf("repeat answered %d key %s exists %t, first 200 key %s exists %t (converters equal: %t)",
				codes[1], second.Key, second.Exists, first.Key, first.Exists, second.Converter == first.Converter)
		}
		if got, want := s.cache.AliasHits()-aliasHits, allInline(&req); (got == 1) != want || got > 1 {
			t.Fatalf("repeat took %d alias hit(s); all specs inline: %t", got, want)
		}
	})
}

// FuzzPeerFill hammers the peer-fill decoder — the JSON body of POST
// /v1/peer/artifact, the route one shard uses to ask another for an
// artifact — with arbitrary bytes, on FuzzDeriveRequest's bounded server.
// Every body gets one of two answers: a 200 carrying an artifact whose key
// is the key /v1/derive gives the same request, or a typed *api.Error with
// a code, a message, and the status that code maps to. The seeds are
// fuzzSeedRequests wrapped as peer-fill requests.
func FuzzPeerFill(f *testing.F) {
	for _, req := range fuzzSeedRequests() {
		data, err := json.Marshal(api.PeerFillRequest{Request: req})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	s := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/peer/artifact", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var werr api.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &werr); err != nil {
				t.Fatalf("status %d with a body that is not an api.Error: %v", rec.Code, err)
			}
			if werr.Code == "" || werr.Message == "" || api.HTTPStatus(werr.Code) != rec.Code {
				t.Fatalf("status %d with an untyped error: %+v", rec.Code, werr)
			}
			return
		}
		var fill api.PeerFillResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &fill); err != nil {
			t.Fatalf("200 response does not decode: %v", err)
		}
		if fill.Artifact == nil {
			t.Fatal("200 response carries no artifact")
		}
		var pf api.PeerFillRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&pf); err != nil {
			t.Fatalf("answered 200 to a body the handler's decoder rejects: %v", err)
		}
		req, err := json.Marshal(pf.Request)
		if err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/derive", bytes.NewReader(req)))
		var derived api.DeriveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &derived); err != nil {
			t.Fatalf("derive response does not decode: %v", err)
		}
		if rec.Code != http.StatusOK || derived.Key != fill.Artifact.Key {
			t.Fatalf("peer fill answered key %s; /v1/derive answered %d with key %s",
				fill.Artifact.Key, rec.Code, derived.Key)
		}
	})
}
