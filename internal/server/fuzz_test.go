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
// every spec is inline. The seeds are the request bodies of
// TestGoldenHTTPResponses plus one by reference to an uploaded spec.
func FuzzDeriveRequest(f *testing.F) {
	minimized := simpleRequest()
	minimized.Options.Prune = true
	minimized.Options.Minimize = true
	for _, req := range []api.DeriveRequest{
		simpleRequest(),
		minimized,
		{Service: api.SpecSource{Inline: serviceText}, Envs: []api.SpecSource{{Inline: doomedWorld}}},
		{Service: api.SpecSource{Inline: serviceText}},
		{Service: api.SpecSource{Inline: "spec X\ninit\n"}, Envs: []api.SpecSource{{Inline: worldText}}},
		{Service: api.SpecSource{Ref: "S"}, Components: []api.SpecSource{{Inline: worldText}}},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	s, err := New(Config{MaxStatesCap: 1024, DefaultTimeout: time.Second, MaxTimeout: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	svc, err := dsl.ParseString(serviceText)
	if err != nil {
		f.Fatal(err)
	}
	s.RegisterSpec(svc)
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
