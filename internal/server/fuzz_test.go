package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"protoquot/internal/api"
	"protoquot/internal/dsl"
)

// FuzzDeriveRequest hammers quotd's request decoder — the JSON body of
// POST /v1/derive, decoded as the handler does and resolved by compile —
// with arbitrary bytes. Nothing is derived. Invariants: compile never
// panics; every rejection is an *api.Error carrying one of the codes compile
// documents (bad_request, bad_spec, not_found) and a message; every
// accepted request has a cache key and a normal-form service, the engine's
// precondition. The seeds are the request bodies of TestGoldenHTTPResponses
// plus one by reference to an uploaded spec.
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
	s, err := New(Config{})
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
	})
}
