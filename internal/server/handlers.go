package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/codegen"
	"protoquot/internal/convrt"
	"protoquot/internal/dsl"
	"protoquot/internal/render"
	"protoquot/internal/spec"
)

func specInfo(sp *spec.Spec) api.SpecInfo {
	return api.SpecInfo{
		Name:        sp.Name(),
		Hash:        sp.Hash(),
		States:      sp.NumStates(),
		ExtEdges:    sp.NumExternalTransitions(),
		IntEdges:    sp.NumInternalTransitions(),
		NormalForm:  sp.IsNormalForm() == nil,
		Alphabet:    len(sp.Alphabet()),
		Determinist: sp.Deterministic(),
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/derive", s.handleDerive)
	s.mux.HandleFunc("POST /v1/specs", s.handleSpecUpload)
	s.mux.HandleFunc("GET /v1/specs", s.handleSpecList)
	s.mux.HandleFunc("GET /v1/specs/{name}", s.handleSpecGet)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/peer/artifact", s.handlePeerFill)
	s.mux.HandleFunc("GET /v1/peer/artifact/{key}", s.handlePeerArtifact)
	s.mux.HandleFunc("GET /v1/peer/keys", s.handlePeerKeys)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.VersionHeader, api.Version)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

// handleDerive is POST /v1/derive: resolve → cache → shard route → cache or
// singleflight → engine. Definitive answers — a converter, or a nonexistence
// proof — are HTTP 200 with the envelope saying which; non-200 means the
// derivation itself did not complete (bad input, overload, timeout,
// shutdown). In cluster mode a local miss for a key another shard owns is
// filled from that owner; an unreachable owner falls back to the local
// engine, so shard loss is never a client-visible failure.
//
// A request whose specs are all inline is first looked up by the SHA-256
// of its body in the cache's alias index, which maps bodies the full path
// has resolved to their cache key: a repeat of such a body is answered
// without parsing, normalizing or hashing its specs (DESIGN.md §9).
func (s *Server) handleDerive(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := fmt.Sprintf("r%06d", s.reqSeq.Add(1))
	s.met.deriveRequests.Add(1)

	var req api.DeriveRequest
	var body bytes.Buffer
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(io.TeeReader(r.Body, &body))
	if err := dec.Decode(&req); err != nil {
		s.failRequest(w, id, start, &api.Error{Code: api.ErrCodeBadRequest,
			Message: "body: " + err.Error()})
		return
	}
	inline := allInline(&req)
	var digest [sha256.Size]byte
	if inline {
		// The decoded request is a function of the bytes up to the end of
		// its JSON value; what the decoder read beyond it is not hashed.
		digest = sha256.Sum256(body.Bytes()[:dec.InputOffset()])
		if e, ok := s.cache.GetAlias(digest); ok {
			s.respondEntry(w, id, start, &req.Options, e, true, false, "")
			return
		}
	}
	cr, werr := s.compile(&req)
	if werr != nil {
		s.failRequest(w, id, start, werr)
		return
	}
	if inline {
		// Attach the alias once the entry is stored; a no-op if it is not.
		defer s.cache.Alias(digest, cr.key)
	}

	if e, ok := s.cache.Get(cr.key); ok {
		s.respondEntry(w, id, start, &req.Options, e, true, false, "")
		return
	}
	if s.afterMiss != nil {
		s.afterMiss(cr.key)
	}

	if fill, shard := s.tryPeerFill(r.Context(), cr, &req); fill != nil {
		s.respondEntry(w, id, start, &req.Options, fill.Artifact, fill.Cached, false, shard)
		return
	}

	e, cached, coalesced, werr := s.deriveFlight(r.Context(), cr)
	if werr != nil {
		s.failRequest(w, id, start, werr)
		return
	}
	s.respondEntry(w, id, start, &req.Options, e, cached, coalesced, "")
}

// allInline reports whether every spec of req is given inline, so that the
// request's answer depends on its bytes and the server's Config alone, not
// on the spec registry.
func allInline(req *api.DeriveRequest) bool {
	if req.Service.Ref != "" {
		return false
	}
	for _, srcs := range [][]api.SpecSource{req.Envs, req.Components} {
		for _, src := range srcs {
			if src.Ref != "" {
				return false
			}
		}
	}
	return true
}

// respondEntry renders one cacheable outcome into the response envelope,
// attaching per-request fields and any requested artifact renderings.
func (s *Server) respondEntry(w http.ResponseWriter, id string,
	start time.Time, opts *api.DeriveOptions, e *api.Artifact,
	cached, coalesced bool, shard string) {

	resp := &api.DeriveResponse{
		RequestID: id,
		Key:       e.Key,
		Cached:    cached,
		Coalesced: coalesced,
		Shard:     shard,
		Exists:    e.Exists,
		Converter: e.Converter,
		Stats:     e.Stats,
		Error:     e.Error,
	}
	if opts.IncludeTable && e.Exists {
		// The compiled table is stored on the artifact; entries written by
		// older daemons lack it, so fall through to compiling on demand.
		resp.Table = e.Table
	}
	if e.Exists && e.Converter != "" &&
		(opts.IncludeDOT || opts.IncludeGo || (opts.IncludeTable && resp.Table == "")) {
		if conv, err := dsl.ParseString(e.Converter); err == nil {
			if opts.IncludeDOT {
				resp.DOT = render.DOTString(conv, render.DOTOptions{})
			}
			if opts.IncludeGo {
				pkg := opts.GoPackage
				if pkg == "" {
					pkg = "converter"
				}
				src, err := codegen.Generate(conv, codegen.Config{Package: pkg})
				if err != nil {
					resp.GoSource = "// codegen: " + err.Error() + "\n"
				} else {
					resp.GoSource = string(src)
				}
			}
			if opts.IncludeTable && resp.Table == "" {
				if table, err := convrt.CompileEncoded(conv); err == nil {
					resp.Table = string(table)
				}
			}
		}
	}
	elapsed := time.Since(start)
	resp.ElapsedMS = api.DurMS(elapsed)
	if cached {
		s.met.warm.observe(elapsed)
	} else {
		s.met.cold.observe(elapsed)
	}
	s.logf("quotd: %s POST /v1/derive 200 key=%s exists=%t cached=%t coalesced=%t shard=%s %.2fms",
		id, shortKey(e.Key), e.Exists, cached, coalesced, shard, resp.ElapsedMS)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) failRequest(w http.ResponseWriter, id string, start time.Time, we *api.Error) {
	status := api.HTTPStatus(we.Code)
	if we.Code == api.ErrCodeQueueFull {
		w.Header().Set("Retry-After", "1")
	}
	s.logf("quotd: %s POST /v1/derive %d code=%s %.2fms: %s",
		id, status, we.Code, api.DurMS(time.Since(start)), we.Message)
	writeJSON(w, status, &api.DeriveResponse{RequestID: id, Error: we,
		ElapsedMS: api.DurMS(time.Since(start))})
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

func (s *Server) handleSpecUpload(w http.ResponseWriter, r *http.Request) {
	var req api.SpecUploadRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, &api.Error{Code: api.ErrCodeBadRequest,
			Message: "body: " + err.Error()})
		return
	}
	specs, err := dsl.Parse(strings.NewReader(req.Text))
	if err != nil {
		werr := api.SpecError("upload", err)
		writeJSON(w, api.HTTPStatus(werr.Code), werr)
		return
	}
	resp := api.SpecListResponse{}
	for _, sp := range specs {
		s.RegisterSpec(sp)
		resp.Specs = append(resp.Specs, specInfo(sp))
	}
	s.logf("quotd: POST /v1/specs registered %d spec(s)", len(resp.Specs))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSpecList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.SpecListResponse{Specs: s.listSpecs()})
}

func (s *Server) handleSpecGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sp, ok := s.lookupSpec(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, &api.Error{Code: api.ErrCodeNotFound,
			Message: fmt.Sprintf("no uploaded spec named %q", name)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = dsl.Write(w, sp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the load-balancer probe: 503 once draining starts, so
// traffic falls off before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}
