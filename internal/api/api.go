// Package api is the versioned wire contract of the quotd derivation
// service. It is the one definition of the request/response envelopes, the
// structured error envelope with machine-readable codes, and the
// content-address computation — consumed by the daemon (internal/server),
// by quotd's peer-to-peer shard traffic, by the load harness (cmd/quotload),
// and by `quotient -json`, so none of them can drift.
//
// The protocol is versioned by URL prefix: every route lives under
// "/v1/..." and every JSON response carries the "X-Protoquot-Api: v1"
// header. Additive changes (new optional fields, new error codes) stay
// within v1; anything that changes the meaning of an existing field is a
// new version prefix.
//
// The quotient is a pure function of its (A, B) inputs — the Calvert & Lam
// construction is deterministic and complete — so a derivation result is
// content-addressed: CacheKey over the canonical serialization of every
// input specification plus the semantic options names the artifact, and
// the same key is a sound shard-routing key and peer-fillable cache key
// for a quotd cluster (DESIGN.md argues the soundness in detail).
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/spec"
)

// Version is the wire-protocol version: the URL prefix ("/v1") and the
// value of the VersionHeader response header.
const Version = "v1"

// VersionHeader is set on every JSON response; clients reject a mismatch
// rather than misparse an incompatible envelope.
const VersionHeader = "X-Protoquot-Api"

// SpecSource names one input specification: either inline .spec DSL text or
// a reference to a spec previously uploaded via POST /v1/specs. Exactly one
// field must be set.
type SpecSource struct {
	// Inline is .spec DSL text containing exactly one specification.
	Inline string `json:"inline,omitempty"`
	// Ref is the name of an uploaded specification.
	Ref string `json:"ref,omitempty"`
}

// DeriveOptions are the per-request knobs of POST /v1/derive.
//
// Only the semantic options — those that change the derived artifact —
// participate in the cache key: OmitVacuous, SafetyOnly, MaxStates,
// MinimizeEnv, Normalize, Prune, Minimize. TimeoutMS and the artifact
// selectors (IncludeDOT, IncludeGo, GoPackage) are excluded because they do
// not change the converter, only how much of it is rendered into the
// response. A request names no engine worker count or pipeline: the
// operator sets the worker count (quotd -engine-workers), and the result is
// bit-identical for every count. The decoder ignores unknown fields, so a
// body that still carries "workers" or "engine" derives as one without
// them.
type DeriveOptions struct {
	// Normalize determinizes the service first if it is not in normal form;
	// without it a non-normal service is a bad request.
	Normalize bool `json:"normalize,omitempty"`
	// MinimizeEnv pre-reduces each environment component by strong
	// bisimulation before deriving (core.Options.MinimizeComponents).
	MinimizeEnv bool `json:"minimize_env,omitempty"`
	// OmitVacuous, SafetyOnly, MaxStates mirror core.Options.
	OmitVacuous bool `json:"omit_vacuous,omitempty"`
	SafetyOnly  bool `json:"safety_only,omitempty"`
	MaxStates   int  `json:"max_states,omitempty"`
	// Prune greedily removes useless converter behavior; Minimize
	// bisimulation-minimizes the converter before it is returned.
	Prune    bool `json:"prune,omitempty"`
	Minimize bool `json:"minimize,omitempty"`
	// TimeoutMS bounds this request's derivation; 0 means the server
	// default. Values above the server maximum are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IncludeDOT / IncludeGo additionally render the converter as Graphviz
	// and as standalone Go source (package GoPackage, default "converter").
	// Both are deterministic functions of the converter, computed on demand
	// — cache entries store only the converter itself.
	IncludeDOT bool   `json:"include_dot,omitempty"`
	IncludeGo  bool   `json:"include_go,omitempty"`
	GoPackage  string `json:"go_package,omitempty"`
	// IncludeTable additionally returns the compiled-table artifact: the
	// convrt wire encoding ("convrt-table/v1") of the converter's
	// integer-indexed execution form, ready for convrt.Decode and the
	// cmd/convrt load harness. Like the other renderings it is a
	// deterministic function of the converter and excluded from the cache
	// key.
	IncludeTable bool `json:"include_table,omitempty"`
}

// DeriveRequest is the body of POST /v1/derive. Exactly one of Envs or
// Components must be non-empty: Envs lists environment variants for robust
// derivation (each variant a complete environment; one variant is the plain
// quotient), Components lists machines to be composed into a single
// environment by the server (lazy by default — the fused demand-driven
// pipeline).
type DeriveRequest struct {
	Service    SpecSource    `json:"service"`
	Envs       []SpecSource  `json:"envs,omitempty"`
	Components []SpecSource  `json:"components,omitempty"`
	Options    DeriveOptions `json:"options"`
}

// WireStats is core.Stats flattened for the wire. Wall times are reported
// in milliseconds; on a cache hit they describe the original derivation,
// not the lookup (the envelope's ElapsedMS describes the request).
type WireStats struct {
	SafetyStates       int     `json:"safety_states"`
	SafetyTransitions  int     `json:"safety_transitions"`
	PairSetTotal       int     `json:"pair_set_total"`
	ProgressIterations int     `json:"progress_iterations"`
	RemovedStates      int     `json:"removed_states"`
	FinalStates        int     `json:"final_states"`
	FinalTransitions   int     `json:"final_transitions"`
	Workers            int     `json:"workers"`
	SafetyWallMS       float64 `json:"safety_wall_ms"`
	ProgressWallMS     float64 `json:"progress_wall_ms"`
	SafetyLevels       int     `json:"safety_levels"`
	PeakFrontier       int     `json:"peak_frontier"`
	InternLookups      int     `json:"intern_lookups"`
	InternHits         int     `json:"intern_hits"`
	ProgressScans      int     `json:"progress_scans"`
	TauCacheHits       int     `json:"tau_cache_hits"`
	TauInvalidated     int     `json:"tau_invalidated"`
	ReadySetRebuilds   int     `json:"ready_set_rebuilds"`
	EnvStatesExpanded  int     `json:"env_states_expanded"`
	EnvStatesTotal     int     `json:"env_states_total"`
	EnvExpansionMS     float64 `json:"env_expansion_ms,omitempty"`
	ArenaBytes         int64   `json:"arena_bytes,omitempty"`
	PeakRowBytes       int64   `json:"peak_row_bytes,omitempty"`
	PairArenaBytes     int64   `json:"pair_arena_bytes,omitempty"`
}

// StatsFromCore flattens engine statistics into the wire form.
func StatsFromCore(s core.Stats) *WireStats {
	m := s.Metrics
	return &WireStats{
		SafetyStates:       s.SafetyStates,
		SafetyTransitions:  s.SafetyTransitions,
		PairSetTotal:       s.PairSetTotal,
		ProgressIterations: s.ProgressIterations,
		RemovedStates:      s.RemovedStates,
		FinalStates:        s.FinalStates,
		FinalTransitions:   s.FinalTransitions,
		Workers:            m.Workers,
		SafetyWallMS:       DurMS(m.SafetyWall),
		ProgressWallMS:     DurMS(m.ProgressWall),
		SafetyLevels:       m.SafetyLevels,
		PeakFrontier:       m.PeakFrontier,
		InternLookups:      m.InternLookups,
		InternHits:         m.InternHits,
		ProgressScans:      m.ProgressScans,
		TauCacheHits:       m.TauCacheHits,
		TauInvalidated:     m.TauInvalidated,
		ReadySetRebuilds:   m.ReadySetRebuilds,
		EnvStatesExpanded:  m.EnvStatesExpanded,
		EnvStatesTotal:     m.EnvStatesTotal,
		EnvExpansionMS:     float64(m.EnvExpansionNs) / 1e6,
		ArenaBytes:         m.ArenaBytes,
		PeakRowBytes:       m.PeakRowBytes,
		PairArenaBytes:     m.PairArenaBytes,
	}
}

// DurMS converts a duration to wire milliseconds.
func DurMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Error codes carried in Error.Code. Machine-readable: clients branch on
// the code, never on the message text.
const (
	// ErrCodeBadRequest: malformed body, bad option combinations, or a
	// structurally invalid request (no environment, both envs and
	// components, ...).
	ErrCodeBadRequest = "bad_request"
	// ErrCodeBadSpec: a specification failed to parse or is semantically
	// unusable; Role names which input and Line points into its DSL text.
	ErrCodeBadSpec = "bad_spec"
	// ErrCodeNotFound: unknown spec reference or route.
	ErrCodeNotFound = "not_found"
	// ErrCodeNoQuotient: the derivation proved no converter exists — a
	// definitive, cacheable answer, not a failure.
	ErrCodeNoQuotient = "no_quotient"
	// ErrCodeDeadline: the per-request derivation deadline expired.
	ErrCodeDeadline = "deadline"
	// ErrCodeCanceled: the client went away or the server shut down.
	ErrCodeCanceled = "canceled"
	// ErrCodeQueueFull: the derivation queue is full; retry later
	// (HTTP 503 with Retry-After).
	ErrCodeQueueFull = "queue_full"
	// ErrCodePeerUnavailable: a shard peer could not be reached. Client
	// requests never surface this — the serving node falls back to local
	// derivation — but peer endpoints and stats report it.
	ErrCodePeerUnavailable = "peer_unavailable"
	// ErrCodeInternal: a server fault.
	ErrCodeInternal = "internal"
)

// HTTPStatus maps an error code to its HTTP status — part of the wire
// contract, shared by the server (when writing) and clients (as a
// cross-check when reading).
func HTTPStatus(code string) int {
	switch code {
	case ErrCodeBadRequest, ErrCodeBadSpec:
		return http.StatusBadRequest
	case ErrCodeNotFound:
		return http.StatusNotFound
	case ErrCodeDeadline:
		return http.StatusGatewayTimeout
	case ErrCodeQueueFull, ErrCodeCanceled:
		return http.StatusServiceUnavailable
	case ErrCodePeerUnavailable:
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}

// Error is the machine-readable error envelope. Nonexistence (no_quotient)
// is a definitive answer, not a failure: it is cached and carries the phase
// that proved it and, when available, a witness trace. Parse failures
// (bad_spec) carry the offending input's role and line.
type Error struct {
	Code    string   `json:"code"`
	Message string   `json:"message"`
	Phase   string   `json:"phase,omitempty"`
	Witness []string `json:"witness,omitempty"`
	// Role names the input a bad_spec error refers to ("service",
	// "envs[1]", "components[0]", "upload"); Line is the 1-based line in
	// its DSL text.
	Role string `json:"role,omitempty"`
	Line int    `json:"line,omitempty"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// SpecError builds a bad_spec error from a DSL parse failure, extracting
// the line position when the underlying error carries one; any other error
// for the same input stays a plain bad_request.
func SpecError(role string, err error) *Error {
	var pe *dsl.ParseError
	if errors.As(err, &pe) {
		return &Error{Code: ErrCodeBadSpec, Role: role, Line: pe.Line,
			Message: fmt.Sprintf("%s: %v", role, err)}
	}
	return &Error{Code: ErrCodeBadRequest,
		Message: fmt.Sprintf("%s: %v", role, err)}
}

// DeriveResponse is the result envelope of POST /v1/derive — and of
// `quotient -json`, which emits the identical shape with the per-request
// service fields (RequestID, Cached, Coalesced, Shard) left zero.
type DeriveResponse struct {
	// RequestID identifies this request in the server log.
	RequestID string `json:"request_id,omitempty"`
	// Key is the content address of the derivation: the cache key computed
	// from the canonical input hashes and the semantic options.
	Key string `json:"key"`
	// Cached reports that the result was served from a converter cache —
	// local or, via peer fill, the owning shard's; Coalesced that this
	// request shared a single in-flight derivation with concurrent
	// identical requests (singleflight).
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Shard, in cluster mode, names the peer that answered when the
	// serving node filled the result from the key's owner shard; empty
	// when the serving node answered from its own cache or engine.
	Shard string `json:"shard,omitempty"`
	// Exists reports whether a converter exists. When false, Error.Code is
	// no_quotient with the proof phase.
	Exists bool `json:"exists"`
	// Converter is the derived converter in .spec DSL text.
	Converter string `json:"converter,omitempty"`
	// DOT / GoSource / Table are optional renderings
	// (Options.IncludeDOT/IncludeGo/IncludeTable); Table is the compiled
	// converter in the convrt wire encoding.
	DOT      string `json:"dot,omitempty"`
	GoSource string `json:"go_source,omitempty"`
	Table    string `json:"table,omitempty"`
	// Stats describes the derivation that produced the artifact.
	Stats *WireStats `json:"stats,omitempty"`
	// Error is set on any non-success, including definitive nonexistence.
	Error *Error `json:"error,omitempty"`
	// ElapsedMS is this request's wall time (lookup time on a cache hit).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Artifact is one immutable derivation outcome under its content address:
// either a converter or a definitive nonexistence proof, plus the
// statistics of the run that produced it. It is the unit the converter
// cache stores, the disk store persists, and shard peers exchange —
// bit-identical wherever it is served from, because the derivation is a
// pure function of the key's preimage.
type Artifact struct {
	Key       string `json:"key"`
	Exists    bool   `json:"exists"`
	Converter string `json:"converter,omitempty"`
	// Table is the converter's compiled-table rendering in the convrt wire
	// encoding ("convrt-table/v1") — the artifact class the execution
	// runtime consumes. It is derived from Converter at derivation time, so
	// peers may omit it and holders may rebuild it; a missing or corrupt
	// table never invalidates the artifact itself.
	Table string     `json:"table,omitempty"`
	Stats *WireStats `json:"stats,omitempty"`
	Error *Error     `json:"error,omitempty"`
}

// PeerFillRequest is the body of POST /v1/peer/artifact: a node that is not
// the key's owner asks the owner to answer from its cache or derive. The
// owner never forwards again (one hop only), so routing disagreements
// during a ring rebuild cannot loop.
type PeerFillRequest struct {
	Request DeriveRequest `json:"request"`
}

// PeerFillResponse is the owner's answer: the artifact, whether the owner
// had it cached, and the owner's advertised address.
type PeerFillResponse struct {
	Artifact *Artifact `json:"artifact"`
	Cached   bool      `json:"cached"`
	Shard    string    `json:"shard,omitempty"`
}

// PeerKeysResponse is the body of GET /v1/peer/keys: the keys currently in
// the node's in-memory cache, oldest first — the warm-start substrate a
// rejoining or fresh shard preloads from a peer.
type PeerKeysResponse struct {
	Keys []string `json:"keys"`
}

// SpecUploadRequest is the body of POST /v1/specs: .spec DSL text that may
// contain several specifications. Each is registered under its own name;
// re-uploading a name replaces it (last write wins).
type SpecUploadRequest struct {
	Text string `json:"text"`
}

// SpecInfo describes one registered specification.
type SpecInfo struct {
	Name        string `json:"name"`
	Hash        string `json:"hash"`
	States      int    `json:"states"`
	ExtEdges    int    `json:"ext_edges"`
	IntEdges    int    `json:"int_edges"`
	NormalForm  bool   `json:"normal_form"`
	Alphabet    int    `json:"alphabet"`
	Determinist bool   `json:"deterministic"`
}

// SpecListResponse is the body of GET /v1/specs and POST /v1/specs.
type SpecListResponse struct {
	Specs []SpecInfo `json:"specs"`
}

// StatsResponse is the body of GET /v1/stats: one JSON snapshot of the
// daemon's counters, gauges, cache state, latency quantiles, and — in
// cluster mode — the shard-routing counters.
type StatsResponse struct {
	UptimeMS float64 `json:"uptime_ms"`
	Draining bool    `json:"draining"`

	Requests       int64 `json:"requests"`
	DeriveRequests int64 `json:"derive_requests"`
	Derives        int64 `json:"derives"`
	DeriveErrors   int64 `json:"derive_errors"`
	NoQuotient     int64 `json:"no_quotient"`
	Coalesced      int64 `json:"coalesced"`
	Rejected       int64 `json:"rejected"`
	Timeouts       int64 `json:"timeouts"`

	CacheHits       int64 `json:"cache_hits"`
	CacheAliasHits  int64 `json:"cache_alias_hits"` // hits found by request-body digest, part of CacheHits
	CacheMisses     int64 `json:"cache_misses"`
	CacheEvictions  int64 `json:"cache_evictions"`
	CacheDiskHits   int64 `json:"cache_disk_hits"`
	CacheDiskErrors int64 `json:"cache_disk_errors"`
	CacheEntries    int   `json:"cache_entries"`

	QueueDepth  int64 `json:"queue_depth"`
	Inflight    int64 `json:"inflight"`
	PoolWorkers int   `json:"pool_workers"`
	MaxQueue    int   `json:"max_queue"`

	SpecsRegistered int `json:"specs_registered"`

	WarmP50MS float64 `json:"warm_p50_ms"`
	WarmP99MS float64 `json:"warm_p99_ms"`
	ColdP50MS float64 `json:"cold_p50_ms"`
	ColdP99MS float64 `json:"cold_p99_ms"`

	// Cluster section; zero / omitted on a single node.
	ClusterEnabled   bool   `json:"cluster_enabled,omitempty"`
	ClusterSelf      string `json:"cluster_self,omitempty"`
	ClusterPeersUp   int    `json:"cluster_peers_up,omitempty"`
	ClusterPeersDown int    `json:"cluster_peers_down,omitempty"`
	// ClusterRingRebuilds counts membership changes that rebuilt the ring:
	// a peer lost (several failed health probes in a row, or a failed peer
	// fill) or rejoined. Each moves part of the keyspace to a new owner.
	ClusterRingRebuilds int64 `json:"cluster_ring_rebuilds,omitempty"`
	// PeerFills counts local misses answered by the key's owner shard;
	// PeerUnavailable counts owner-fetch failures that fell back to local
	// derivation (never client-visible); PeerServed counts peer-fill
	// requests this node answered for other shards; HotReplicated counts
	// foreign-owned entries replicated into the local cache because their
	// request rate crossed the hot-key threshold.
	PeerFills       int64 `json:"peer_fills,omitempty"`
	PeerUnavailable int64 `json:"peer_unavailable,omitempty"`
	PeerServed      int64 `json:"peer_served,omitempty"`
	HotReplicated   int64 `json:"hot_replicated,omitempty"`
}

// keyedOptions returns the canonical encoding of the semantic options — the
// option slice of the cache key. TimeoutMS and the artifact selectors are
// deliberately absent; see DeriveOptions.
func (o DeriveOptions) keyedOptions() string {
	return fmt.Sprintf("omitvac=%t safety=%t maxstates=%d minenv=%t prune=%t minimize=%t",
		o.OmitVacuous, o.SafetyOnly, o.MaxStates, o.MinimizeEnv, o.Prune, o.Minimize)
}

// CacheKey computes the content address of a derivation: the hex SHA-256
// over a version tag, the semantic options, and the canonical serialization
// of the service and of every environment variant or component, each
// prefixed by its role. The service must already be in normal form (the
// caller normalizes first, so normalize-vs-prenormalized requests that
// reach the same effective inputs share an address). In a cluster the same
// key is the shard-routing key: determinism of the derivation makes any
// node's artifact for a key interchangeable with any other's.
func CacheKey(a *spec.Spec, envs, components []*spec.Spec, opts DeriveOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "protoquot-derive-v1\n")
	fmt.Fprintf(h, "opts %s\n", opts.keyedOptions())
	fmt.Fprintf(h, "service %d\n", len(a.Canonical()))
	h.Write(a.Canonical())
	for _, b := range envs {
		c := b.Canonical()
		fmt.Fprintf(h, "env %d\n", len(c))
		h.Write(c)
	}
	for _, b := range components {
		c := b.Canonical()
		fmt.Fprintf(h, "component %d\n", len(c))
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ResultEnvelope builds the shared success/nonexistence envelope from a
// derivation outcome. conv is the final converter after any post-processing
// (prune, minimize); it may differ from res.Converter. derr, when non-nil,
// must be the derivation error; a *core.NoQuotientError becomes a
// definitive no_quotient envelope, anything else an internal error.
// Renderings (DOT, Go source) are the caller's concern.
func ResultEnvelope(key string, res *core.Result, conv *spec.Spec, derr error) *DeriveResponse {
	env := &DeriveResponse{Key: key}
	if res != nil {
		env.Stats = StatsFromCore(res.Stats)
	}
	if derr != nil {
		var nq *core.NoQuotientError
		if errors.As(derr, &nq) {
			we := &Error{Code: ErrCodeNoQuotient, Message: nq.Error(), Phase: nq.Phase()}
			for _, e := range nq.Witness() {
				we.Witness = append(we.Witness, string(e))
			}
			env.Error = we
		} else {
			env.Error = &Error{Code: ErrCodeInternal, Message: derr.Error()}
		}
		return env
	}
	env.Exists = true
	if conv != nil {
		env.Converter = dsl.String(conv)
	}
	return env
}
