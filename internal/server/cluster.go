package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/cluster"
)

// clusterState is everything a node needs to act as one shard of a quotd
// cluster: the health-probed ring, a peer-directed API client, and the
// hot-key tracker that decides when a foreign-owned artifact is requested
// often enough locally to replicate.
type clusterState struct {
	mem    *cluster.Membership
	client *api.Client
	hot    *cluster.HotTracker
}

// StartCluster turns this node into one shard of a cluster. cfg.Self must
// be the address peers reach this node at (so it is only known after the
// listener is bound, which is why this is not part of Config/New). The
// membership starts probing immediately; call StopCluster on shutdown.
//
// Routing is by derivation key on a consistent-hash ring: a local cache
// miss for a key another live shard owns is answered by asking that owner
// (POST /v1/peer/artifact) instead of running the local engine, so each
// node's singleflight composes into a cluster-wide one — N nodes under any
// request mix run one engine derivation per distinct key, as long as the
// ring is stable. An unreachable owner is marked dead (rerouting the key)
// and the request falls back to the local engine: shard loss degrades
// dedup, never availability.
func (s *Server) StartCluster(cfg cluster.Config) {
	if cfg.Logf == nil {
		cfg.Logf = s.logf
	}
	if cfg.HotKeyRPS == 0 {
		cfg.HotKeyRPS = cluster.DefaultHotKeyRPS
	}
	mem := cluster.New(cfg)
	mem.Start()
	cs := &clusterState{
		mem:    mem,
		client: api.NewClient(cfg.Self, api.WithTimeout(s.cfg.MaxTimeout+10*time.Second)),
		hot:    cluster.NewHotTracker(cfg.HotKeyRPS),
	}
	s.cluster.Store(cs)
	s.logf("quotd: cluster enabled: self=%s peers=%d hot-rps=%d", cfg.Self, len(cfg.Peers), cfg.HotKeyRPS)
}

// StopCluster stops the membership prober. The node keeps serving (and
// answering peer fills already in flight); it just stops updating its view.
func (s *Server) StopCluster() {
	if cs := s.cluster.Swap(nil); cs != nil {
		cs.mem.Stop()
	}
}

// ClusterSelf returns this node's advertised address ("" when not
// clustered).
func (s *Server) ClusterSelf() string {
	if cs := s.cluster.Load(); cs != nil {
		return cs.mem.Self()
	}
	return ""
}

// tryPeerFill routes a local cache miss to the key's owner shard. It
// returns nil when this node should derive locally instead: not clustered,
// the key is self-owned, or the owner could not answer (transport failure
// marks the owner dead and retries the rerouted owner once; an
// authoritative owner error — overload, timeout — falls back immediately,
// because the local engine can still give the client a real answer).
// Successful fills of hot keys are replicated into the local cache.
func (s *Server) tryPeerFill(ctx context.Context, cr *compiledRequest, req *api.DeriveRequest) (*api.PeerFillResponse, string) {
	cs := s.cluster.Load()
	if cs == nil {
		return nil, ""
	}
	owner := cs.mem.Owner(cr.key)
	if owner == "" || owner == cs.mem.Self() {
		return nil, ""
	}
	// Track the key's local request rate while it is foreign-owned; crossing
	// the threshold replicates the artifact below so subsequent requests hit
	// the local cache instead of paying the hop.
	hot := cs.hot.Observe(cr.key)

	attempted := false
	for hop := 0; hop < 2 && owner != "" && owner != cs.mem.Self(); hop++ {
		attempted = true
		fill, err := cs.client.PeerFill(ctx, owner, req)
		if err == nil {
			s.met.peerFills.Add(1)
			if !s.admitPeerArtifact(fill.Artifact, cr.key, owner) {
				// A peer answering for the wrong key would poison the cache;
				// treat it as unavailable and derive locally.
				break
			}
			if hot {
				s.cache.Put(fill.Artifact)
				s.met.hotReplicated.Add(1)
			}
			return fill, owner
		}
		if _, ok := err.(*api.Error); ok {
			// The owner answered and said no (queue full, deadline, ...). It
			// is alive; don't touch the ring — just derive locally.
			s.logf("quotd: peer fill %s declined by %s: %v", shortKey(cr.key), owner, err)
			break
		}
		// Transport failure: the owner is gone. Mark it dead (the ring
		// rebuilds, rerouting its keyspace) and try the new owner once.
		s.logf("quotd: peer fill %s: owner %s unreachable: %v", shortKey(cr.key), owner, err)
		cs.mem.ReportFailure(owner)
		owner = cs.mem.Owner(cr.key)
	}
	if attempted {
		s.met.peerUnavailable.Add(1)
	}
	return nil, ""
}

// admitPeerArtifact applies the disk store's checks (checkArtifact) to an
// artifact peer sent for key, logging what it rejects or repairs, and
// reports whether the artifact may be cached and served.
func (s *Server) admitPeerArtifact(e *api.Artifact, key, peer string) bool {
	tableErr, err := checkArtifact(e, key)
	if err != nil {
		s.logf("quotd: peer %s: %v; ignoring", peer, err)
		return false
	}
	if tableErr != nil {
		s.logf("quotd: peer %s sent a corrupt table for %s: %v (rebuilt)", peer, shortKey(key), tableErr)
	}
	return true
}

// handlePeerFill is POST /v1/peer/artifact: another shard asks this node —
// the key's owner in the asker's view — to answer from cache or derive.
// The request is served entirely locally (never forwarded again), so a
// routing disagreement during a ring rebuild costs one extra derivation at
// worst and can never loop.
func (s *Server) handlePeerFill(w http.ResponseWriter, r *http.Request) {
	var pf api.PeerFillRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&pf); err != nil {
		writeJSON(w, http.StatusBadRequest, &api.Error{Code: api.ErrCodeBadRequest,
			Message: "body: " + err.Error()})
		return
	}
	cr, werr := s.compile(&pf.Request)
	if werr != nil {
		writeJSON(w, api.HTTPStatus(werr.Code), werr)
		return
	}
	// A peer fill is demand for the key, so it marks the entry visited and
	// promotes a disk hit as Get does. But the requesting node counted its
	// own derive request and miss, so this node counts neither.
	e, cached := s.cache.lookup(cr.key, false)
	if !cached {
		var werr *api.Error
		if e, cached, _, werr = s.deriveFlight(r.Context(), cr); werr != nil {
			writeJSON(w, api.HTTPStatus(werr.Code), werr)
			return
		}
	}
	s.met.peerServed.Add(1)
	s.logf("quotd: peer fill served key=%s cached=%t", shortKey(e.Key), cached)
	writeJSON(w, http.StatusOK, &api.PeerFillResponse{
		Artifact: e, Cached: cached, Shard: s.ClusterSelf(),
	})
}

// handlePeerArtifact is GET /v1/peer/artifact/{key}: fetch a cached
// artifact without triggering a derivation — the preload path. The read is
// not a client lookup, so it counts no hit or miss and visits no entry.
func (s *Server) handlePeerArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	e, ok := s.cache.fetch(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, &api.Error{Code: api.ErrCodeNotFound,
			Message: fmt.Sprintf("no artifact for key %s", shortKey(key))})
		return
	}
	writeJSON(w, http.StatusOK, e)
}

// handlePeerKeys is GET /v1/peer/keys: the in-memory cache's keys, oldest
// inserted first — what a warm-starting node replays via PreloadFromPeer.
func (s *Server) handlePeerKeys(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &api.PeerKeysResponse{Keys: s.cache.Keys()})
}

// PreloadFromPeer copies every artifact in the peer's in-memory cache into
// this node's cache — the warm-start substrate for a fresh or rejoining
// shard (the disk store, when configured, plays the same role across
// restarts of one node). Returns how many artifacts were loaded; individual
// fetch failures, and artifacts that fail the disk store's checks
// (checkArtifact), are logged and skipped, because a partial warm start is
// strictly better than none. A corrupt table is rebuilt, not skipped.
func (s *Server) PreloadFromPeer(ctx context.Context, addr string) (int, error) {
	c := api.NewClient(addr)
	keys, err := c.PeerKeys(ctx, addr)
	if err != nil {
		return 0, fmt.Errorf("server: preload from %s: %w", addr, err)
	}
	loaded := 0
	for _, key := range keys {
		e, err := c.PeerArtifact(ctx, addr, key)
		if err != nil {
			s.logf("quotd: preload %s from %s: %v", shortKey(key), addr, err)
			continue
		}
		if !s.admitPeerArtifact(e, key, addr) {
			continue
		}
		s.cache.Put(e)
		loaded++
	}
	s.logf("quotd: preloaded %d/%d artifact(s) from %s", loaded, len(keys), addr)
	return loaded, nil
}
