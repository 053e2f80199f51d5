package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/cluster"
)

// clusterNode is one in-process shard: the Server plus its live listener.
type clusterNode struct {
	srv  *Server
	ts   *httptest.Server
	addr string // host:port, the ring member name
}

// newTestCluster starts n nodes that all know each other, with fast health
// probes. Each node's advertised address is its httptest listener address.
func newTestCluster(t *testing.T, n int, cfg Config, hotRPS int) []*clusterNode {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	nodes := make([]*clusterNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(s.Abort)
		nodes[i] = &clusterNode{srv: s, ts: ts, addr: strings.TrimPrefix(ts.URL, "http://")}
		addrs[i] = nodes[i].addr
	}
	for i, nd := range nodes {
		peers := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		nd.srv.StartCluster(cluster.Config{
			Self:          nd.addr,
			Peers:         peers,
			ProbeInterval: 25 * time.Millisecond,
			HotKeyRPS:     hotRPS,
		})
		t.Cleanup(nd.srv.StopCluster)
	}
	return nodes
}

func TestClusterWideSingleflightViaPeerFill(t *testing.T) {
	nodes := newTestCluster(t, 3, Config{}, -1)
	req := simpleRequest()

	// Every node answers the same request; only one engine run may happen
	// anywhere, because non-owners route their miss to the owner.
	for i, nd := range nodes {
		out, code := postDerive(t, nd.ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("node %d: status %d: %+v", i, code, out.Error)
		}
		if !out.Exists || out.Converter == "" {
			t.Fatalf("node %d: no converter: %+v", i, out)
		}
	}
	var derives, peerFills, peerServed int64
	for _, nd := range nodes {
		st := nd.srv.statsSnapshot()
		derives += st.Derives
		peerFills += st.PeerFills
		peerServed += st.PeerServed
		if !st.ClusterEnabled || st.ClusterSelf != nd.addr {
			t.Errorf("cluster stats missing: %+v", st)
		}
		if st.ClusterPeersUp != 2 || st.ClusterPeersDown != 0 {
			t.Errorf("node %s: peers up/down = %d/%d, want 2/0",
				nd.addr, st.ClusterPeersUp, st.ClusterPeersDown)
		}
	}
	if derives != 1 {
		t.Errorf("engine ran %d times across the cluster for one distinct key, want 1", derives)
	}
	if peerFills != 2 || peerServed != 2 {
		t.Errorf("peer fills/served = %d/%d, want 2/2 (two non-owners, one owner)", peerFills, peerServed)
	}
}

func TestPeerFillResponseNamesTheShard(t *testing.T) {
	nodes := newTestCluster(t, 3, Config{}, -1)
	req := simpleRequest()
	var shards []string
	for _, nd := range nodes {
		out, code := postDerive(t, nd.ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("status %d: %+v", code, out.Error)
		}
		shards = append(shards, out.Shard)
	}
	// Exactly one node is the owner (Shard empty: answered itself); the two
	// others name the owner.
	var owner string
	empties := 0
	for _, sh := range shards {
		if sh == "" {
			empties++
		} else if owner == "" {
			owner = sh
		} else if sh != owner {
			t.Errorf("two different shards named as owner: %s vs %s", owner, sh)
		}
	}
	if empties != 1 || owner == "" {
		t.Errorf("shards = %v: want exactly one self-answer and two fills from one owner", shards)
	}
}

func TestOwnerDownFallsBackToLocalDerivation(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{}, -1)

	// Find a request the dead node will own, from the survivor's view.
	survivor, victim := nodes[0], nodes[1]
	req, found := simpleRequest(), false
	for j := 0; j < 64 && !found; j++ {
		req.Options.MaxStates = 100000 + j // semantically inert, changes the key
		cr, werr := survivor.srv.compile(&req)
		if werr != nil {
			t.Fatal(werr)
		}
		found = survivor.srv.cluster.Load().mem.Owner(cr.key) == victim.addr
	}
	if !found {
		t.Fatal("no victim-owned key found in 64 variants")
	}

	victim.ts.Close() // shard loss, mid-cluster
	out, code := postDerive(t, survivor.ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("owner loss surfaced to the client: status %d: %+v", code, out.Error)
	}
	if !out.Exists || out.Shard != "" {
		t.Fatalf("want a locally derived converter, got %+v", out)
	}
	st := survivor.srv.statsSnapshot()
	if st.PeerUnavailable < 1 {
		t.Errorf("peer_unavailable = %d, want >= 1", st.PeerUnavailable)
	}
	if st.Derives != 1 {
		t.Errorf("local fallback ran the engine %d times, want 1", st.Derives)
	}
	// The failed fill marked the victim dead immediately; repeat requests
	// stop attempting the hop.
	before := st.PeerUnavailable
	again, _ := postDerive(t, survivor.ts.URL, req)
	if !again.Cached {
		t.Error("repeat after fallback should hit the local cache")
	}
	if st2 := survivor.srv.statsSnapshot(); st2.PeerUnavailable != before {
		t.Errorf("cache hit should not attempt a peer fill (peer_unavailable %d -> %d)",
			before, st2.PeerUnavailable)
	}
}

func TestHotKeyReplicatesIntoLocalCache(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{}, 1) // threshold 1 rps: hot at once
	// Find a request the *other* node owns so node 0 must fill.
	req, found := simpleRequest(), false
	for j := 0; j < 64 && !found; j++ {
		req.Options.MaxStates = 100000 + j
		cr, werr := nodes[0].srv.compile(&req)
		if werr != nil {
			t.Fatal(werr)
		}
		found = nodes[0].srv.cluster.Load().mem.Owner(cr.key) == nodes[1].addr
	}
	if !found {
		t.Fatal("no foreign-owned key found")
	}
	first, code := postDerive(t, nodes[0].ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, first.Error)
	}
	if first.Shard != nodes[1].addr {
		t.Fatalf("first request should be peer-filled from the owner, got shard %q", first.Shard)
	}
	st := nodes[0].srv.statsSnapshot()
	if st.HotReplicated != 1 {
		t.Fatalf("hot_replicated = %d, want 1 (threshold is 1 rps)", st.HotReplicated)
	}
	// Replicated artifact now serves locally: cache hit, no shard, no hop.
	second, _ := postDerive(t, nodes[0].ts.URL, req)
	if !second.Cached || second.Shard != "" {
		t.Errorf("replicated key should hit the local cache: %+v", second)
	}
	if second.Converter != first.Converter {
		t.Error("replicated artifact differs from the owner's")
	}
}

func TestPreloadFromPeerWarmStart(t *testing.T) {
	// Not a cluster test per se: a fresh node copies a peer's in-memory
	// artifacts before joining, so it starts warm.
	_, warmTS := newTestServer(t, Config{})
	out, code := postDerive(t, warmTS.URL, simpleRequest())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	fresh, freshTS := newTestServer(t, Config{})
	n, err := fresh.PreloadFromPeer(context.Background(),
		strings.TrimPrefix(warmTS.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("preloaded %d artifacts, want 1", n)
	}
	got, _ := postDerive(t, freshTS.URL, simpleRequest())
	if !got.Cached {
		t.Error("preloaded node should serve from cache")
	}
	if got.Key != out.Key || got.Converter != out.Converter {
		t.Error("preloaded artifact is not bit-identical to the origin's")
	}
	if st := fresh.statsSnapshot(); st.Derives != 0 {
		t.Errorf("preloaded node ran the engine %d times, want 0", st.Derives)
	}
}

// TestPreloadChecksPeerArtifacts serves a warm start from a peer that lies:
// one artifact comes back filed under a key other than the one asked for,
// and one carries a corrupt compiled table. The preload must skip the
// first — caching it would poison another key — and load the second with
// its table rebuilt from the converter, as the disk store does.
func TestPreloadChecksPeerArtifacts(t *testing.T) {
	origin, originTS := newTestServer(t, Config{})
	out, code := postDerive(t, originTS.URL, simpleRequest())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	good, ok := origin.cache.Get(out.Key)
	if !ok || good.Table == "" {
		t.Fatalf("origin has no artifact with a table for %s", out.Key)
	}
	askedKey, poisonKey := strings.Repeat("a", 64), strings.Repeat("b", 64)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/peer/keys":
			writeJSON(w, http.StatusOK, &api.PeerKeysResponse{Keys: []string{askedKey, out.Key}})
		case "/v1/peer/artifact/" + askedKey:
			lie := *good
			lie.Key = poisonKey
			writeJSON(w, http.StatusOK, &lie)
		case "/v1/peer/artifact/" + out.Key:
			corrupt := *good
			corrupt.Table = "convrt-table/v1\nnot a table"
			writeJSON(w, http.StatusOK, &corrupt)
		default:
			writeJSON(w, http.StatusNotFound, &api.Error{Code: api.ErrCodeNotFound, Message: r.URL.Path})
		}
	}))
	defer peer.Close()

	fresh, _ := newTestServer(t, Config{})
	n, err := fresh.PreloadFromPeer(context.Background(), strings.TrimPrefix(peer.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("preloaded %d artifacts, want 1", n)
	}
	for _, k := range []string{askedKey, poisonKey} {
		if _, ok := fresh.cache.Get(k); ok {
			t.Errorf("the misfiled artifact was cached under %s", k)
		}
	}
	got, ok := fresh.cache.Get(out.Key)
	if !ok {
		t.Fatal("the artifact with a corrupt table was not loaded")
	}
	if got.Table != good.Table || got.Converter != good.Converter {
		t.Error("the loaded artifact's table was not rebuilt to the origin's bytes")
	}
}
