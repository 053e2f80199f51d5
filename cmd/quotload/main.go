// Command quotload drives concurrent load against quotd — one node or a
// sharded cluster — and checks the service-level invariants the daemon
// promises: every request answered (zero non-2xx, even across a shard kill
// and rejoin), repeats served from the content-addressed cache (hit ratio
// > 0 after round one), identical answers everywhere, no duplicate
// engine runs cluster-wide (one derivation per distinct key while the ring
// is stable), and on every node one cache hit or miss per derive request
// (shard traffic counts neither). It prints the warm-vs-cold latency table that EXPERIMENTS.md
// reports.
//
// By default it starts an in-process daemon on an ephemeral port, so `make
// loadtest` needs no running server. -cluster n starts n in-process nodes
// wired into one ring; -addr a,b,c targets an already-running deployment
// instead.
//
// Usage:
//
//	quotload [-clients n] [-rounds n] [-families list] [flags]
//
// Flags beyond the basics:
//
//	-cluster n      start n in-process shards (default 1: a plain daemon)
//	-variants n     per-family key variants, multiplying the keyspace
//	-dist d         request distribution per client: seq, uniform, or zipf
//	-zipf-s/-zipf-v Zipf skew parameters (s > 1, v >= 1)
//	-seed n         RNG seed for uniform/zipf request sequences
//	-kill           kill one shard during round 2 and restart it for the
//	                final round (in-process cluster only; needs -rounds >= 3)
//
// Each client is pinned to a home node (round-robin), like clients behind
// a per-node balancer; transport failures fail over to the other nodes via
// the api.Client, which is why a shard kill must never surface to callers.
// Each round, every client issues one request per (family × variant) slot,
// picking slots in order (seq) or by draw (uniform, zipf — skew makes hot
// keys, exercising hot-key replication). Round one is the cold round;
// later rounds must be warm. Exit status: 0 when every invariant holds, 1
// otherwise.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"flag"

	"protoquot/internal/api"
	"protoquot/internal/cluster"
	"protoquot/internal/dsl"
	_ "protoquot/internal/protosmith" // registers the rand/randwedge family kinds
	"protoquot/internal/server"
	"protoquot/internal/specgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// job is one distinct derivation the harness can request: a specgen family
// plus a key-salting variant (MaxStates offsets far above any real state
// count are semantically inert but change the content address).
type job struct {
	name string
	req  api.DeriveRequest
}

// oneResult is one client's observation of one request.
type oneResult struct {
	job     int
	cached  bool
	exists  bool
	key     string
	shard   string
	elapsed time.Duration
	err     error
}

// node is one in-process shard: the server plus its restartable listener.
type node struct {
	srv  *server.Server
	http *http.Server
	addr string
}

func (n *node) serve(ln net.Listener) {
	n.http = &http.Server{Handler: n.srv.Handler()}
	go n.http.Serve(ln)
}

// restart rebinds the node's fixed address and serves again — the rejoin
// half of a shard bounce. The Server (cache, counters, ring view) survives,
// like a restarted process with a disk cache.
func (n *node) restart() error {
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return err
	}
	n.serve(ln)
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quotload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clients  = fs.Int("clients", 8, "concurrent clients")
		rounds   = fs.Int("rounds", 3, "rounds per client (round 1 cold, rest warm)")
		families = fs.String("families", "chain(3),chain(4),chaindrop(4)", "specgen families to derive")
		addr     = fs.String("addr", "", "comma-separated addresses of an already-running quotd deployment")
		timeout  = fs.Duration("timeout", 60*time.Second, "per-request client timeout")
		clusterN = fs.Int("cluster", 1, "in-process shards to start (ignored with -addr)")
		variants = fs.Int("variants", 1, "key variants per family (multiplies the keyspace)")
		dist     = fs.String("dist", "seq", "per-client request distribution: seq, uniform, zipf")
		zipfS    = fs.Float64("zipf-s", 1.2, "zipf skew exponent (> 1)")
		zipfV    = fs.Float64("zipf-v", 1.0, "zipf value offset (>= 1)")
		seed     = fs.Int64("seed", 1, "RNG seed for uniform/zipf sequences")
		kill     = fs.Bool("kill", false, "kill one in-process shard during round 2, restart before the last round")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *clients < 1 || *rounds < 1 {
		fmt.Fprintln(stderr, "quotload: -clients and -rounds must be >= 1")
		return 1
	}
	if *variants < 1 || *clusterN < 1 {
		fmt.Fprintln(stderr, "quotload: -variants and -cluster must be >= 1")
		return 1
	}
	switch *dist {
	case "seq", "uniform", "zipf":
	default:
		fmt.Fprintf(stderr, "quotload: unknown -dist %q (want seq, uniform, or zipf)\n", *dist)
		return 1
	}
	if *kill && *addr != "" {
		fmt.Fprintln(stderr, "quotload: -kill only works with in-process shards (drop -addr)")
		return 1
	}
	if *kill && (*clusterN < 2 || *rounds < 3) {
		fmt.Fprintln(stderr, "quotload: -kill needs -cluster >= 2 and -rounds >= 3")
		return 1
	}

	jobs, err := buildJobs(*families, *variants)
	if err != nil {
		fmt.Fprintf(stderr, "quotload: %v\n", err)
		return 1
	}

	// Resolve the target: an external deployment, or in-process shards.
	var addrs []string
	var nodes []*node
	if *addr != "" {
		for _, a := range strings.Split(*addr, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	} else {
		nodes, err = startNodes(*clusterN)
		if err != nil {
			fmt.Fprintf(stderr, "quotload: %v\n", err)
			return 1
		}
		for _, nd := range nodes {
			defer nd.srv.Abort()
			defer nd.http.Close()
			defer nd.srv.StopCluster()
			addrs = append(addrs, nd.addr)
		}
	}

	fmt.Fprintf(stdout, "quotload: %d client(s) × %d round(s) × %d job(s) (%s) against %d node(s)\n",
		*clients, *rounds, len(jobs), *dist, len(addrs))

	// One typed client per load generator, each pinned to a home node
	// (rotated address list) with transport failover across the rest.
	gens := make([]*api.Client, *clients)
	for c := range gens {
		home := c % len(addrs)
		order := append(append([]string(nil), addrs[home:]...), addrs[:home]...)
		gens[c] = api.NewClusterClient(order, api.WithTimeout(*timeout))
	}

	// Run the load. A barrier between rounds makes rounds >= 2 strictly
	// warm: every key was derived (or coalesced) to completion in round 1.
	ctx := context.Background()
	var (
		mu       sync.Mutex
		results  []oneResult
		failures []string
	)
	victim := -1
	if *kill {
		victim = len(nodes) - 1
	}
	for round := 1; round <= *rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(round)*7919 + int64(c)))
				local := make([]oneResult, 0, len(jobs))
				for _, j := range pickJobs(*dist, rng, *zipfS, *zipfV, len(jobs)) {
					r := oneResult{job: j}
					t0 := time.Now()
					resp, err := gens[c].Derive(ctx, &jobs[j].req)
					r.elapsed = time.Since(t0)
					if err != nil {
						r.err = err
					} else {
						r.cached, r.exists = resp.Cached, resp.Exists
						r.key, r.shard = resp.Key, resp.Shard
					}
					local = append(local, r)
				}
				mu.Lock()
				results = append(results, local...)
				mu.Unlock()
			}(c)
		}
		if *kill && round == 2 {
			// Kill mid-round: in-flight requests to the victim see their
			// connections die and must fail over, not fail.
			time.Sleep(5 * time.Millisecond)
			fmt.Fprintf(stdout, "quotload: killing shard %s mid-round\n", nodes[victim].addr)
			nodes[victim].http.Close()
		}
		wg.Wait()
		if *kill && round == *rounds-1 {
			fmt.Fprintf(stdout, "quotload: restarting shard %s\n", nodes[victim].addr)
			if err := nodes[victim].restart(); err != nil {
				fmt.Fprintf(stderr, "quotload: restart: %v\n", err)
				return 1
			}
			// Let health probes re-admit it before the final round.
			time.Sleep(300 * time.Millisecond)
		}
	}

	// Invariant 1: every request answered. The cluster client retries
	// transport failures on other nodes, so even the kill round must be
	// clean; any *api.Error here is a real service failure.
	for _, r := range results {
		if r.err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", jobs[r.job].name, r.err))
		}
	}
	failed := false
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "quotload: FAIL: %d failed request(s):\n", len(failures))
		for i, f := range failures {
			if i == 10 {
				fmt.Fprintf(stderr, "quotload:   ... and %d more\n", len(failures)-10)
				break
			}
			fmt.Fprintf(stderr, "quotload:   %s\n", f)
		}
		failed = true
	}

	// Invariant 2: repeats hit the cache; invariant 3: one content address
	// per job, everywhere.
	var hits, total int
	requested := map[int]bool{}
	jobKey := map[int]string{}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		total++
		requested[r.job] = true
		if r.cached {
			hits++
		}
		if prev, ok := jobKey[r.job]; ok && prev != r.key {
			fmt.Fprintf(stderr, "quotload: FAIL: job %s produced two content addresses (%s vs %s)\n",
				jobs[r.job].name, prev[:12], r.key[:12])
			failed = true
		} else {
			jobKey[r.job] = r.key
		}
	}
	if hits == 0 && total > 0 {
		fmt.Fprintf(stderr, "quotload: FAIL: cache-hit ratio is 0 over %d request(s) with %d round(s)\n",
			total, *rounds)
		failed = true
	}

	printLatencyTable(stdout, jobs, results)

	// Invariant 4: no duplicate engine runs cluster-wide. With a stable
	// ring the bound is exact: one derivation per distinct requested key.
	// A killed shard relaxes it by exactly the explained failures: each
	// survivor may re-derive a dead owner's keys locally once, and every
	// peer fill that found the owner unreachable mid-kill is allowed its
	// one recorded local-fallback derivation (peer_unavailable counts
	// precisely those) — dedup degrades, availability does not.
	sums, perNode, uncounted := sumStats(ctx, addrs, *timeout)
	distinct := len(requested)
	fmt.Fprintf(stdout, "cluster: nodes=%d distinct_keys=%d derives=%d coalesced=%d cache_hits=%d cache_alias_hits=%d peer_fills=%d peer_served=%d peer_unavailable=%d hot_replicated=%d ring_rebuilds=%d\n",
		len(addrs), distinct, sums.Derives, sums.Coalesced, sums.CacheHits, sums.CacheAliasHits, sums.PeerFills, sums.PeerServed, sums.PeerUnavailable, sums.HotReplicated, sums.ClusterRingRebuilds)
	for _, line := range perNode {
		fmt.Fprintf(stdout, "  %s\n", line)
	}
	// Invariant 5: every node counts exactly one cache hit or miss per
	// derive request it answered, and none for shard traffic.
	for _, line := range uncounted {
		fmt.Fprintf(stderr, "quotload: FAIL: %s\n", line)
		failed = true
	}
	if victimKeys := 0; true {
		if *kill {
			ring := cluster.NewRing(addrs, 0)
			for j := range requested {
				if ring.Owner(jobKey[j]) == addrs[victim] {
					victimKeys++
				}
			}
		}
		limit := int64(distinct)
		if *kill {
			limit = int64(distinct+victimKeys*len(addrs)) + sums.PeerUnavailable
		}
		if sums.Derives > limit {
			fmt.Fprintf(stderr, "quotload: FAIL: engine ran %d times for %d distinct key(s) (limit %d)\n",
				sums.Derives, distinct, limit)
			failed = true
		}
		if !*kill && sums.Derives < int64(distinct) {
			fmt.Fprintf(stderr, "quotload: FAIL: engine ran %d times for %d distinct key(s) — some answers were never derived?\n",
				sums.Derives, distinct)
			failed = true
		}
	}

	if failed {
		return 1
	}
	fmt.Fprintf(stdout, "quotload: OK: %d request(s), 0 failed, %d cache hit(s) (%.0f%%)\n",
		total, hits, 100*ratio(hits, total))
	return 0
}

// buildJobs expands the family list by the variant count. Variant 0 keeps
// the family's natural key (so plain runs share cache entries with other
// tools); variant v > 0 salts DeriveOptions.MaxStates with an offset far
// above any real state count, which changes the content address without
// changing the answer.
func buildJobs(families string, variants int) ([]job, error) {
	var jobs []job
	for _, name := range strings.Split(families, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f, err := specgen.ParseFamily(name)
		if err != nil {
			return nil, err
		}
		req := api.DeriveRequest{Service: api.SpecSource{Inline: dsl.String(f.Service)}}
		for _, c := range f.Components {
			req.Components = append(req.Components, api.SpecSource{Inline: dsl.String(c)})
		}
		for v := 0; v < variants; v++ {
			j := job{name: f.Name, req: req}
			if v > 0 {
				j.name = fmt.Sprintf("%s#%d", f.Name, v)
				j.req.Options.MaxStates = 1_000_000 + v
			}
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		return nil, errors.New("no families")
	}
	return jobs, nil
}

// pickJobs returns the slots one client requests in one round — always
// len(jobs) requests, so round volume is distribution-independent.
func pickJobs(dist string, rng *rand.Rand, s, v float64, n int) []int {
	out := make([]int, n)
	switch dist {
	case "uniform":
		for i := range out {
			out[i] = rng.Intn(n)
		}
	case "zipf":
		z := rand.NewZipf(rng, s, v, uint64(n-1))
		for i := range out {
			out[i] = int(z.Uint64())
		}
	default: // seq
		for i := range out {
			out[i] = i
		}
	}
	return out
}

// startNodes boots n in-process shards on ephemeral ports. With n == 1 the
// node is a plain daemon; otherwise every node joins one ring with fast
// health probes, so a killed shard is routed around within ~100ms.
func startNodes(n int) ([]*node, error) {
	nodes := make([]*node, n)
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range nodes {
		srv, err := server.New(server.Config{Logf: func(string, ...any) {}})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		nodes[i] = &node{srv: srv, addr: ln.Addr().String()}
		lns[i] = ln
		addrs[i] = nodes[i].addr
	}
	for i, nd := range nodes {
		if n > 1 {
			peers := make([]string, 0, n-1)
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			nd.srv.StartCluster(cluster.Config{
				Self:          nd.addr,
				Peers:         peers,
				ProbeInterval: 50 * time.Millisecond,
			})
		}
		nd.serve(lns[i])
	}
	return nodes, nil
}

// sumStats totals the stats counters across every node and returns a
// per-node summary line for the report, and a line for every node whose
// cache hits and misses do not add up to its derive requests. Unreachable
// nodes contribute nothing (they cannot be hiding engine runs that already
// happened — counters survive the in-process restart, and a truly dead
// external node is out of scope for the invariant).
func sumStats(ctx context.Context, addrs []string, timeout time.Duration) (sums api.StatsResponse, lines, uncounted []string) {
	for _, a := range addrs {
		st, err := api.NewClient(a, api.WithTimeout(timeout)).Stats(ctx)
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s: stats unavailable: %v", a, err))
			continue
		}
		sums.Derives += st.Derives
		sums.Coalesced += st.Coalesced
		sums.CacheHits += st.CacheHits
		sums.CacheAliasHits += st.CacheAliasHits
		sums.CacheMisses += st.CacheMisses
		sums.PeerFills += st.PeerFills
		sums.PeerServed += st.PeerServed
		sums.PeerUnavailable += st.PeerUnavailable
		sums.HotReplicated += st.HotReplicated
		sums.ClusterRingRebuilds += st.ClusterRingRebuilds
		lines = append(lines, fmt.Sprintf("%s: derives=%d cache_hits=%d peer_served=%d peers_up=%d",
			a, st.Derives, st.CacheHits, st.PeerServed, st.ClusterPeersUp))
		if st.CacheHits+st.CacheMisses != st.DeriveRequests {
			uncounted = append(uncounted, fmt.Sprintf("%s: cache_hits %d + cache_misses %d != derive_requests %d",
				a, st.CacheHits, st.CacheMisses, st.DeriveRequests))
		}
	}
	return sums, lines, uncounted
}

// printLatencyTable writes the per-job warm-vs-cold client-observed median
// table that EXPERIMENTS.md reports.
func printLatencyTable(w io.Writer, jobs []job, results []oneResult) {
	fmt.Fprintf(w, "%-14s %8s %8s %12s %12s %9s\n",
		"job", "cold_n", "warm_n", "cold_p50_ms", "warm_p50_ms", "speedup")
	for j := range jobs {
		var cold, warm []float64
		for _, r := range results {
			if r.job != j || r.err != nil {
				continue
			}
			ms := float64(r.elapsed.Nanoseconds()) / 1e6
			if r.cached {
				warm = append(warm, ms)
			} else {
				cold = append(cold, ms)
			}
		}
		if len(cold)+len(warm) == 0 {
			continue // zipf tail: slot never drawn
		}
		cp, wp := median(cold), median(warm)
		speedup := "-"
		if wp > 0 {
			speedup = fmt.Sprintf("%.0f×", cp/wp)
		}
		fmt.Fprintf(w, "%-14s %8d %8d %12.2f %12.2f %9s\n",
			jobs[j].name, len(cold), len(warm), cp, wp, speedup)
	}
}

func ratio(hits, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
