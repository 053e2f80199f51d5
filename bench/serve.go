package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/server"
)

// serveConfig is the serve workload: an in-process quotd on loopback, driven
// in a closed loop by a few api.Clients over a Zipf-skewed keyspace larger
// than the cache.
type serveConfig struct {
	families     []string
	variants     int // cache keys per family
	cacheEntries int
	poolWorkers  int
	clients      int
	zipfS        float64
	warmup       int // untimed requests that fill the cache, part of every set-up
	setups       int
}

// replayPasses is how often a traced serve run replays the miss path of
// every family library-side.
const replayPasses = 3

var serveZipf = serveConfig{
	families:     []string{"chain(2)", "chain(3)", "chaindrop(2)", "chaindrop(3)", "ring(2)"},
	variants:     8,
	cacheEntries: 16,
	poolWorkers:  2,
	clients:      2,
	zipfS:        1.1,
	warmup:       300,
	setups:       3,
}

// serveOptions are the deploy path: prune the converter and ship its table.
// Variant v > 0 salts MaxStates far above any real state count, which
// changes the content address but not the answer.
func serveOptions(variant int) api.DeriveOptions {
	o := api.DeriveOptions{OmitVacuous: true, Prune: true, IncludeTable: true}
	if variant > 0 {
		o.MaxStates = 1_000_000 + variant
	}
	return o
}

// serveKey is one cache key of the keyspace and the request that names it.
type serveKey struct {
	family int
	req    *api.DeriveRequest
	key    string // api.CacheKey computed library-side
}

// buildKeys lays the keyspace out by Zipf rank: rank r is variant r/F of
// family r%F, so every family has hot keys and cold ones.
func buildKeys(cfg serveConfig) ([]system, []serveKey, error) {
	systems := make([]system, len(cfg.families))
	for i, name := range cfg.families {
		sys, err := familySystem(name)
		if err != nil {
			return nil, nil, err
		}
		systems[i] = sys
	}
	keys := make([]serveKey, len(systems)*cfg.variants)
	for r := range keys {
		f := r % len(systems)
		req := request(systems[f], serveOptions(r/len(systems)))
		key, _, err := keyStage(nil, 0, 0, systems[f].name, req)
		if err != nil {
			return nil, nil, err
		}
		keys[r] = serveKey{family: f, req: req, key: key}
	}
	return systems, keys, nil
}

// zipfBlock is the stratification block of zipfStream.
const zipfBlock = 500

// zipfStream returns n key ranks whose frequencies follow Zipf(s) over k keys
// exactly within every block of zipfBlock requests, in an order shuffled by
// rng. Seeds change the order of requests, not their mix, so the hit ratio —
// and with it throughput — varies little from seed to seed.
func zipfStream(rng *rand.Rand, k int, s float64, n int) []int {
	w := make([]float64, k)
	var sum float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -s)
		sum += w[r]
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	left := zipfBlock
	for r := range w {
		x := zipfBlock * w[r] / sum
		counts[r] = int(x)
		rem[r] = x - float64(counts[r])
		left -= counts[r]
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return rem[order[i]] > rem[order[j]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	block := make([]int, 0, zipfBlock)
	for r, c := range counts {
		for j := 0; j < c; j++ {
			block = append(block, r)
		}
	}
	out := make([]int, 0, n+zipfBlock)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// liveServer is one in-process quotd on a loopback port with its clients.
type liveServer struct {
	srv       *server.Server
	hs        *http.Server
	done      chan struct{}
	transport *http.Transport
	clients   []*api.Client
}

func startServer(cfg serveConfig) (*liveServer, error) {
	srv, err := server.New(server.Config{CacheEntries: cfg.cacheEntries, PoolWorkers: cfg.poolWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler()},
		done:      make(chan struct{}),
		transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients},
	}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	hc := &http.Client{Transport: ls.transport, Timeout: time.Minute}
	for i := 0; i < cfg.clients; i++ {
		ls.clients = append(ls.clients, api.NewClient(ln.Addr().String(), api.WithHTTPClient(hc)))
	}
	return ls, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, and cancels anything still inside the engine.
func (ls *liveServer) stop() {
	ls.hs.Close()
	<-ls.done
	ls.srv.Abort()
	ls.transport.CloseIdleConnections()
}

// sample is one client-observed request.
type sample struct {
	ms     float64
	cached bool
	traced bool
}

// serveRun is the state the clients share.
type serveRun struct {
	systems []system
	keys    []serveKey
	stream  []int

	mu       sync.Mutex
	problems []string
	served   map[int]*api.DeriveResponse // last good response per family
}

// drive runs the closed loop: each client takes the next request of the
// stream, starting at from, and sends the one after only when the answer is
// in. It stops after count requests (0: no cap) or at the deadline (zero:
// none). Every response is checked; a failed check is a failed request. It
// returns the good requests' samples and the number of requests sent.
func (r *serveRun) drive(ls *liveServer, from, count int, deadline time.Time, tr *tracer) ([]sample, int) {
	var next, sent atomic.Int64
	next.Store(int64(from))
	per := make([][]sample, len(ls.clients))
	var wg sync.WaitGroup
	for c, cl := range ls.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (count > 0 && i >= from+count) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				sent.Add(1)
				k := r.keys[r.stream[i%len(r.stream)]]
				traced := tr != nil && i%2 == 1
				t0 := time.Now()
				resp, err := cl.Derive(context.Background(), k.req)
				t1 := time.Now()
				if err == nil {
					err = checkResponse(k, resp)
				}
				if err != nil {
					r.fail("request %d (%s): %v", i, r.systems[k.family].name, err)
					continue
				}
				r.mu.Lock()
				r.served[k.family] = resp
				r.mu.Unlock()
				if traced {
					cached := 0.0
					if resp.Cached {
						cached = 1
					}
					tr.add(0, tr.id(), 0, "serve.request", t0, t1, map[string]float64{"cached": cached})
				}
				per[c] = append(per[c], sample{ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6, cached: resp.Cached, traced: traced})
			}
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, int(sent.Load())
}

func (r *serveRun) fail(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func checkResponse(k serveKey, resp *api.DeriveResponse) error {
	switch {
	case !resp.Exists:
		return errors.New("exists is false")
	case resp.Key != k.key:
		return fmt.Errorf("key %.12s, library key %.12s", resp.Key, k.key)
	case resp.Converter == "" || resp.Table == "":
		return errors.New("converter or table missing")
	}
	return nil
}

// checkServed is the after-run oracle for one family: the served converter
// satisfies the service against the eagerly composed environment (the
// independent sat checker), matches its pinned hash, and its table decodes.
func checkServed(sys system, resp *api.DeriveResponse) error {
	if resp == nil {
		return errors.New("never served")
	}
	conv, err := dsl.ParseString(resp.Converter)
	if err != nil {
		return fmt.Errorf("served converter does not parse: %w", err)
	}
	b, err := compose.Many(sys.comps...)
	if err != nil {
		return err
	}
	if err := core.Verify(sys.a, b, conv); err != nil {
		return fmt.Errorf("served converter fails verification: %w", err)
	}
	if err := checkPruned(sys.name, conv); err != nil {
		return err
	}
	if _, err := convrt.Decode([]byte(resp.Table)); err != nil {
		return fmt.Errorf("served table does not decode: %w", err)
	}
	return nil
}

func runServe(env *runEnv, cfg serveConfig) (*outcome, error) {
	systems, keys, err := buildKeys(cfg)
	if err != nil {
		return nil, err
	}
	// The stream holds more requests than the closed loop can send at any
	// rate this machine reaches.
	n := cfg.warmup + 1000*int(env.seconds.Seconds()+1)
	r := &serveRun{
		systems: systems,
		keys:    keys,
		stream:  zipfStream(rand.New(rand.NewSource(env.seed)), len(keys), cfg.zipfS, n),
		served:  make(map[int]*api.DeriveResponse),
	}
	out := &outcome{}

	// Set up several times; every set-up starts a fresh server and replays
	// the same warm-up, and the last one stays up for the timed phase.
	var ls *liveServer
	for s := 0; s < cfg.setups; s++ {
		calibrate(out, 3)
		t0 := time.Now()
		if ls, err = startServer(cfg); err != nil {
			return nil, err
		}
		_, sent := r.drive(ls, 0, cfg.warmup, time.Time{}, nil)
		out.attempted += sent
		out.setupS = append(out.setupS, env.initS+time.Since(t0).Seconds())
		if s < cfg.setups-1 {
			ls.stop()
		}
	}
	defer ls.stop()

	calibrate(out, 3)
	ctx := context.Background()
	before, err := ls.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	samples, sent := r.drive(ls, cfg.warmup, 0, t0.Add(env.seconds), env.tr)
	wall := time.Since(t0)
	out.rssMB = maxRSSMB()
	after, err := ls.clients[0].Stats(ctx)
	if err != nil {
		return nil, err
	}
	calibrate(out, 3)
	out.attempted += sent
	out.opsPerS = float64(len(samples)) / wall.Seconds()
	var hit, missed []float64
	for _, s := range samples {
		if s.traced {
			out.tracedMS = append(out.tracedMS, s.ms)
		} else {
			out.latencyMS = append(out.latencyMS, s.ms)
		}
		if s.cached {
			hit = append(hit, s.ms)
		} else {
			missed = append(missed, s.ms)
		}
	}
	for f, sys := range systems {
		out.attempted++
		if err := checkServed(sys, r.served[f]); err != nil {
			out.fail("%s: %v", sys.name, err)
		}
	}
	for _, p := range r.problems {
		out.fail("%s", p)
	}
	if env.tr == nil {
		return out, nil
	}

	// Traced: replay the miss path library-side for the per-miss layer
	// costs, and read the server's counters over the timed phase.
	for p := 0; p < replayPasses; p++ {
		for _, sys := range systems {
			out.attempted++
			conv, table, err := missPath(env.tr, env.tr.id(), "serve.replay", sys.name, request(sys, serveOptions(0)))
			if err == nil {
				err = checkPruned(sys.name, conv)
			}
			if err != nil {
				out.fail("replay %s: %v", sys.name, err)
				continue
			}
			if p == 0 {
				stepLoop(env.tr, env.tr.id(), 0, table, env.seed, stepLoopSteps)
			}
		}
	}
	out.layer = layerMetrics(env.tr.snapshot())
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		out.layer["server.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out.layer["server.derives"] = float64(after.Derives - before.Derives)
	out.layer["server.coalesced"] = float64(after.Coalesced - before.Coalesced)
	out.layer["server.evictions"] = float64(after.CacheEvictions - before.CacheEvictions)
	out.layer["server.rejected"] = float64(after.Rejected - before.Rejected)
	out.layer["server.hit_p50_ms"] = median(hit)
	out.layer["server.miss_p50_ms"] = median(missed)
	out.layer["server.latency_p99_ms"] = percentile(append(hit, missed...), 0.99)
	out.bypass(fleetMetrics)
	return out, nil
}
