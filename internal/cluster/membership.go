package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's advertised address (host:port), exactly as it
	// appears in the other members' Peers lists — ring points hash the
	// address string, so every node must spell every member identically.
	Self string
	// Peers are the other members' advertised addresses.
	Peers []string
	// ProbeInterval is how often peers are health-probed (default 500ms);
	// ProbeTimeout bounds one probe (default ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// VirtualNodes per member on the ring (default DefaultVirtualNodes).
	VirtualNodes int
	// HotKeyRPS is the request rate (requests per second observed locally
	// for one foreign-owned key) above which the key's artifact is
	// replicated into the local cache. 0 picks DefaultHotKeyRPS; negative
	// disables replication.
	HotKeyRPS int
	// Probe overrides the health probe (tests). nil probes GET /healthz.
	Probe func(ctx context.Context, addr string) error
	// Logf receives membership transitions; nil disables.
	Logf func(format string, v ...any)
}

// probeFailuresToDead is how many consecutive failed probes mark a peer
// dead. One slow /healthz on a loaded machine must not flap a live peer:
// every flap rebuilds the ring twice and moves part of the keyspace to an
// owner that derives those keys again.
const probeFailuresToDead = 5

// Membership is one node's live view of the ring. Peers found dead by the
// prober (probeFailuresToDead failed probes in a row) or reported dead by a
// failed peer fill leave the ring until a probe finds them alive again;
// Self is always a member. Ring snapshots are immutable and swapped
// atomically, so Owner on the request path is a lock-free read racing
// safely with rebuilds.
type Membership struct {
	cfg  Config
	logf func(format string, v ...any)

	ring     atomic.Pointer[Ring]
	rebuilds atomic.Int64 // ring rebuilds since New: one per membership change

	mu    sync.Mutex
	alive map[string]bool
	fails map[string]int // consecutive failed probes per peer

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a membership view. All members start alive — a dead peer is
// discovered by the first probe round (or the first failed fill), which
// beats starting pessimistic and refusing to route during a rolling start.
func New(cfg Config) *Membership {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Probe == nil {
		cfg.Probe = httpProbe
	}
	m := &Membership{
		cfg:   cfg,
		logf:  cfg.Logf,
		alive: make(map[string]bool, len(cfg.Peers)),
		fails: make(map[string]int, len(cfg.Peers)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.Self {
			m.alive[p] = true
		}
	}
	m.rebuild()
	return m
}

// Start launches the probe loop. Stop it with Stop.
func (m *Membership) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.probeAll()
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it to exit.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// Self returns this node's advertised address.
func (m *Membership) Self() string { return m.cfg.Self }

// Ring returns the current ring snapshot.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// Owner returns the live member owning key ("" on an empty ring).
func (m *Membership) Owner(key string) string { return m.ring.Load().Owner(key) }

// PeersUpDown reports how many peers are currently considered alive/dead.
func (m *Membership) PeersUpDown() (up, down int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ok := range m.alive {
		if ok {
			up++
		} else {
			down++
		}
	}
	return up, down
}

// Rebuilds reports how many times a membership change has rebuilt the
// ring since New.
func (m *Membership) Rebuilds() int64 { return m.rebuilds.Load() }

// ReportFailure marks a peer dead immediately — called by a peer fill that
// hit a transport error, so routing reacts now instead of waiting out a
// probe round. The prober re-adds the peer when it answers again.
func (m *Membership) ReportFailure(addr string) {
	m.setAlive(addr, false)
}

func (m *Membership) setAlive(addr string, ok bool) {
	if addr == "" || addr == m.cfg.Self {
		return
	}
	m.mu.Lock()
	prev, known := m.alive[addr]
	if !known || prev == ok {
		m.mu.Unlock()
		return
	}
	m.alive[addr] = ok
	m.mu.Unlock()
	if ok {
		m.logf("cluster: peer %s rejoined; rebuilding ring", addr)
	} else {
		m.logf("cluster: peer %s lost; rebuilding ring", addr)
	}
	m.rebuilds.Add(1)
	m.rebuild()
}

// probed records one probe result for addr: a success makes the peer
// alive at once, a failure only on the probeFailuresToDead-th in a row.
func (m *Membership) probed(addr string, err error) {
	m.mu.Lock()
	if err == nil {
		m.fails[addr] = 0
	} else {
		m.fails[addr]++
	}
	dead := m.fails[addr] >= probeFailuresToDead
	m.mu.Unlock()
	if err == nil || dead {
		m.setAlive(addr, err == nil)
	}
}

// rebuild swaps in a fresh ring over self + live peers.
func (m *Membership) rebuild() {
	m.mu.Lock()
	members := make([]string, 0, len(m.alive)+1)
	if m.cfg.Self != "" {
		members = append(members, m.cfg.Self)
	}
	for p, ok := range m.alive {
		if ok {
			members = append(members, p)
		}
	}
	m.mu.Unlock()
	m.ring.Store(NewRing(members, m.cfg.VirtualNodes))
}

func (m *Membership) probeAll() {
	m.mu.Lock()
	peers := make([]string, 0, len(m.alive))
	for p := range m.alive {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeTimeout)
			defer cancel()
			m.probed(addr, m.cfg.Probe(ctx, addr))
		}(p)
	}
	wg.Wait()
}

// httpProbe is the default probe: GET /healthz (liveness, not readiness —
// a draining node still answers peer fills until its listener closes).
func httpProbe(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: probe %s: status %d", addr, resp.StatusCode)
	}
	return nil
}
