package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyProbe simulates peers whose health the test controls.
type flakyProbe struct {
	mu   sync.Mutex
	down map[string]bool
}

func (f *flakyProbe) set(addr string, dead bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down == nil {
		f.down = map[string]bool{}
	}
	f.down[addr] = dead
}

func (f *flakyProbe) probe(_ context.Context, addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[addr] {
		return errors.New("down")
	}
	return nil
}

func TestMembershipLossAndRejoinRebuildRing(t *testing.T) {
	fp := &flakyProbe{}
	m := New(Config{
		Self:          "a:1",
		Peers:         []string{"b:2", "c:3"},
		ProbeInterval: 5 * time.Millisecond,
		Probe:         fp.probe,
		Logf:          t.Logf,
	})
	m.Start()
	defer m.Stop()

	if got := m.Ring().Size(); got != 3 {
		t.Fatalf("initial ring size %d, want 3", got)
	}
	fp.set("b:2", true)
	waitFor(t, func() bool { return m.Ring().Size() == 2 }, "ring to drop the dead peer")
	if up, down := m.PeersUpDown(); up != 1 || down != 1 {
		t.Errorf("up/down = %d/%d, want 1/1", up, down)
	}
	// Every key must now be owned by a surviving member.
	for i := 0; i < 200; i++ {
		if o := m.Owner(keyFor(i)); o == "b:2" {
			t.Fatalf("key routed to the dead peer")
		}
	}
	fp.set("b:2", false)
	waitFor(t, func() bool { return m.Ring().Size() == 3 }, "ring to re-add the peer")
}

func TestReportFailureIsImmediate(t *testing.T) {
	// No probe loop at all: ReportFailure alone must rebuild.
	m := New(Config{Self: "a:1", Peers: []string{"b:2"}, Probe: func(context.Context, string) error { return nil }})
	if m.Ring().Size() != 2 {
		t.Fatal("setup")
	}
	m.ReportFailure("b:2")
	if m.Ring().Size() != 1 {
		t.Fatal("ReportFailure did not rebuild the ring")
	}
	m.ReportFailure("nobody:9") // unknown peers are ignored
	if m.Ring().Size() != 1 {
		t.Fatal("unknown peer changed the ring")
	}
}

// TestSlowProbeDoesNotFlap: a peer whose probe fails once and then
// succeeds stays in the ring, so the ring is never rebuilt; only
// probeFailuresToDead failures in a row mark it dead.
func TestSlowProbeDoesNotFlap(t *testing.T) {
	var calls atomic.Int64
	m := New(Config{Self: "a:1", Peers: []string{"b:2", "c:3"}, Probe: func(_ context.Context, addr string) error {
		if addr == "b:2" && calls.Add(1) == 1 {
			return errors.New("probe timed out")
		}
		return nil
	}})
	for i := 0; i < 5; i++ {
		m.probeAll()
	}
	if got := m.Rebuilds(); got != 0 {
		t.Fatalf("one failed probe rebuilt the ring %d time(s)", got)
	}
	if got := m.Ring().Size(); got != 3 {
		t.Fatalf("ring size %d after one failed probe, want 3", got)
	}

	fp := &flakyProbe{}
	fp.set("b:2", true)
	m = New(Config{Self: "a:1", Peers: []string{"b:2"}, Probe: fp.probe})
	for i := 1; i <= probeFailuresToDead; i++ {
		m.probeAll()
		if want := i == probeFailuresToDead; (m.Ring().Size() == 1) != want {
			t.Fatalf("after %d failed probe(s): ring size %d", i, m.Ring().Size())
		}
	}
	fp.set("b:2", false)
	m.probeAll()
	if m.Ring().Size() != 2 || m.Rebuilds() != 2 {
		t.Fatalf("after a good probe: ring size %d, %d rebuilds; want 2, 2", m.Ring().Size(), m.Rebuilds())
	}
}

// TestRingRebuildRace hammers Owner from many readers while the membership
// flaps a peer up and down — the ring-rebuild race test the issue asks for;
// run under -race this proves routing needs no locks.
func TestRingRebuildRace(t *testing.T) {
	fp := &flakyProbe{}
	m := New(Config{
		Self:          "a:1",
		Peers:         []string{"b:2", "c:3", "d:4"},
		ProbeInterval: time.Millisecond,
		Probe:         fp.probe,
	})
	m.Start()
	defer m.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if o := m.Owner(keyFor(seed*1000 + i%1000)); o == "" {
					t.Error("empty owner from a non-empty ring")
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			fp.set("b:2", i%2 == 0)
			m.ReportFailure("c:3")
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHTTPProbe: the default probe passes a node that answers /healthz
// with 200 and names the status of one that does not.
func TestHTTPProbe(t *testing.T) {
	status := http.StatusOK
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe asked for %s", r.URL.Path)
		}
		w.WriteHeader(status)
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := httpProbe(context.Background(), addr); err != nil {
		t.Fatalf("healthy node: %v", err)
	}
	status = http.StatusServiceUnavailable
	if err := httpProbe(context.Background(), addr); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("unhealthy node: %v, want an error naming status 503", err)
	}
}
