package protocols

import (
	"testing"

	"protoquot/internal/core"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

func TestWindowServiceShape(t *testing.T) {
	ws := WindowService(3)
	if ws.NumStates() != 4 {
		t.Errorf("states = %d, want 4", ws.NumStates())
	}
	if err := ws.IsNormalForm(); err != nil {
		t.Error(err)
	}
	if !ws.HasTrace([]spec.Event{Acc, Acc, Acc, Del, Del, Del}) {
		t.Error("three outstanding should be allowed")
	}
	if ws.HasTrace([]spec.Event{Acc, Acc, Acc, Acc}) {
		t.Error("four outstanding should be forbidden")
	}
	// n=1 is the Figure 11 service.
	if sat.Safety(WindowService(1), Service()) != nil || sat.Safety(Service(), WindowService(1)) != nil {
		t.Error("WindowService(1) should equal the Figure 11 service")
	}
}

func TestWindowConfigValidation(t *testing.T) {
	if _, err := WindowSender(WindowConfig{Window: 0, Modulus: 4}); err == nil {
		t.Error("window 0 should be rejected")
	}
	if _, err := WindowSender(WindowConfig{Window: 3, Modulus: 3}); err == nil {
		t.Error("modulus ≤ window should be rejected")
	}
	if _, err := OrderedLossyChannel("x", []string{"m"}, 0, "t", true); err == nil {
		t.Error("capacity 0 should be rejected")
	}
	if _, err := OrderedLossyChannel("x", []string{"m"}, 1, "", true); err == nil {
		t.Error("lossy without timeout should be rejected")
	}
}

func TestOrderedChannelFIFO(t *testing.T) {
	ch, err := OrderedLossyChannel("c", []string{"x", "y"}, 2, "tmo", false)
	if err != nil {
		t.Fatal(err)
	}
	// FIFO: -x -y then +x +y, never +y first.
	if !ch.HasTrace([]spec.Event{"-x", "-y", "+x", "+y"}) {
		t.Error("FIFO order trace missing")
	}
	if ch.HasTrace([]spec.Event{"-x", "-y", "+y"}) {
		t.Error("reordering should be impossible")
	}
	if ch.HasTrace([]spec.Event{"-x", "-y", "-x"}) {
		t.Error("overfilling should be impossible")
	}
	if ch.NumInternalTransitions() != 0 {
		t.Error("reliable channel should not lose")
	}
}

func TestOrderedChannelLoss(t *testing.T) {
	ch, err := OrderedLossyChannel("c", []string{"x"}, 2, "tmo", true)
	if err != nil {
		t.Fatal(err)
	}
	// A queued message may vanish, arming a timeout.
	if !ch.HasTrace([]spec.Event{"-x", "tmo"}) {
		t.Error("loss should arm a timeout")
	}
	if ch.HasTrace([]spec.Event{"tmo"}) {
		t.Error("timeouts must never be premature")
	}
	if ch.HasTrace([]spec.Event{"-x", "tmo", "tmo"}) {
		t.Error("one loss arms exactly one timeout")
	}
	// Loss in the middle preserves order of the rest.
	if !ch.HasTrace([]spec.Event{"-x", "-x", "tmo", "+x"}) {
		t.Error("the surviving message should still be deliverable")
	}
}

func TestWindowSystemReliableSatisfiesService(t *testing.T) {
	cfg := WindowConfig{Window: 2, Modulus: 3}
	sys, err := WindowSystem(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	// Accepts are gated by the sender's window, so the outstanding count
	// (accepted − delivered) is bounded by exactly W: the tight credit
	// service is WindowService(W).
	var fit int
	for n := 1; n <= 6; n++ {
		if err := sat.Satisfies(sys, WindowService(n)); err == nil {
			fit = n
			break
		}
	}
	if fit != cfg.Window {
		t.Errorf("window-%d system should fit WindowService(%d) tightly, got %d (err at W: %v)",
			cfg.Window, cfg.Window, fit, sat.Satisfies(sys, WindowService(cfg.Window)))
	}
	t.Logf("window-2 reliable system satisfies WindowService(%d), %d composite states",
		fit, sys.NumStates())
	// And it genuinely pipelines: more than one acc before the first del.
	if !sys.HasTrace([]spec.Event{Acc, Acc, Del}) {
		t.Error("window system should allow two accepts before a delivery")
	}
}

func TestWindowSystemLossyNoDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy window system is large")
	}
	cfg := WindowConfig{Window: 2, Modulus: 3}
	sys, err := WindowSystem(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lossy window system: %d states", sys.NumStates())
	// Deliveries never outnumber accepts (go-back-N suppresses duplicate
	// deliveries via sequence numbers), checked by safety against the
	// credit service with a generous bound.
	var works bool
	for n := 3; n <= 8; n++ {
		if err := sat.Safety(sys, WindowService(n)); err == nil {
			works = true
			t.Logf("satisfies WindowService(%d) w.r.t. safety", n)
			break
		}
	}
	if !works {
		t.Error("lossy window system fits no credit service w.r.t. safety")
	}
	assertDeadlockFree(t, "lossy window system", sys)
}

// assertDeadlockFree fails the test for every reachable state of sys that
// enables no move at all, internal or external.
func assertDeadlockFree(t *testing.T, name string, sys *spec.Spec) {
	t.Helper()
	for _, st := range sys.Reachable() {
		if len(sys.ExtEdges(st)) == 0 && len(sys.IntEdges(st)) == 0 {
			t.Errorf("%s deadlocks at %s", name, sys.StateName(st))
		}
	}
}

// The window→stop-and-wait conversion: a go-back-N window-2 sender reaches
// the one-at-a-time NS receiver through a derived converter. The converter
// must buffer up to two messages and pace its acknowledgements to actual
// deliveries — a structurally richer quotient than the §5 relay.
func TestWindowToNSConversion(t *testing.T) {
	if testing.Short() {
		t.Skip("large derivation")
	}
	cfg := WindowConfig{Window: 2, Modulus: 3}
	b, err := WindowToNSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := WindowService(cfg.Window)
	res, derr := core.Derive(svc, b, core.Options{OmitVacuous: true})
	if derr != nil {
		t.Fatalf("Derive: %v", derr)
	}
	if !res.Exists {
		t.Fatal("window→NS converter should exist")
	}
	if err := core.Verify(svc, b, res.Converter); err != nil {
		t.Errorf("Verify: %v", err)
	}
	t.Logf("window→NS converter: %d states, %d transitions (B has %d states)",
		res.Stats.FinalStates, res.Stats.FinalTransitions, b.NumStates())
	// Pacing: the converter must not acknowledge the second data message
	// before the receiver confirmed delivery of the first.
	c := res.Converter
	if c.HasTrace([]spec.Event{"+d0", "+d1", "-a0", "-a1"}) {
		t.Error("converter acks both messages before any delivery confirmation — over-credits the sender")
	}
	if !c.HasTrace([]spec.Event{"+d0", "+D", "-A", "-a0"}) {
		t.Errorf("expected buffered relay behavior missing")
	}
}

// Pipelining comparison supporting the paper's motivation: the window
// protocol can keep several messages in flight where stop-and-wait cannot.
// (The throughput advantage itself is a latency phenomenon invisible to
// the untimed model; what the specifications show is the concurrency that
// enables it.)
func TestWindowVsStopAndWaitPipelining(t *testing.T) {
	cfg := WindowConfig{Window: 2, Modulus: 3}
	win, err := WindowSystem(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	swCfg := WindowConfig{Window: 1, Modulus: 2}
	sw, err := WindowSystem(swCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	pipelined := []spec.Event{Acc, Acc, Del}
	if !win.HasTrace(pipelined) {
		t.Error("window-2 should accept twice before the first delivery")
	}
	if sw.HasTrace(pipelined) {
		t.Error("stop-and-wait must not accept twice before a delivery")
	}
	// Stop-and-wait is exactly the one-credit service; window-2 is not.
	if err := sat.Satisfies(sw, WindowService(1)); err != nil {
		t.Errorf("W=1 system should satisfy the one-credit service: %v", err)
	}
	if sat.Safety(win, WindowService(1)) == nil {
		t.Error("W=2 system should exceed the one-credit service")
	}
	// Neither can reach a deadlock.
	assertDeadlockFree(t, "window-2", win)
	assertDeadlockFree(t, "stop-and-wait", sw)
}
