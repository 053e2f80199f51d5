package runtime

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"protoquot/internal/protocols"
	"protoquot/internal/spec"
)

func TestConformanceSafetyLatch(t *testing.T) {
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	mon := NewConformance(conv, protocols.Service())
	for _, e := range []spec.Event{"+d0", "-D"} {
		if err := mon.Converter(e); err != nil {
			t.Fatalf("legal event %s rejected: %v", e, err)
		}
	}
	// After +d0 -D only +A is enabled; -a0 must latch a safety violation.
	if err := mon.Converter("-a0"); err == nil {
		t.Fatal("illegal event accepted")
	}
	var ce *ConformanceError
	if !errors.As(mon.Err(), &ce) {
		t.Fatalf("Err() = %v, want *ConformanceError", mon.Err())
	}
	if ce.Level != "converter" || ce.Kind != "safety" || ce.Event != "-a0" {
		t.Errorf("violation = %+v", ce)
	}
	if len(ce.Enabled) != 1 || ce.Enabled[0] != "+A" {
		t.Errorf("enabled = %v, want [+A]", ce.Enabled)
	}
	if ce.TraceLen != 2 {
		t.Errorf("trace length %d, want 2", ce.TraceLen)
	}
	select {
	case <-mon.Violated():
	default:
		t.Error("Violated channel not closed after a violation")
	}
	// Latched: the same violation persists, later events are ignored.
	if err := mon.Converter("+A"); !errors.As(err, &ce) {
		t.Errorf("post-violation event returned %v", err)
	}
	if c, _ := mon.Events(); c != 2 {
		t.Errorf("accepted %d converter events, want 2", c)
	}
	if ce.Error() == "" || ce.Phase() != "safety" || len(ce.Witness()) == 0 {
		t.Error("diagnostic accessors broken")
	}
}

func TestConformanceServiceAndQuiescence(t *testing.T) {
	mon := NewConformance(nil, protocols.Service())
	if err := mon.Service(protocols.Acc); err != nil {
		t.Fatalf("acc rejected: %v", err)
	}
	// Mid-exchange but still ready to deliver: progress holds.
	if err := mon.Quiescent([]spec.Event{protocols.Del}); err != nil {
		t.Fatalf("quiescent-with-del flagged: %v", err)
	}
	// Quiescent with an empty ready set: nothing can ever happen again, a
	// progress violation for a service that promised a delivery.
	if err := mon.Quiescent(nil); err == nil {
		t.Fatal("dead quiescence accepted")
	}
	var ce *ConformanceError
	if !errors.As(mon.Err(), &ce) || ce.Kind != "progress" || ce.Level != "service" {
		t.Errorf("violation = %+v", mon.Err())
	}
	if ce.Error() == "" || ce.Phase() != "progress" {
		t.Error("progress diagnostics broken")
	}

	// A delivery before any acceptance violates service safety immediately.
	mon2 := NewConformance(nil, protocols.Service())
	if err := mon2.Service(protocols.Del); err == nil {
		t.Fatal("del before acc accepted")
	}
}

func TestConformanceNilReceiver(t *testing.T) {
	var mon *Conformance
	if err := mon.Converter("+d0"); err != nil {
		t.Error("nil monitor returned error")
	}
	if err := mon.Service("acc"); err != nil {
		t.Error("nil monitor returned error")
	}
	if err := mon.Quiescent(nil); err != nil {
		t.Error("nil monitor returned error")
	}
	if mon.Err() != nil {
		t.Error("nil monitor has an error")
	}
	if mon.Violated() != nil {
		t.Error("nil monitor's Violated channel should be nil")
	}
	if c, s := mon.Events(); c != 0 || s != 0 {
		t.Error("nil monitor counted events")
	}
}

// combinedFaults is the acceptance-criterion fault mix.
var combinedFaults = FaultModel{Loss: 0.2, Dup: 0.1, Reorder: 0.05}

// TestSoakCombinedFaultsClean is the flagship robustness gate: the derived
// AB→NS converter must complete a 10k-message soak under combined
// loss+duplication+reordering with zero conformance violations.
func TestSoakCombinedFaultsClean(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Soak(context.Background(), SoakConfig{
		Converter: conv,
		Service:   protocols.Service(),
		Messages:  n,
		Faults:    combinedFaults,
		Seed:      42,
		Monitor:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK(n) {
		t.Fatalf("soak failed: %+v (violation: %v, convErr: %v)", res, res.Violation, res.ConvErr)
	}
	if res.Forward.Duplicated == 0 || res.Forward.Lost() == 0 {
		t.Errorf("fault mix not exercised: forward stats %+v", res.Forward)
	}
	if res.ConvEvents == 0 || res.SvcEvents != 2*n {
		t.Errorf("monitor saw %d converter / %d service events, want service = %d",
			res.ConvEvents, res.SvcEvents, 2*n)
	}
}

// TestSoakDeterministicPerSeed: two runs with the same seed must agree on
// every outcome the seed fixes; a different seed must diverge somewhere in
// the fault schedule. The seed fixes the run up to its last
// acknowledgement: the deliveries, the service events, and the data link's
// fault counters. It does not fix
//   - the reorder counters: a reorder draw overtakes only a same-kind frame
//     the receiving goroutine has not read yet. In a stop-and-wait run that
//     frame is a copy of the overtaking one, so nothing else depends on it;
//   - the converter's event count and the ack link's counters, which include
//     whatever the converter does after the last acknowledgement leaves —
//     recording that send, re-acknowledging a stale duplicate — before the
//     run takes its final snapshot.
func TestSoakDeterministicPerSeed(t *testing.T) {
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) *SoakResult {
		res, err := Soak(context.Background(), SoakConfig{
			Converter: conv,
			Service:   protocols.Service(),
			Messages:  500,
			Faults:    combinedFaults,
			Seed:      seed,
			Monitor:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	type fixed struct {
		Acked, Delivered  int
		InOrder, Deadlock bool
		Violation         *ConformanceError
		ConvErr           error
		SvcEvents         int
		Forward           FaultStats
	}
	fixedOf := func(r *SoakResult) fixed {
		fwd := r.Forward
		fwd.Reordered = 0
		return fixed{r.Acked, r.Delivered, r.InOrder, r.Deadlock, r.Violation, r.ConvErr, r.SvcEvents, fwd}
	}
	a, b := run(7), run(7)
	if fa, fb := fixedOf(a), fixedOf(b); !reflect.DeepEqual(fa, fb) {
		t.Errorf("same seed diverged:\n%+v\n%+v", fa, fb)
	}
	c := run(8)
	if reflect.DeepEqual(a.Forward, c.Forward) && reflect.DeepEqual(a.Reverse, c.Reverse) {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestSoakMutatedConverterCaught: redirecting one transition of the derived
// converter (the duplicate-d0 re-acknowledgement edge, sent back to the
// fresh-delivery state) must be caught by the monitor as a safety violation
// within a 1k-message soak — the acceptance-criterion demo.
func TestSoakMutatedConverterCaught(t *testing.T) {
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	mut, err := RedirectEdge(conv, "c12", "+d0", "c1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Soak(context.Background(), SoakConfig{
		Converter: mut,
		Reference: conv,
		Service:   protocols.Service(),
		Messages:  1000,
		Faults:    combinedFaults,
		Seed:      42,
		Monitor:   true,
		Quiet:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("mutated converter not caught: %+v (convErr: %v)", res, res.ConvErr)
	}
	if res.Violation.Kind != "safety" {
		t.Errorf("caught as %s/%s, want a safety violation (%v)",
			res.Violation.Level, res.Violation.Kind, res.Violation)
	}
	if res.Delivered >= 1000 {
		t.Errorf("mutant completed the soak (%d delivered) before being caught", res.Delivered)
	}
}

func TestRedirectEdgeValidation(t *testing.T) {
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RedirectEdge(conv, "nope", "+d0", "c1"); err == nil {
		t.Error("unknown from-state accepted")
	}
	if _, err := RedirectEdge(conv, "c12", "+d0", "nope"); err == nil {
		t.Error("unknown to-state accepted")
	}
	if _, err := RedirectEdge(conv, "c3", "-a0", "c0"); err == nil {
		t.Error("missing edge accepted")
	}
	mut, err := RedirectEdge(conv, "c12", "+d0", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if mut.NumStates() != conv.NumStates() ||
		mut.NumExternalTransitions() != conv.NumExternalTransitions() {
		t.Error("mutation changed the spec's shape")
	}
}
