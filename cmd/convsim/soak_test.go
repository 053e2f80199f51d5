package main

import (
	"reflect"
	"sync"
	"testing"

	"protoquot/internal/convrt"
	"protoquot/internal/runtime"
	"protoquot/internal/spec"
)

// deployedConverter derives and prunes the AB→NS converter once per test
// binary.
var deployedConverter = sync.OnceValues(func() (*spec.Spec, error) {
	_, conv, err := deriveABNS()
	return conv, err
})

// combinedFaults is the soak's fault mix.
var combinedFaults = runtime.FaultModel{Loss: 0.2, Dup: 0.1, Reorder: 0.05}

// soak runs the AB→NS system with the derived converter deployed, or a
// mutant of it checked against the derived one.
func soak(t *testing.T, mutant *spec.Spec, faults runtime.FaultModel, messages int, seed int64) *convrt.SystemReport {
	t.Helper()
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	deployed, ref := conv, (*spec.Spec)(nil)
	if mutant != nil {
		deployed, ref = mutant, conv
	}
	rep, err := convrt.RunSystem(abnsSystem(deployed, ref, faults, messages, seed, true))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSoakCombinedFaultsClean is the robustness gate: the derived AB→NS
// converter delivers every one of 10,000 messages, in order, under loss,
// duplication and reordering, and the checks pass all 20,000 service
// events.
func TestSoakCombinedFaultsClean(t *testing.T) {
	const n = 10000
	rep := soak(t, nil, combinedFaults, n, 42)
	if !rep.OK() {
		t.Fatalf("soak failed: %+v (violation: %v)", rep, rep.Violation)
	}
	if fwd := rep.Links[0]; fwd.Duplicated == 0 || fwd.Lost() == 0 || fwd.Reordered == 0 {
		t.Errorf("fault mix not exercised: data link %+v", fwd)
	}
	if rep.ConvEvents == 0 || rep.SvcEvents != 2*n {
		t.Errorf("checks passed %d converter and %d service events, want %d service events",
			rep.ConvEvents, rep.SvcEvents, 2*n)
	}
}

// TestSoakDeterministicPerSeed: a run is a function of its seed, down to
// every counter; another seed draws another fault schedule.
func TestSoakDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) *convrt.SystemReport {
		rep := soak(t, nil, combinedFaults, 500, seed)
		rep.Elapsed = 0
		return rep
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if c := run(8); reflect.DeepEqual(a.Links, c.Links) {
		t.Error("different seeds produced identical fault counters")
	}
}

// TestSoakMutatedConverterCaught: redirecting the converter's
// duplicate-d0 re-acknowledgement edge back to the fresh-delivery state
// must be caught as a safety violation before 1,000 messages arrive.
func TestSoakMutatedConverterCaught(t *testing.T) {
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	mut, err := redirectEdge(conv, "c12", "+d0", "c1")
	if err != nil {
		t.Fatal(err)
	}
	rep := soak(t, mut, combinedFaults, 1000, 42)
	if v := rep.Violation; v == nil || v.Kind != "safety" || v.Level != "converter" {
		t.Fatalf("mutant not caught as a converter safety violation: %+v (violation: %v)", rep, v)
	}
	if rep.Delivered >= 1000 {
		t.Errorf("mutant delivered %d messages before being caught", rep.Delivered)
	}
}

// The AB sender delivers to the NS receiver through the derived converter
// over a lossless link.
func TestConversionSystemLossless(t *testing.T) {
	rep := soak(t, nil, runtime.FaultModel{}, 20, 3)
	if !rep.OK() || rep.Stale != 0 {
		t.Fatalf("lossless run: %+v (violation: %v)", rep, rep.Violation)
	}
	if l := rep.Links[0]; l.Sent != 20 || l.Lost() != 0 {
		t.Errorf("lossless data link %+v, want 20 sends and no loss", l)
	}
}

// With heavy loss on the AB side every payload still arrives exactly once
// and in order: the converter re-acknowledges retransmissions.
func TestConversionSystemLossy(t *testing.T) {
	rep := soak(t, nil, runtime.FaultModel{Loss: 0.35}, 30, 4)
	if !rep.OK() {
		t.Fatalf("lossy run: %+v (violation: %v)", rep, rep.Violation)
	}
	if rep.Links[0].Lost() == 0 {
		t.Error("no message was lost")
	}
}

func TestConversionSystemManySeeds(t *testing.T) {
	for seed := int64(10); seed < 20; seed++ {
		if rep := soak(t, nil, runtime.FaultModel{Loss: 0.5}, 10, seed); !rep.OK() {
			t.Fatalf("seed %d: %+v (violation: %v)", seed, rep, rep.Violation)
		}
	}
}

func TestRedirectEdgeValidation(t *testing.T) {
	conv, err := deployedConverter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := redirectEdge(conv, "nope", "+d0", "c1"); err == nil {
		t.Error("unknown from-state accepted")
	}
	if _, err := redirectEdge(conv, "c12", "+d0", "nope"); err == nil {
		t.Error("unknown to-state accepted")
	}
	if _, err := redirectEdge(conv, "c3", "-a0", "c0"); err == nil {
		t.Error("missing edge accepted")
	}
	mut, err := redirectEdge(conv, "c12", "+d0", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if mut.NumStates() != conv.NumStates() ||
		mut.NumExternalTransitions() != conv.NumExternalTransitions() {
		t.Error("mutation changed the spec's shape")
	}
}
