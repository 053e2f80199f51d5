package protocols

import (
	"errors"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// dupChannel returns a loss-free single-message duplex channel with the
// duplication pathology enabled.
func dupChannel(name string) *spec.Spec {
	return MustDuplexChannel(name, ChannelConfig{
		Forward: []string{"D"}, Reverse: []string{"A"}, Duplicating: true})
}

// dupABEnvironment is ReliableNSB with duplication added to the (eventually
// reliable) AB-side channel: the environment the deployed converter is
// audited against.
func dupABEnvironment() *spec.Spec {
	ach := MustDuplexChannel("Ach", ChannelConfig{
		Forward: []string{"d0", "d1"}, Reverse: []string{"a0", "a1"},
		Lossy: true, Timeout: TmoAB, EventuallyReliable: true, Duplicating: true})
	nch := ReliableChannel("Nch0", []string{"D"}, []string{"A"})
	s := compose.MustMany(ABSender(), ach, nch, NSReceiver())
	return s.Renamed("B.dup")
}

func TestDuplicatingChannelShape(t *testing.T) {
	plain := MustDuplexChannel("ch", ChannelConfig{Forward: []string{"D"}, Reverse: []string{"A"}})
	dup := dupChannel("ch")
	if dup.NumStates() != plain.NumStates() {
		t.Errorf("duplication added states: %d vs %d", dup.NumStates(), plain.NumStates())
	}
	// One extra "+msg" self-loop per occupied slot: fD,r- and fD,rA for +D,
	// f-,rA and fD,rA for +A.
	if got, want := dup.NumExternalTransitions(), plain.NumExternalTransitions()+4; got != want {
		t.Errorf("duplicating channel has %d external transitions, want %d", got, want)
	}
	loops := map[string][]spec.Event{}
	for st := spec.State(0); int(st) < dup.NumStates(); st++ {
		for _, ed := range dup.ExtEdges(st) {
			if ed.To == st {
				loops[dup.StateName(st)] = append(loops[dup.StateName(st)], ed.Event)
			}
		}
	}
	want := map[string][]spec.Event{
		"fD,r-": {"+D"}, "f-,rA": {"+A"}, "fD,rA": {"+A", "+D"},
	}
	for name, evs := range want {
		got := loops[name]
		if len(got) != len(evs) {
			t.Errorf("state %s: deliver-keep-copy loops %v, want %v", name, got, evs)
			continue
		}
		seen := map[spec.Event]bool{}
		for _, e := range got {
			seen[e] = true
		}
		for _, e := range evs {
			if !seen[e] {
				t.Errorf("state %s: missing %s self-loop", name, e)
			}
		}
	}
	if len(loops) != len(want) {
		t.Errorf("self-loops at %v, want exactly the occupied-slot states", loops)
	}
	// Every removal still has its ordinary slot-freeing variant too.
	full, _ := dup.LookupState("fD,r-")
	empty, _ := dup.LookupState("f-,r-")
	if !dup.HasExt(full, "+D", empty) {
		t.Error("duplicating channel lost the slot-freeing removal edge")
	}
	// Config validation is unchanged: duplication composes with the loss
	// variants freely.
	if _, err := DuplexChannel("ch", ChannelConfig{
		Forward: []string{"D"}, Lossy: true, Duplicating: true}); err == nil {
		t.Error("lossy duplicating channel without Timeout accepted")
	}
}

// TestNSOverDuplicatingChannel: with a loss-free but duplicating channel the
// NS protocol duplicates deliveries — acc·del·del is a trace with no loss
// involved — and stale duplicate acknowledgements break even the
// at-least-once service (an old A acknowledges a message that was never
// delivered). Duplication is a genuinely different pathology from loss.
func TestNSOverDuplicatingChannel(t *testing.T) {
	ch := dupChannel("Nch").WithEvents(TmoNS) // align tmo.ns; no loss, so it never fires
	sys := compose.MustMany(NSSender(), ch, NSReceiver())
	if got := sys.Alphabet(); len(got) != 2 || got[0] != Acc || got[1] != Del {
		t.Fatalf("system interface = %v, want [acc del]", got)
	}
	if !sys.HasTrace([]spec.Event{Acc, Del, Del}) {
		t.Error("duplicate delivery should be a trace without any loss")
	}
	err := sat.Satisfies(sys, Service())
	var v *sat.Violation
	if !errors.As(err, &v) || v.Kind != "safety" {
		t.Fatalf("want a safety violation of exactly-once, got %v", err)
	}
	if !sys.HasTrace(v.Trace) {
		t.Error("violation witness is not a trace of the system")
	}
	if err := sat.Satisfies(sys, AtLeastOnceService()); err == nil {
		t.Error("stale duplicate acks should break even at-least-once")
	} else if !errors.As(err, &v) || v.Kind != "safety" {
		t.Errorf("at-least-once should fail on safety (phantom ack), got %v", err)
	}
}

// TestDeployedConverterAbsorbsDuplication audits the converter the runtime
// actually deploys (derived against EventuallyReliableNSB, which never
// duplicates) against an environment whose AB-side channel does duplicate.
// Safety must hold: the +d0/+d1 re-acknowledgement edges the derivation
// produced for loss recovery absorb duplicated data frames too — tolerance
// by construction, the spec-level counterpart of the fault-injection soak
// convsim runs on internal/convrt's closed system. Full satisfaction must fail, and only on progress:
// an unbounded duplicator may starve fresh traffic forever.
func TestDeployedConverterAbsorbsDuplication(t *testing.T) {
	benv := EventuallyReliableNSB()
	res, err := core.Derive(Service(), benv, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	conv, err := core.Prune(Service(), benv, res.Converter)
	if err != nil {
		t.Fatalf("prune: %v", err)
	}
	bc := compose.MustMany(dupABEnvironment(), conv)
	if err := sat.Safety(bc, Service()); err != nil {
		t.Fatalf("deployed converter is not duplicate-safe: %v", err)
	}
	err = sat.Satisfies(bc, Service())
	var v *sat.Violation
	if !errors.As(err, &v) || v.Kind != "progress" {
		t.Fatalf("unbounded duplication should cost exactly progress, got %v", err)
	}
}

// TestDeriveAgainstDuplicationFailsProgressOnly: derivation *against* the
// duplicating environment itself finds a safe converter but no live one —
// the quotient's progress phase empties because every delivery strategy can
// be starved by the keep-a-copy branch. (EventuallyReliableNSB, the same
// environment without duplication, derives successfully; the pathology is
// isolated to duplication.)
func TestDeriveAgainstDuplicationFailsProgressOnly(t *testing.T) {
	b := dupABEnvironment()
	if _, err := core.Derive(Service(), b, core.Options{OmitVacuous: true, SafetyOnly: true}); err != nil {
		t.Fatalf("a safety-only converter should exist: %v", err)
	}
	_, err := core.Derive(Service(), b, core.Options{OmitVacuous: true})
	var nq *core.NoQuotientError
	if !errors.As(err, &nq) {
		t.Fatalf("derivation against a duplicating environment should fail, got %v", err)
	}
	if nq.FailedPhase != "progress" {
		t.Errorf("failed phase = %s, want progress", nq.FailedPhase)
	}
}
