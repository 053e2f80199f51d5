package oracle

import (
	"errors"
	"math/rand"
	"testing"

	"protoquot/internal/core"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

func TestCheckProgressKnownInstances(t *testing.T) {
	// A offers a choice {a,b} forever; a B that drops one branch leaves an
	// environment relying on it stuck.
	ab := spec.NewBuilder("A")
	ab.Init("v0").Ext("v0", "a", "v1").Ext("v0", "b", "v1").
		Ext("v1", "a", "v0").Ext("v1", "b", "v0")
	a := ab.MustBuild()

	if _, ok := CheckProgress(a, a); !ok {
		t.Error("A must satisfy its own progress")
	}

	bb := spec.NewBuilder("B")
	bb.Init("b0").Event("b").Ext("b0", "a", "b1").Ext("b1", "a", "b0")
	b := bb.MustBuild()
	w, ok := CheckProgress(b, a)
	if ok {
		t.Error("B offering only half the acceptance set should violate progress")
	}
	if len(w) != 0 {
		t.Errorf("violation should be at the initial configuration, witness %v", w)
	}

	// A deadlocked B state reached after one event.
	bb2 := spec.NewBuilder("B2")
	bb2.Init("b0").Ext("b0", "a", "b1").Ext("b0", "b", "b1").
		Ext("b1", "a", "dead").Ext("b1", "b", "b0")
	b2 := bb2.MustBuild()
	w2, ok := CheckProgress(b2, a)
	if ok {
		t.Error("B2 has a reachable dead state")
	}
	if len(w2) != 2 {
		t.Errorf("witness %v, want length 2", w2)
	}
}

// TestPropProgressMatchesSat cross-checks the optimized sat.Progress
// against the oracle's raw-edge transcription on random instances — the
// progress-phase analogue of the existing safety differential.
func TestPropProgressMatchesSat(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked, violations := 0, 0
	for iter := 0; iter < 500 && checked < 80; iter++ {
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 3, MaxEvents: 2, ExtDensity: 0.7, Connected: true, EventPrefix: "g"})
		if a.IsNormalForm() != nil {
			continue
		}
		braw := specgen.Random(rng, specgen.Config{
			MaxStates: 4, MaxEvents: 2, ExtDensity: 0.5, IntDensity: 0.3, Connected: true, EventPrefix: "m"})
		b, err := braw.RenameEvents(map[spec.Event]spec.Event{"m0": "g0", "m1": "g1"})
		if err != nil || !sat.SameInterface(b, a) {
			continue
		}
		if sat.Safety(b, a) != nil {
			continue // progress is only defined for safe B
		}
		checked++
		serr := sat.Progress(b, a)
		var v *sat.Violation
		if serr != nil && !errors.As(serr, &v) {
			t.Fatalf("sat.Progress precondition failure: %v", serr)
		}
		_, ok := CheckProgress(b, a)
		if (serr == nil) != ok {
			t.Fatalf("progress disagreement: sat=%v oracle ok=%v\nA:\n%s\nB:\n%s",
				serr, ok, a.Format(), b.Format())
		}
		if !ok {
			violations++
		}
	}
	if checked < 30 {
		t.Fatalf("too few usable instances: %d", checked)
	}
	if violations == 0 || violations == checked {
		t.Fatalf("degenerate sample: %d violations of %d", violations, checked)
	}
}

// TestPropDeriveProgressPhaseMatchesOracle extends the differential
// coverage to core's progress phase. On random instances:
//
//   - when the full derivation succeeds, B‖C must satisfy progress per the
//     oracle (Theorem 2 soundness);
//   - when the safety phase succeeds but the progress phase reports
//     failure, B‖C0 must violate progress per the oracle (completeness: a
//     progress-satisfying C0 would itself have been a valid converter).
func TestPropDeriveProgressPhaseMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	checked, succeeded, failed := 0, 0, 0
	for iter := 0; iter < 600 && checked < 60; iter++ {
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 3, MaxEvents: 2, ExtDensity: 0.6, Connected: true, EventPrefix: "g"})
		if a.IsNormalForm() != nil {
			continue
		}
		braw := specgen.Random(rng, specgen.Config{
			MaxStates: 4, MaxEvents: 4, ExtDensity: 0.5, IntDensity: 0.2, Connected: true, EventPrefix: "m"})
		b, err := braw.RenameEvents(map[spec.Event]spec.Event{
			"m0": "g0", "m1": "g1", "m2": "i0", "m3": "i1"})
		if err != nil {
			continue
		}
		if !b.HasEvent("g0") || !b.HasEvent("g1") || (!b.HasEvent("i0") && !b.HasEvent("i1")) {
			continue
		}
		safe, serr := core.Derive(a, b, core.Options{SafetyOnly: true})
		if serr != nil {
			continue // no safety converter: nothing for the progress phase
		}
		full, ferr := core.Derive(a, b, core.Options{})
		checked++
		if ferr == nil {
			succeeded++
			bc := Compose(b, full.Converter)
			if w, ok := CheckProgress(bc, a); !ok {
				t.Fatalf("derived converter fails oracle progress after %v\nA:\n%s\nB:\n%s\nC:\n%s",
					w, a.Format(), b.Format(), full.Converter.Format())
			}
			continue
		}
		var nq *core.NoQuotientError
		if !errors.As(ferr, &nq) {
			t.Fatalf("Derive failed oddly: %v", ferr)
		}
		if nq.FailedPhase != "progress" {
			continue // safety-phase differential is covered elsewhere
		}
		failed++
		bc0 := Compose(b, safe.Converter)
		if _, ok := CheckProgress(bc0, a); ok {
			t.Fatalf("progress phase reported failure but oracle passes B‖C0\nA:\n%s\nB:\n%s\nC0:\n%s",
				a.Format(), b.Format(), safe.Converter.Format())
		}
	}
	if checked < 20 || succeeded == 0 || failed == 0 {
		t.Fatalf("degenerate sample: checked=%d succeeded=%d progress-failed=%d",
			checked, succeeded, failed)
	}
}

// TestPropDeriveRobustDuplicateEnv: deriving against the environment list
// [B, B] must agree exactly with deriving against B — same outcome, same
// failed phase, and a Format-identical converter.
func TestPropDeriveRobustDuplicateEnv(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	checked := 0
	for iter := 0; iter < 300 && checked < 40; iter++ {
		a := specgen.RandomDeterministic(rng, specgen.Config{
			MaxStates: 3, MaxEvents: 2, ExtDensity: 0.6, Connected: true, EventPrefix: "g"})
		if a.IsNormalForm() != nil {
			continue
		}
		braw := specgen.Random(rng, specgen.Config{
			MaxStates: 4, MaxEvents: 4, ExtDensity: 0.5, IntDensity: 0.2, Connected: true, EventPrefix: "m"})
		b, err := braw.RenameEvents(map[spec.Event]spec.Event{
			"m0": "g0", "m1": "g1", "m2": "i0", "m3": "i1"})
		if err != nil || !b.HasEvent("g0") || !b.HasEvent("g1") {
			continue
		}
		checked++
		single, serr := core.Derive(a, b, core.Options{})
		robust, rerr := core.DeriveRobust(a, []*spec.Spec{b, b}, core.Options{})
		if (serr == nil) != (rerr == nil) {
			t.Fatalf("Derive err=%v but DeriveRobust([B,B]) err=%v\nA:\n%s\nB:\n%s",
				serr, rerr, a.Format(), b.Format())
		}
		if serr != nil {
			var nqs, nqr *core.NoQuotientError
			if errors.As(serr, &nqs) && errors.As(rerr, &nqr) && nqs.FailedPhase != nqr.FailedPhase {
				t.Fatalf("failed phases differ: %s vs %s", nqs.FailedPhase, nqr.FailedPhase)
			}
			continue
		}
		if single.Converter.Format() != robust.Converter.Format() {
			t.Fatalf("DeriveRobust([B,B]) differs from Derive:\n%s\nvs\n%s",
				single.Converter.Format(), robust.Converter.Format())
		}
		if err := core.VerifyRobust(a, []*spec.Spec{b, b}, robust.Converter); err != nil {
			t.Fatalf("VerifyRobust: %v", err)
		}
	}
	if checked < 15 {
		t.Fatalf("too few usable instances: %d", checked)
	}
}
