package protocols

import (
	"fmt"
	"testing"

	"protoquot/internal/core"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

func TestSeqConfigValidation(t *testing.T) {
	if _, err := SeqSender(SeqConfig{Modulus: 1}); err == nil {
		t.Error("modulus 1 should be rejected")
	}
	if _, err := SeqReceiver(SeqConfig{Modulus: 0}); err == nil {
		t.Error("modulus 0 should be rejected")
	}
	if _, err := SeqChannel(SeqConfig{Modulus: 1}); err == nil {
		t.Error("modulus 1 channel should be rejected")
	}
}

func TestSeq2EquivalentToAB(t *testing.T) {
	sys, err := SeqSystem(2)
	if err != nil {
		t.Fatal(err)
	}
	if sat.Safety(sys, ABSystem()) != nil || sat.Safety(ABSystem(), sys) != nil {
		t.Error("mod-2 sequenced system should be trace-equivalent to the AB system")
	}
	if err := sat.Satisfies(sys, Service()); err != nil {
		t.Errorf("mod-2 system should satisfy the service: %v", err)
	}
}

func TestSeqSystemsSatisfyService(t *testing.T) {
	for k := 2; k <= 4; k++ {
		sys, err := SeqSystem(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := sat.Satisfies(sys, Service()); err != nil {
			t.Errorf("mod-%d system violates the exactly-once service: %v", k, err)
		}
		if sys.HasTrace([]spec.Event{Acc, Del, Del}) {
			t.Errorf("mod-%d system can deliver duplicates", k)
		}
	}
}

func TestSeqSystemShape(t *testing.T) {
	for k := 2; k <= 4; k++ {
		s, err := SeqSender(SeqConfig{Modulus: k})
		if err != nil {
			t.Fatal(err)
		}
		if s.NumStates() != 3*k {
			t.Errorf("sender(%d): %d states, want %d", k, s.NumStates(), 3*k)
		}
		r, err := SeqReceiver(SeqConfig{Modulus: k})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumStates() != 4*k {
			t.Errorf("receiver(%d): %d states, want %d", k, r.NumStates(), 4*k)
		}
	}
}

// Cross-generation conversion: a mod-j sender reaches a mod-k receiver
// through a derived converter. The converter must renumber sequence
// numbers across moduli — precisely the "several generations must coexist"
// mismatch from the paper's introduction.
func TestCrossSeqConversion(t *testing.T) {
	cases := []struct{ j, k int }{{2, 3}, {3, 2}}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%d-to-%d", c.j, c.k), func(t *testing.T) {
			b, err := CrossSeqB(c.j, c.k)
			if err != nil {
				t.Fatal(err)
			}
			res, derr := core.Derive(Service(), b, core.Options{OmitVacuous: true})
			if derr != nil {
				t.Fatalf("Derive: %v", derr)
			}
			if !res.Exists {
				t.Fatal("cross-modulus converter should exist")
			}
			if err := core.Verify(Service(), b, res.Converter); err != nil {
				t.Errorf("Verify: %v", err)
			}
			t.Logf("mod-%d → mod-%d converter: %d states", c.j, c.k, res.Stats.FinalStates)
		})
	}
}
