// The paper's Section 5 experiment, end to end: converting between the
// alternating-bit protocol and the non-sequenced protocol.
//
//  1. The symmetric configuration (Figure 9) admits a converter with
//     respect to safety (Figure 12) but not progress: after a loss on the
//     NS side the converter cannot tell whether data or acknowledgement
//     was lost. The derivation proves no converter exists.
//  2. Weakening the service to tolerate duplicates makes a converter
//     possible in the same configuration.
//  3. Co-locating the converter with the NS receiver (Figure 13) removes
//     the ambiguity; the derivation produces the Figure 14 converter,
//     which we verify, prune, and verify again after pruning.
//
// Run with: go run ./examples/abns
package main

import (
	"errors"
	"fmt"
	"log"

	"protoquot/internal/core"
	"protoquot/internal/protocols"
)

func main() {
	service := protocols.Service()
	fmt.Println("service (Figure 11):", service)
	fmt.Println()

	// ---- 1. Symmetric configuration ----
	fmt.Println("== symmetric configuration (Figure 9) ==")
	bsym := protocols.SymmetricB()
	fmt.Println("B = A0 ‖ Ach ‖ Nch ‖ N1:", bsym)

	safety, err := core.Derive(service, bsym, core.Options{SafetyOnly: true, OmitVacuous: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("safety phase (Figure 12): converter with %d states, %d transitions\n",
		safety.Stats.SafetyStates, safety.Stats.SafetyTransitions)

	_, ferr := core.Derive(service, bsym, core.Options{OmitVacuous: true})
	var nq *core.NoQuotientError
	if errors.As(ferr, &nq) {
		fmt.Println("full derivation:", ferr)
		fmt.Println("→ the paper's negative result reproduces: no converter exists.")
	} else {
		log.Fatalf("expected no converter, got %v", ferr)
	}
	fmt.Println()

	// ---- 2. Weakened service ----
	fmt.Println("== weakened (duplicate-tolerant) service, same configuration ==")
	weak, err := core.Derive(protocols.AtLeastOnceService(), bsym, core.Options{OmitVacuous: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converter exists: %d states (verified: %v)\n",
		weak.Stats.FinalStates,
		core.Verify(protocols.AtLeastOnceService(), bsym, weak.Converter) == nil)
	fmt.Println()

	// ---- 3. Co-located configuration ----
	fmt.Println("== co-located configuration (Figure 13) ==")
	bco := protocols.ColocatedB()
	fmt.Println("B = A0 ‖ Ach ‖ N1:", bco)
	co, err := core.Derive(service, bco, core.Options{OmitVacuous: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := core.Verify(service, bco, co.Converter); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	pruned, err := core.Prune(service, bco, co.Converter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 14 converter: %d states maximal, %d after pruning the dotted boxes\n",
		co.Converter.NumStates(), pruned.NumStates())
	fmt.Println()
	fmt.Println(pruned.Format())

	// The pruned converter is a sound quotient too: safety and progress
	// hold over every reachable state of the closed conversion system.
	if err := core.Verify(service, bco, pruned); err != nil {
		log.Fatalf("pruned converter fails verification: %v", err)
	}
	fmt.Println("pruned converter verified: every accepted message is delivered exactly once, despite channel losses.")
	// Fig. 14's converter meets N1 by rendezvous on +D/-A, so it cannot run
	// over FIFO links as it stands; convsim deploys the converter derived
	// against the eventually-reliable NS channel instead.
	fmt.Println("→ for a deployed AB→NS run over faulty FIFO links: go run ./cmd/convsim")
}
