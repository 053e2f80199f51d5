// Embedded-converter example: the AB→NS converter was derived by the
// quotient algorithm, pruned, and emitted as standalone Go source by the
// code generator (package abnsconv — regenerate with `PROTOQUOT_GOLDEN=update
// go test -run TestEmbeddedExampleGolden ./internal/codegen`). This program
// drives the generated machine directly, with no dependency on the library
// at runtime: the derivation happened at build time.
//
// Run with: go run ./examples/embedded
package main

import (
	"fmt"
	"log"

	"protoquot/examples/embedded/abnsconv"
)

func main() {
	m := abnsconv.NewABToNS()
	fmt.Println("embedded converter, initial state:", m.State())
	fmt.Println("enabled:", m.Enabled())
	fmt.Println()

	// One full conversion round plus a duplicate (as after an ack loss):
	// receive d0, forward D, get N1's ack, ack the AB sender; then the
	// retransmitted d0 is re-acknowledged without a second forward.
	script := []string{"+d0", "-D", "+A", "-a0", "+d0", "-a0", "+d1", "-D", "+A", "-a1"}
	for _, ev := range script {
		if err := m.Step(ev); err != nil {
			log.Fatalf("step %q: %v", ev, err)
		}
		fmt.Printf("%-4s -> %-4s enabled %v\n", ev, m.State(), m.Enabled())
	}

	// Illegal events are rejected without changing state.
	if err := m.Step("-D"); err == nil {
		log.Fatal("expected an error: -D with nothing to forward")
	} else {
		fmt.Println("\ncorrectly rejected:", err)
	}
}
