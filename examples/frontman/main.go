// The "front man" example from the paper's Section 6: a server speaks one
// application protocol, remote clients speak another, and a derived
// converter fronts the server so the remote clients can use it.
//
// The client protocol poses a question (rq) and expects one reply (rp),
// with no acknowledgement. The server protocol answers each question (Q)
// with a reply (R) and then requires an explicit completion ack (K) before
// taking the next question. The converter must learn, from the quotient
// derivation alone, to forward the question, relay the reply, and
// synthesize the ack the client will never send.
//
// One subtlety this example demonstrates: the service must mention the
// server's own "serve" action. Finite-state specifications abstract data,
// so a service that only orders pose/answer is satisfied by a degenerate
// converter that answers clients by itself; requiring the trace
// pose→serve→answer pins the causality and forces a genuine relay.
//
// After deriving and verifying the converter, this program deploys it as a
// closed system (convrt.RunSystem): client, converter and server exchange
// messages over FIFO links, and each answer must carry the payload of its
// own question.
//
// Run with: go run ./examples/frontman
package main

import (
	"fmt"
	"log"

	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/spec"
)

// clientSide returns the client transport entity: the user poses a
// question, the entity ships rq to the converter and turns the converter's
// rp into the user's answer. No acks.
func clientSide() *spec.Spec {
	b := spec.NewBuilder("Client")
	b.Init("c0")
	b.Ext("c0", "pose", "c1")
	b.Ext("c1", "-rq", "c2")
	b.Ext("c2", "+rp", "c3")
	b.Ext("c3", "answer", "c0")
	return b.MustBuild()
}

// serverSide returns the server entity: question Q, visible serve action,
// reply R, then a required completion ack K.
func serverSide() *spec.Spec {
	b := spec.NewBuilder("Server")
	b.Init("s0")
	b.Ext("s0", "+Q", "s1")
	b.Ext("s1", "serve", "s2")
	b.Ext("s2", "-R", "s3")
	b.Ext("s3", "+K", "s0")
	return b.MustBuild()
}

func main() {
	// The end-to-end service: pose, serve (at the real server), answer.
	service := spec.NewBuilder("QnA").
		Init("q0").
		Ext("q0", "pose", "q1").
		Ext("q1", "serve", "q2").
		Ext("q2", "answer", "q0").
		MustBuild()

	// Reliable duplex transports client↔converter and converter↔server.
	clientLink := reliable("TClient", []string{"rq"}, []string{"rp"})
	serverLink := reliable("TServer", []string{"Q", "K"}, []string{"R"})

	world, err := compose.Many(clientSide(), clientLink, serverLink, serverSide())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("environment:", world)

	res, err := core.Derive(service, world, core.Options{OmitVacuous: true})
	if err != nil {
		log.Fatalf("no front man possible: %v", err)
	}
	front, err := core.Prune(service, world, res.Converter)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.Verify(service, world, front); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("front man derived and verified: %d states maximal, %d pruned\n\n%s\n",
		res.Converter.NumStates(), front.NumStates(), front.Format())

	// ---- Deploy it ----
	// Client, front man and server run as compiled tables joined by
	// reliable links; the run checks every converter event against the
	// derived front man and every pose, serve and answer against the
	// service.
	const questions = 5
	rep, err := convrt.RunSystem(convrt.SystemConfig{
		Service:  service,
		Entities: []*spec.Spec{clientSide(), front, serverSide()},
		Duplexes: []convrt.Duplex{{Initiator: 0, Responder: 1}, {Initiator: 1, Responder: 2}},
		Accept:   "pose",
		Deliver:  "answer",
		Messages: questions,
		Check:    true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !rep.OK() {
		log.Fatalf("deployment failed: %+v (violation: %v)", rep, rep.Violation)
	}
	fmt.Printf("client -> front man: %s\nfront man -> server: %s\n", rep.Links[0], rep.Links[2])
	fmt.Printf("%d questions posed, %d answered in order; %d converter and %d service events checked\n",
		rep.Accepted, rep.Delivered, rep.ConvEvents, rep.SvcEvents)
	fmt.Println("\nthe front man fronted", questions, "questions between mismatched protocols.")
}

// reliable builds a loss-free duplex channel spec with one slot per
// direction.
func reliable(name string, fwd, rev []string) *spec.Spec {
	b := spec.NewBuilder(name)
	st := func(f, r string) string { return f + "|" + r }
	slots := func(list []string) []string { return append([]string{"-"}, list...) }
	for _, f := range slots(fwd) {
		for _, r := range slots(rev) {
			cur := st(f, r)
			b.State(cur)
			if f == "-" {
				for _, m := range fwd {
					b.Ext(cur, spec.Event("-"+m), st(m, r))
				}
			} else {
				b.Ext(cur, spec.Event("+"+f), st("-", r))
			}
			if r == "-" {
				for _, m := range rev {
					b.Ext(cur, spec.Event("-"+m), st(f, m))
				}
			} else {
				b.Ext(cur, spec.Event("+"+r), st(f, "-"))
			}
		}
	}
	b.Init(st("-", "-"))
	return b.MustBuild()
}
