// Command convsim deploys the paper's AB→NS conversion as a closed system.
//
//	convsim [-messages n] [-soak n] [-seed s] [-conform] [-mutate f:e:t]
//	        [-faults loss=0.2,dup=0.1,reorder=0.05]
//
// The AB sender, the derived and pruned converter and the NS receiver run as
// compiled tables joined by bounded FIFO links, in one deterministic loop
// (convrt's RunSystem), and the run reports delivery and fault statistics.
// -faults selects the fault model of the sender–converter link (loss, dup,
// reorder, corrupt, delay, burst; delay counts loop steps, one per
// nanosecond), by default loss=0.2; -conform checks every converter event
// against the derived converter, every service event against the service
// specification, and progress when the run quiesces; -soak n is shorthand
// for a long -messages run; -mutate from:event:to redirects one converter
// transition before deployment, demonstrating that the check catches the
// divergence. A report is a function of its flags and seed: two runs print
// the same report apart from the elapsed line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/runtime"
	"protoquot/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errWriter latches the first error from the report destination. The report
// IS the tool's product — a full disk or closed pipe must surface as a
// failing exit status, not vanish into fmt.Fprintf's discarded return.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

func run(args []string, stdout, stderr io.Writer) int {
	out := &errWriter{w: stdout}
	code := simulate(args, out, stderr)
	if out.err != nil {
		fmt.Fprintf(stderr, "convsim: writing report: %v\n", out.err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

func simulate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("convsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		messages = fs.Int("messages", 25, "payloads to send")
		faults   = fs.String("faults", "loss=0.2", `fault model, e.g. "loss=0.2,dup=0.1,reorder=0.05"`)
		conform  = fs.Bool("conform", false, "check every executed event against the derived specs online")
		soak     = fs.Int("soak", 0, "soak-test message count (overrides -messages, implies -conform)")
		mutate   = fs.String("mutate", "", `deploy a mutated converter, "from:event:to" (implies -conform)`)
		seed     = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	model, err := runtime.ParseFaults(*faults)
	if err != nil {
		fmt.Fprintf(stderr, "convsim: %v\n", err)
		return 1
	}
	n := *messages
	if *soak > 0 {
		n = *soak
	}
	check := *conform || *soak > 0 || *mutate != ""

	fmt.Fprintf(stdout, "deriving AB→NS converter (eventually-reliable channel model)…\n")
	maximal, conv, err := deriveABNS()
	if err != nil {
		fmt.Fprintf(stderr, "convsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "converter: %d states maximal, %d after pruning\n",
		maximal.NumStates(), conv.NumStates())

	deployed, ref := conv, (*spec.Spec)(nil)
	if *mutate != "" {
		parts := strings.SplitN(*mutate, ":", 3)
		if len(parts) != 3 {
			fmt.Fprintf(stderr, "convsim: -mutate wants from:event:to, got %q\n", *mutate)
			return 1
		}
		mut, err := redirectEdge(conv, parts[0], spec.Event(parts[1]), parts[2])
		if err != nil {
			fmt.Fprintf(stderr, "convsim: %v\n", err)
			return 1
		}
		deployed, ref = mut, conv
		fmt.Fprintf(stdout, "mutated converter: %s --%s→ %s (monitoring against the derived original)\n",
			parts[0], parts[1], parts[2])
	}
	fmt.Fprintf(stdout, "seed %d, faults %s, %d messages\n", *seed, model, n)

	r, err := convrt.RunSystem(abnsSystem(deployed, ref, model, n, *seed, check))
	if err != nil {
		fmt.Fprintf(stderr, "convsim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "accepted %d payloads, delivered %d (in order: %v)\n",
		r.Accepted, r.Delivered, r.InOrder)
	fmt.Fprintf(stdout, "AB data link: %s\n", r.Links[0])
	fmt.Fprintf(stdout, "AB ack link: %s\n", r.Links[1])
	fmt.Fprintf(stdout, "run: %d steps, %d stale messages discarded\n", r.Steps, r.Stale)
	if check {
		fmt.Fprintf(stdout, "conformance: %d converter events, %d service events checked\n",
			r.ConvEvents, r.SvcEvents)
	}
	fmt.Fprintf(stdout, "elapsed: %v (%.0f msgs/sec)\n", r.Elapsed.Round(time.Microsecond),
		float64(r.Delivered)/r.Elapsed.Seconds())

	switch {
	case r.Violation != nil:
		fmt.Fprintf(stderr, "convsim: conformance violation (reproduce with -seed %d): %v\n",
			*seed, r.Violation)
		return 1
	case r.Livelock:
		fmt.Fprintf(stderr, "convsim: livelock, the step bound ran out with %d/%d delivered (reproduce with -seed %d)\n",
			r.Delivered, n, *seed)
		return 1
	case r.Deadlock:
		fmt.Fprintf(stderr, "convsim: deadlock with %d/%d delivered (reproduce with -seed %d)\n",
			r.Delivered, n, *seed)
		return 1
	case !r.OK():
		fmt.Fprintf(stderr, "convsim: delivery guarantee violated (reproduce with -seed %d)\n", *seed)
		return 1
	}
	return 0
}

// deriveABNS derives the AB→NS converter against the eventually-reliable
// environment and prunes it. Under the paper's fairness assumption a plain
// lossy channel will lose a parked message eventually, which licenses
// converters whose recovery relies on loss; the eventually-reliable channel
// removes such paths in the quotient's own progress phase.
func deriveABNS() (maximal, pruned *spec.Spec, err error) {
	b := protocols.EventuallyReliableNSB()
	res, err := core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
	if err != nil {
		return nil, nil, err
	}
	pruned, err = core.Prune(protocols.Service(), b, res.Converter)
	return res.Converter, pruned, err
}

// abnsSystem deploys conv between the AB sender and the NS receiver: the
// sender and the converter share a duplex under faults, whose losses time
// out at the sender, and the converter reaches the receiver over a
// reliable one. ref is what the converter is checked against (nil: conv).
func abnsSystem(conv, ref *spec.Spec, faults runtime.FaultModel, messages int, seed int64, check bool) convrt.SystemConfig {
	return convrt.SystemConfig{
		Service:   protocols.Service(),
		Entities:  []*spec.Spec{protocols.ABSender(), conv, protocols.NSReceiver()},
		Reference: ref,
		Duplexes: []convrt.Duplex{
			{Initiator: 0, Responder: 1, Faults: faults, Timeout: protocols.TmoAB},
			{Initiator: 1, Responder: 2},
		},
		Accept:   protocols.Acc,
		Deliver:  protocols.Del,
		Messages: messages,
		Seed:     seed,
		Check:    check,
	}
}
