package runtime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"protoquot/internal/spec"
)

// Soak drives the AB→NS conversion system for many messages over
// adversarial links, optionally under online conformance checking. It is
// the shared substrate of `convsim -scenario abns` and the robustness
// acceptance tests: the whole run — fault schedule, event order, and
// statistics — is a deterministic function of (converter, faults, seed),
// so any failure reproduces from its printed seed. Two things escape the
// seed: the links' Reordered counters (see Link), and what the converter
// does after the last acknowledgement leaves, which races with the final
// snapshot and so may or may not show in ConvEvents and the Reverse
// counters.

// SoakConfig configures one soak run.
type SoakConfig struct {
	// Converter is the (pruned) converter specification to deploy.
	Converter *spec.Spec
	// Reference is the specification the conformance monitor checks
	// converter events against; nil defaults to Converter. Deploying a
	// mutant while monitoring against the derived original is how the
	// monitor's detection power is demonstrated.
	Reference *spec.Spec
	// Service is the service specification A ("acc"/"del" alternation);
	// nil disables service-level monitoring.
	Service *spec.Spec
	// Messages is the number of payloads the AB sender offers.
	Messages int
	// Faults is the AB-side link fault model (both directions).
	Faults FaultModel
	// Seed determines the fault schedule.
	Seed int64
	// Monitor attaches a Conformance monitor; violations abort the run.
	Monitor bool
	// Quiet is the quiescence watchdog: if no link or monitor activity is
	// observed for this long, the run is declared deadlocked and, when
	// monitored, checked for a progress violation. Default 2s.
	Quiet time.Duration
}

// SoakResult reports one soak run.
type SoakResult struct {
	Acked      int  // payloads acknowledged to the AB user
	Delivered  int  // payloads delivered to the NS user
	InOrder    bool // deliveries matched the offered sequence
	Deadlock   bool // the quiescence watchdog fired
	Violation  *ConformanceError
	ConvErr    error         // interpreter error (mutants may wedge instead of diverge)
	ConvEvents int           // converter events accepted by the monitor
	SvcEvents  int           // service events accepted by the monitor
	Forward    FaultStats    // AB data link counters
	Reverse    FaultStats    // AB ack link counters
	Elapsed    time.Duration // wall-clock, excluded from golden comparisons
}

// OK reports whether the run completed its full workload cleanly.
func (r *SoakResult) OK(messages int) bool {
	return r.Acked == messages && r.Delivered == messages && r.InOrder &&
		!r.Deadlock && r.Violation == nil && r.ConvErr == nil
}

// Soak runs the conversion system to completion, first violation, or
// quiescence. The returned error is reserved for configuration problems;
// run outcomes (violations, deadlocks, interpreter errors) are reported in
// the result.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakResult, error) {
	if cfg.Converter == nil {
		return nil, errors.New("runtime: Soak needs a converter")
	}
	quiet := cfg.Quiet
	if quiet <= 0 {
		quiet = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mon *Conformance
	if cfg.Monitor {
		ref := cfg.Reference
		if ref == nil {
			ref = cfg.Converter
		}
		mon = NewConformance(ref, cfg.Service)
	}
	ab := NewFaultyDuplex(cfg.Faults, cfg.Seed)
	ns := NewDuplex(0, splitRNG(cfg.Seed, 3))

	payloads := make([][]byte, cfg.Messages)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("payload-%04d", i))
	}

	delivered := make(chan []byte, cfg.Messages+16)
	go MonitoredNSReceiver(ctx, ns, delivered, mon)
	convDone := make(chan error, 1)
	go func() {
		convDone <- MonitoredConverter(ctx, cfg.Converter, ab, ns, ABToNSPortMap(false), mon)
	}()
	ackedCh := make(chan int, 1)
	start := time.Now()
	go func() { ackedCh <- MonitoredABSender(ctx, payloads, ab, mon) }()

	res := &SoakResult{InOrder: true}
	// The watchdog polls activity counters instead of being reset per
	// event: a fire with progress since the last poll just re-arms, so a
	// busy system can never be declared quiescent by timer races.
	activity := func() int {
		f, r := ab.Forward.FaultStats(), ab.Reverse.FaultStats()
		ce, se := mon.Events()
		return res.Delivered + f.Sent + r.Sent + ce + se
	}
	watchdog := time.NewTimer(quiet)
	defer watchdog.Stop()
	lastActivity := -1

	senderDone := false
	finish := func() *SoakResult {
		res.Elapsed = time.Since(start)
		res.Forward = ab.Forward.FaultStats()
		res.Reverse = ab.Reverse.FaultStats()
		res.ConvEvents, res.SvcEvents = mon.Events()
		if mon != nil {
			if v, ok := mon.Err().(*ConformanceError); ok {
				res.Violation = v
			}
		}
		cancel()
		return res
	}
	for {
		select {
		case p := <-delivered:
			if string(p) != fmt.Sprintf("payload-%04d", res.Delivered) {
				res.InOrder = false
			}
			res.Delivered++
			if senderDone && res.Delivered >= cfg.Messages {
				return finish(), nil
			}
		case n := <-ackedCh:
			res.Acked = n
			senderDone = true
			if res.Delivered >= cfg.Messages {
				return finish(), nil
			}
		case err := <-convDone:
			if err != nil {
				res.ConvErr = err
				return finish(), nil
			}
			// nil means ctx ended; the other cases handle that.
		case <-mon.Violated():
			return finish(), nil
		case <-watchdog.C:
			if a := activity(); a != lastActivity {
				lastActivity = a
				watchdog.Reset(quiet)
				continue
			}
			res.Deadlock = true
			if mon != nil {
				// Quiescent with nothing left to happen: the ready set is
				// empty, so this latches a progress violation unless the
				// service spec is content to stop here.
				mon.Quiescent(nil)
			}
			return finish(), nil
		case <-ctx.Done():
			res.Deadlock = true
			return finish(), nil
		}
	}
}
