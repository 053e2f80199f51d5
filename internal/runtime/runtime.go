// Package runtime executes conversion systems as real message-passing
// programs: protocol entities are goroutines, channels are lossy links
// carrying payloads, and a derived converter specification is interpreted
// as live middleware between them. It demonstrates the intended downstream
// use of the library — derive a converter with the quotient algorithm,
// prune it, and deploy it — and provides the measurement substrate for the
// throughput benchmarks.
package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"protoquot/internal/spec"
)

// Msg is a wire message: a kind tag matching the message names used in the
// specifications ("d0", "a1", "D", …) and an opaque payload.
type Msg struct {
	Kind    string
	Payload []byte
}

// Link is a unidirectional link that may misbehave according to its
// FaultModel. After a loss (or a corruption, which the link checksum turns
// into a loss), a timeout token is posted to the configured channel — the
// runtime counterpart of the specification channels' "timeouts never
// premature" rule. The classic NewLink constructor yields a capacity-one,
// loss-only link; NewFaultyLink buffers a few messages so duplication and
// reordering have room to act.
//
// Links are single-producer: one goroutine calls Send, any number call
// Recv. The fault schedule is drawn under the link mutex, so for a
// stop-and-wait protocol the entire run is a deterministic function of the
// seed, except the Reordered counter: a reorder draw overtakes only a frame
// the receiver has not yet read, which depends on goroutine scheduling. In
// a stop-and-wait run the overtaken frame is a copy of the overtaking one,
// so the delivered sequence does not depend on it.
type Link struct {
	c       chan Msg
	timeout chan<- struct{}

	mu    sync.Mutex
	sched schedule
	stats FaultStats
}

// NewLink creates a capacity-one link with loss as its only fault.
// lossRate is the probability a message is dropped; timeout (may be nil
// when lossRate is 0) receives one token per drop.
func NewLink(lossRate float64, timeout chan<- struct{}, rng *rand.Rand) *Link {
	return newLink(1, FaultModel{Loss: lossRate}, timeout, rng)
}

// NewFaultyLink creates a link with the given fault model and an 8-message
// buffer (duplicates and overtaking need in-flight room). timeout receives
// one token per loss or detected corruption; rng drives the schedule and
// must not be shared with another link.
func NewFaultyLink(model FaultModel, timeout chan<- struct{}, rng *rand.Rand) *Link {
	return newLink(8, model, timeout, rng)
}

func newLink(capacity int, model FaultModel, timeout chan<- struct{}, rng *rand.Rand) *Link {
	return &Link{
		c:       make(chan Msg, capacity),
		timeout: timeout,
		sched:   schedule{model: model, rng: rng},
	}
}

// Send transmits m, blocking while the link is full. It returns false if
// the context is done. A dropped message still counts as sent.
func (l *Link) Send(ctx context.Context, m Msg) bool {
	l.mu.Lock()
	d := l.sched.next()
	l.stats.Sent++
	switch {
	case d.drop:
		l.stats.Dropped++
	case d.corrupt:
		l.stats.Corrupted++
	}
	l.mu.Unlock()
	if d.drop || d.corrupt {
		// Lost in flight (corruption is loss after the checksum check).
		if l.timeout == nil {
			return true
		}
		select {
		case l.timeout <- struct{}{}:
		case <-ctx.Done():
			return false
		}
		return true
	}
	if d.delay > 0 {
		l.mu.Lock()
		l.stats.Delayed++
		l.mu.Unlock()
		t := time.NewTimer(d.delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
	if d.reorder && l.overtake(m) {
		l.mu.Lock()
		l.stats.Reordered++
		l.mu.Unlock()
	} else {
		select {
		case l.c <- m:
		case <-ctx.Done():
			return false
		}
	}
	if d.dup {
		// Best-effort duplicate: never block the sender for a fault.
		select {
		case l.c <- m:
			l.mu.Lock()
			l.stats.Duplicated++
			l.mu.Unlock()
		default:
		}
	}
	return true
}

// overtake attempts to deliver m ahead of one already-buffered message of
// the same kind: it pops the oldest buffered message and re-enqueues
// (m, old). Reordering applies only to buffered traffic — an empty link
// delivers in order, so a lone in-flight message can never be held back
// (which would deadlock a stop-and-wait peer) — and only to frames of the
// same kind: in a stop-and-wait run distinct kinds delimit protocol phases,
// and letting a stale retransmission copy slip behind the next phase's
// frame would resurrect it later as a ghost message no real FIFO-ish
// channel produces. (Protocols that window multiple distinct messages see
// real reordering.) With a single producer the two re-enqueues cannot
// block: after the pop at least one slot is free and only the consumer
// touches the channel concurrently.
func (l *Link) overtake(m Msg) bool {
	// Only the exactly-one-buffered case can be unwound safely: popping the
	// head when more is queued and restoring it would itself reorder, since
	// a channel restore goes to the tail. The consumer never adds, so after
	// a successful pop at len 1 the buffer is empty and the two pushes
	// cannot block.
	if cap(l.c) < 2 || len(l.c) != 1 {
		return false
	}
	select {
	case old := <-l.c:
		if old.Kind == m.Kind {
			l.c <- m
			l.c <- old
			return true
		}
		l.c <- old // different phase: restore order
		return false
	default:
		return false
	}
}

// Recv returns the link's delivery channel.
func (l *Link) Recv() <-chan Msg { return l.c }

// Stats returns (sent, lost) counts, where lost includes detected
// corruptions. See FaultStats for the full breakdown.
func (l *Link) Stats() (sent, dropped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.Sent, l.stats.Lost()
}

// FaultStats returns the full fault counters.
func (l *Link) FaultStats() FaultStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Duplex is a pair of links plus the shared timeout channel delivered to
// the initiating side, mirroring the specification's duplex channels.
type Duplex struct {
	Forward *Link // initiator → responder
	Reverse *Link // responder → initiator
	Timeout chan struct{}
}

// NewDuplex builds a duplex link pair with one loss rate for both
// directions. Timeout tokens from either direction go to the same channel.
func NewDuplex(lossRate float64, rng *rand.Rand) *Duplex {
	tmo := make(chan struct{}, 64)
	return &Duplex{
		Forward: NewLink(lossRate, tmo, rng),
		Reverse: NewLink(lossRate, tmo, rng),
		Timeout: tmo,
	}
}

// NewFaultyDuplex builds a duplex whose two directions both misbehave per
// model. Each direction draws from its own seed-derived source, so one
// direction's traffic volume never perturbs the other's fault schedule and
// the pair is reproducible from (model, seed) alone.
func NewFaultyDuplex(model FaultModel, seed int64) *Duplex {
	tmo := make(chan struct{}, 64)
	return &Duplex{
		Forward: NewFaultyLink(model, tmo, splitRNG(seed, 1)),
		Reverse: NewFaultyLink(model, tmo, splitRNG(seed, 2)),
		Timeout: tmo,
	}
}

// ABSender runs the alternating-bit sender over the duplex link: for each
// payload, transmit d<bit> until the matching a<bit> returns, retransmitting
// on each timeout token. It returns the number of payloads fully
// acknowledged before ctx ended.
func ABSender(ctx context.Context, payloads [][]byte, d *Duplex) int {
	return MonitoredABSender(ctx, payloads, d, nil)
}

// MonitoredABSender is ABSender with conformance monitoring: accepting a
// payload for transmission is the service event "acc", observed before the
// first data frame carrying it can leave. mon may be nil.
func MonitoredABSender(ctx context.Context, payloads [][]byte, d *Duplex, mon *Conformance) int {
	bit := 0
	done := 0
	for _, p := range payloads {
		kind := fmt.Sprintf("d%d", bit)
		want := fmt.Sprintf("a%d", bit)
		mon.Service(spec.Event("acc"))
		if !d.Forward.Send(ctx, Msg{Kind: kind, Payload: p}) {
			return done
		}
	awaitAck:
		for {
			// Drain acknowledgements before reacting to timeout tokens: when
			// a stale token and the awaited ack are both ready, taking the
			// token first would manufacture a spurious retransmission chosen
			// by the scheduler, not the seed.
			select {
			case m := <-d.Reverse.Recv():
				if m.Kind == want {
					break awaitAck
				}
				continue // stale acknowledgement: ignore
			default:
			}
			select {
			case m := <-d.Reverse.Recv():
				if m.Kind == want {
					break awaitAck
				}
				// Stale acknowledgement: ignore.
			case <-d.Timeout:
				if !d.Forward.Send(ctx, Msg{Kind: kind, Payload: p}) {
					return done
				}
			case <-ctx.Done():
				return done
			}
		}
		done++
		bit = 1 - bit
	}
	return done
}

// NSReceiver runs the non-sequenced receiver: every data message D is
// delivered (sent to out) and acknowledged with A. It stops when ctx ends.
func NSReceiver(ctx context.Context, d *Duplex, out chan<- []byte) {
	MonitoredNSReceiver(ctx, d, out, nil)
}

// MonitoredNSReceiver is NSReceiver with conformance monitoring: each
// delivery is the service event "del", observed before the payload reaches
// the user and before the acknowledgement is returned. mon may be nil.
func MonitoredNSReceiver(ctx context.Context, d *Duplex, out chan<- []byte, mon *Conformance) {
	for {
		select {
		case m := <-d.Forward.Recv():
			mon.Service(spec.Event("del"))
			select {
			case out <- m.Payload:
			case <-ctx.Done():
				return
			}
			if !d.Reverse.Send(ctx, Msg{Kind: "A"}) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// PortMap tells the converter interpreter which specification events
// correspond to which runtime actions.
type PortMap struct {
	// RecvA maps message kinds arriving on side A's forward link to
	// converter events (e.g. "d0" → "+d0"). Receiving buffers the payload.
	RecvA map[string]spec.Event
	// SendA maps converter events to message kinds sent on side A's
	// reverse link (e.g. "-a0" → "a0").
	SendA map[spec.Event]string
	// SendB maps converter events to message kinds sent on side B's
	// forward link; the most recently buffered payload is attached
	// (e.g. "-D" → "D").
	SendB map[spec.Event]string
	// RecvB maps message kinds arriving on side B's reverse link to
	// converter events (e.g. "A" → "+A").
	RecvB map[string]spec.Event
	// TimeoutA / TimeoutB are the converter events for timeout tokens of
	// each side's duplex ("" if the converter has none).
	TimeoutA spec.Event
	TimeoutB spec.Event
}

// InterpretError reports a runtime/specification mismatch: a message
// arrived whose event the converter's current state does not enable.
type InterpretError struct {
	State string
	Event spec.Event
}

func (e *InterpretError) Error() string {
	return fmt.Sprintf("runtime: converter state %s does not enable %s", e.State, e.Event)
}

// Converter interprets conv — typically a pruned quotient result — as live
// middleware between sides A and B. Policy: whenever send events are
// enabled, the lexicographically first is taken (a deterministic refinement
// of the converter, which is always trace-safe); otherwise it blocks for a
// message or timeout token and follows the corresponding event. It returns
// when ctx ends, or with an *InterpretError on a mismatch.
func Converter(ctx context.Context, conv *spec.Spec, a, b *Duplex, pm PortMap) error {
	return MonitoredConverter(ctx, conv, a, b, pm, nil)
}

// MonitoredConverter is Converter with conformance monitoring: every event
// the interpreter executes — sends it chooses and receives it follows — is
// reported to mon before it takes effect, so a run of a faulty converter
// (or of a correct converter over channels worse than it was derived for)
// is flagged at the first event its reference specification does not
// enable. mon may be nil.
func MonitoredConverter(ctx context.Context, conv *spec.Spec, a, b *Duplex, pm PortMap, mon *Conformance) error {
	cur := conv.Init()
	var buffered []byte
	recvA := make(map[spec.Event]bool, len(pm.RecvA))
	for _, e := range pm.RecvA {
		recvA[e] = true
	}
	recvB := make(map[spec.Event]bool, len(pm.RecvB))
	for _, e := range pm.RecvB {
		recvB[e] = true
	}
	step := func(e spec.Event) bool {
		mon.Converter(e)
		for _, ed := range conv.ExtEdges(cur) {
			if ed.Event == e {
				cur = ed.To
				return true
			}
		}
		return false
	}
	for {
		// Classify the current state's enabled events: sends to take, and
		// which input channels to listen on. Selective receive — polling a
		// channel only while some event of its port is enabled — is the
		// interpreter's scheduling freedom, and it is what lets the derived
		// converter absorb duplicated frames: a duplicate arriving mid
		//-exchange stays buffered until the converter reaches the state
		// whose retransmission edges expect it, instead of being read early
		// and rejected.
		var sends []spec.Event
		var aCh, bCh <-chan Msg
		var tA, tB <-chan struct{}
		for _, ed := range conv.ExtEdges(cur) {
			e := ed.Event
			switch {
			case pm.SendA[e] != "" || pm.SendB[e] != "":
				sends = append(sends, e)
			case recvA[e]:
				aCh = a.Forward.Recv()
			case recvB[e]:
				bCh = b.Reverse.Recv()
			case pm.TimeoutA != "" && e == pm.TimeoutA:
				tA = a.Timeout
			case pm.TimeoutB != "" && e == pm.TimeoutB:
				tB = b.Timeout
			}
		}
		if len(sends) > 0 {
			sort.Slice(sends, func(i, j int) bool { return sends[i] < sends[j] })
			e := sends[0]
			if kind, ok := pm.SendA[e]; ok {
				if !a.Reverse.Send(ctx, Msg{Kind: kind, Payload: buffered}) {
					return nil
				}
			} else {
				if !b.Forward.Send(ctx, Msg{Kind: pm.SendB[e], Payload: buffered}) {
					return nil
				}
			}
			step(e)
			continue
		}
		select {
		case m := <-aCh:
			e, ok := pm.RecvA[m.Kind]
			if !ok || !step(e) {
				return &InterpretError{State: conv.StateName(cur), Event: e}
			}
			if m.Payload != nil {
				buffered = m.Payload
			}
		case m := <-bCh:
			e, ok := pm.RecvB[m.Kind]
			if !ok || !step(e) {
				return &InterpretError{State: conv.StateName(cur), Event: e}
			}
			if m.Payload != nil {
				buffered = m.Payload
			}
		case <-tA:
			if !step(pm.TimeoutA) {
				return &InterpretError{State: conv.StateName(cur), Event: pm.TimeoutA}
			}
		case <-tB:
			if !step(pm.TimeoutB) {
				return &InterpretError{State: conv.StateName(cur), Event: pm.TimeoutB}
			}
		case <-ctx.Done():
			return nil
		}
	}
}

// ABToNSPortMap returns the PortMap for the AB→NS conversion runtime, where
// side A speaks the AB protocol (events +d0/+d1/-a0/-a1) and side B the NS
// protocol (-D/+A, with tmoNS handled by the converter when the NS side is
// lossy; pass handleNSTimeout=false for a reliable NS side).
func ABToNSPortMap(handleNSTimeout bool) PortMap {
	pm := PortMap{
		RecvA: map[string]spec.Event{"d0": "+d0", "d1": "+d1"},
		SendA: map[spec.Event]string{"-a0": "a0", "-a1": "a1"},
		SendB: map[spec.Event]string{"-D": "D"},
		RecvB: map[string]spec.Event{"A": "+A"},
	}
	if handleNSTimeout {
		pm.TimeoutB = "tmo.ns"
	}
	return pm
}
