package protocols

import (
	"fmt"

	"protoquot/internal/spec"
)

// ChannelConfig describes a duplex channel in the style of the paper's
// Figure 10. The channel carries one outstanding message per direction:
// a forward ("data") slot and a reverse ("ack") slot. Passing a message in
// is the event "-"+msg; removing it is "+"+msg. If Lossy, either slot's
// occupant may be lost via an internal transition, after which the Timeout
// event occurs — at the initiating side, which is the party that
// retransmits — and clears the slot. Timeouts are therefore never
// premature, exactly as the paper specifies.
//
// Both slots share the single Timeout event. This is the load-bearing
// modeling decision behind the paper's §5 negative result: the
// retransmitting party cannot tell whether the loss consumed its own
// message or the other side's acknowledgement.
type ChannelConfig struct {
	// Forward lists the message types of the forward direction.
	Forward []string
	// Reverse lists the message types of the reverse direction.
	Reverse []string
	// Lossy enables message loss (and requires Timeout).
	Lossy bool
	// Timeout is the event signaled after a loss.
	Timeout spec.Event
	// MaxLosses, when positive, bounds the total number of losses the
	// channel will ever perform; afterwards it behaves perfectly. Bounded
	// variants matter for robust derivation (core.DeriveRobust): under the
	// paper's fairness assumption an unbounded lossy channel *will* lose a
	// parked message eventually, which licenses converters whose recovery
	// relies on loss; a family of bounded variants rules such converters
	// out. Zero means unbounded.
	MaxLosses int
	// EventuallyReliable models the classic fair-lossy link: the channel
	// may lose any message, but may also — by an internal transition
	// available in every state — become permanently reliable ("calm").
	// Because the calm copy is always internally reachable, no converter
	// can satisfy progress by relying on a future loss; deriving against
	// an eventually-reliable channel therefore yields converters that are
	// deployable on real links, where loss happens but is never
	// guaranteed. Requires Lossy; mutually exclusive with MaxLosses.
	EventuallyReliable bool
	// Duplicating lets either slot deliver its occupant without releasing
	// it: each "+msg" removal event gains a nondeterministic variant that
	// keeps the slot full, so the same message may be received any number
	// of times — the duplication pathology at the specification level.
	// Duplication is not maskable the way loss is: a converter cannot be
	// *derived* against an unbounded duplicating channel (the keep-a-copy
	// branch can starve fresh traffic forever, so the progress phase
	// empties), and duplicates on the delivery path reach the user
	// unconditionally. What the model is for is *auditing*: composing a
	// converter derived against the lossy channel with a Duplicating
	// variant checks whether its loss-recovery structure also absorbs
	// duplicates safely — the spec-level counterpart of the fault-injection
	// soak convsim runs on internal/convrt's closed system.
	Duplicating bool
}

// slot occupancy markers inside state names.
const (
	slotEmpty = "-"
	slotLost  = "!"
)

// DuplexChannel builds the channel machine. State names are "f<X>,r<Y>"
// where X and Y are a message name, "-" (empty), or "!" (lost).
func DuplexChannel(name string, cfg ChannelConfig) (*spec.Spec, error) {
	if cfg.Lossy && cfg.Timeout == "" {
		return nil, fmt.Errorf("protocols: lossy channel %s needs a Timeout event", name)
	}
	if cfg.EventuallyReliable && !cfg.Lossy {
		return nil, fmt.Errorf("protocols: EventuallyReliable channel %s must be Lossy", name)
	}
	if cfg.EventuallyReliable && cfg.MaxLosses > 0 {
		return nil, fmt.Errorf("protocols: channel %s cannot be both EventuallyReliable and loss-bounded", name)
	}
	fwd := append([]string{slotEmpty}, cfg.Forward...)
	rev := append([]string{slotEmpty}, cfg.Reverse...)
	if cfg.Lossy {
		fwd = append(fwd, slotLost)
		rev = append(rev, slotLost)
	}
	// Phase values: -1 is the plain (unbounded-lossy or lossless) phase;
	// MaxLosses…0 are loss budgets; -2 is the "calm" copy of an
	// eventually-reliable channel, reachable from every -1 state by an
	// internal transition and incapable of further loss.
	const calm = -2
	budgets := []int{-1}
	if cfg.Lossy && cfg.MaxLosses > 0 {
		budgets = budgets[:0]
		for k := cfg.MaxLosses; k >= 0; k-- {
			budgets = append(budgets, k)
		}
	}
	if cfg.EventuallyReliable {
		budgets = append(budgets, calm)
	}
	st := func(f, r string, k int) string {
		s := "f" + f + ",r" + r
		if k >= 0 {
			s += fmt.Sprintf(",k%d", k)
		} else if k == calm {
			s += ",calm"
		}
		return s
	}
	next := func(k int) int { // budget after one loss
		if k < 0 {
			return -1
		}
		return k - 1
	}

	b := spec.NewBuilder(name)
	b.Init(st(slotEmpty, slotEmpty, budgets[0]))
	for _, k := range budgets {
		for _, f := range fwd {
			for _, r := range rev {
				cur := st(f, r, k)
				b.State(cur)
				if cfg.EventuallyReliable && k == -1 {
					b.Int(cur, st(f, r, calm))
				}
				canLose := cfg.Lossy && (k == -1 || k > 0)
				// Forward slot dynamics.
				switch f {
				case slotEmpty:
					for _, m := range cfg.Forward {
						b.Ext(cur, spec.Event("-"+m), st(m, r, k))
					}
				case slotLost:
					b.Ext(cur, cfg.Timeout, st(slotEmpty, r, k))
				default:
					b.Ext(cur, spec.Event("+"+f), st(slotEmpty, r, k))
					if cfg.Duplicating {
						b.Ext(cur, spec.Event("+"+f), cur) // deliver, keep a copy
					}
					if canLose {
						b.Int(cur, st(slotLost, r, next(k)))
					}
				}
				// Reverse slot dynamics.
				switch r {
				case slotEmpty:
					for _, m := range cfg.Reverse {
						b.Ext(cur, spec.Event("-"+m), st(f, m, k))
					}
				case slotLost:
					b.Ext(cur, cfg.Timeout, st(f, slotEmpty, k))
				default:
					b.Ext(cur, spec.Event("+"+r), st(f, slotEmpty, k))
					if cfg.Duplicating {
						b.Ext(cur, spec.Event("+"+r), cur) // deliver, keep a copy
					}
					if canLose {
						b.Int(cur, st(f, slotLost, next(k)))
					}
				}
			}
		}
	}
	s, err := b.Build()
	if err != nil {
		return nil, err
	}
	return s.Trim(), nil
}

// MustDuplexChannel is DuplexChannel that panics on error.
func MustDuplexChannel(name string, cfg ChannelConfig) *spec.Spec {
	s, err := DuplexChannel(name, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Timeout event names used by the paper reproduction.
const (
	TmoAB spec.Event = "tmo.ab" // AB-side channel timeout, signaled to the AB sender
	TmoNS spec.Event = "tmo.ns" // NS-side channel timeout, signaled to the NS-side sender
)

// ABChannel returns the duplex channel between the AB sender and its peer
// (Figure 10, left): data messages d0/d1 forward, acknowledgements a0/a1 in
// reverse, lossy, with timeouts delivered to the AB sender.
func ABChannel() *spec.Spec {
	return MustDuplexChannel("Ach", ChannelConfig{
		Forward: []string{"d0", "d1"},
		Reverse: []string{"a0", "a1"},
		Lossy:   true,
		Timeout: TmoAB,
	})
}

// NSChannel returns the duplex channel between the NS-side sender (the NS
// protocol sender, or the converter in the Figure 9 configuration) and the
// NS receiver: data message D forward, acknowledgement A in reverse, lossy,
// with timeouts delivered to the sender side.
func NSChannel() *spec.Spec {
	return MustDuplexChannel("Nch", ChannelConfig{
		Forward: []string{"D"},
		Reverse: []string{"A"},
		Lossy:   true,
		Timeout: TmoNS,
	})
}

// ReliableChannel returns a loss-free duplex channel, used for the network
// services of the §6 configurations where the segment is reliable (e.g.
// co-located converter and receiver).
func ReliableChannel(name string, forward, reverse []string) *spec.Spec {
	return MustDuplexChannel(name, ChannelConfig{Forward: forward, Reverse: reverse})
}
