// Package runtime holds the fault models of the links converters run
// over: FaultModel, its -faults flag syntax (ParseFaults) and the per-link
// counters (FaultStats). internal/convrt draws every fault class from them,
// for sessions against a synthetic wire and for closed conversion systems.
package runtime

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Fault injection. Real channels between mismatched protocols do not merely
// lose messages: they duplicate, reorder, delay, and corrupt them — the
// unbounded-channel pathologies catalogued by Pachl for communicating
// finite state machines. A FaultModel describes one link's adversarial
// behavior; every decision is drawn from a seeded stream in a fixed order
// (one draw per configured fault class per send, regardless of the outcome
// of earlier draws), so a run is reproducible from its seed alone.
//
// Semantics of each fault, chosen to match the specification channels:
//
//   - Loss: the message is discarded and a timeout token is posted, the
//     runtime counterpart of the spec channels' "timeouts never premature"
//     rule. Burst > 1 makes losses bursty: each loss draws a burst length
//     in [1, Burst] and the following burst-1 sends are dropped too.
//   - Corrupt: the message is damaged in flight; the link layer's checksum
//     detects it and discards the frame, so corruption behaves like loss
//     (with its own counter). Undetectable corruption is out of scope.
//   - Dup: the message is delivered twice back to back. The duplicate is
//     best-effort: if the link buffer is full it is discarded silently.
//   - Reorder: the message overtakes the one buffered before it, swapping
//     adjacent deliveries. Reordering never holds a message back on an
//     otherwise idle link (that would manufacture deadlocks no real channel
//     exhibits: a lone in-flight message always arrives).
//   - Delay: delivery is delayed by a uniform duration in [0, Delay]; a
//     closed conversion system counts it in loop steps, one per
//     nanosecond.
type FaultModel struct {
	Loss    float64       // P(drop) per message
	Dup     float64       // P(duplicate) per delivered message
	Reorder float64       // P(overtake one buffered message)
	Corrupt float64       // P(corrupted and discarded by checksum)
	Delay   time.Duration // max extra latency per delivered message
	Burst   int           // max consecutive losses per loss event (≤1 = single)
}

// String renders the model in the -faults flag syntax, stable order.
func (f FaultModel) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("loss", f.Loss)
	add("dup", f.Dup)
	add("reorder", f.Reorder)
	add("corrupt", f.Corrupt)
	if f.Delay > 0 {
		parts = append(parts, "delay="+f.Delay.String())
	}
	if f.Burst > 1 {
		parts = append(parts, "burst="+strconv.Itoa(f.Burst))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaults parses the -faults flag syntax: comma-separated key=value
// pairs with keys loss, dup, reorder, corrupt (probabilities in [0,1]),
// delay (a time.Duration), and burst (an integer ≥ 1). An empty string is
// the zero model.
func ParseFaults(s string) (FaultModel, error) {
	var f FaultModel
	if strings.TrimSpace(s) == "" || s == "none" {
		return f, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return f, fmt.Errorf("runtime: fault %q is not key=value", part)
		}
		prob := func() (float64, error) {
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || !(p >= 0 && p <= 1) { // NaN fails both comparisons
				return 0, fmt.Errorf("runtime: fault %s=%q is not a probability in [0,1]", k, v)
			}
			return p, nil
		}
		var err error
		switch k {
		case "loss":
			f.Loss, err = prob()
		case "dup":
			f.Dup, err = prob()
		case "reorder":
			f.Reorder, err = prob()
		case "corrupt":
			f.Corrupt, err = prob()
		case "delay":
			f.Delay, err = time.ParseDuration(v)
			if err == nil && f.Delay < 0 {
				err = fmt.Errorf("runtime: fault delay=%q is negative", v)
			}
		case "burst":
			f.Burst, err = strconv.Atoi(v)
			if err == nil && f.Burst < 1 {
				err = fmt.Errorf("runtime: fault burst=%q must be ≥ 1", v)
			}
		default:
			return f, fmt.Errorf("runtime: unknown fault %q (want loss, dup, reorder, corrupt, delay, burst)", k)
		}
		if err != nil {
			return f, err
		}
	}
	return f, nil
}

// FaultStats counts fault events on one link.
type FaultStats struct {
	Sent       int // messages offered to the link (including dropped ones)
	Dropped    int // lost outright (including burst losses)
	Corrupted  int // corrupted and discarded by the checksum
	Duplicated int // extra copies delivered
	Reordered  int // messages that overtook a buffered one
	Delayed    int // messages given extra latency
}

// Lost returns the messages that never arrived: drops plus corruptions.
func (s FaultStats) Lost() int { return s.Dropped + s.Corrupted }

// String renders the counters compactly, omitting zero fault classes.
func (s FaultStats) String() string {
	out := fmt.Sprintf("%d sent", s.Sent)
	for _, kv := range []struct {
		k string
		v int
	}{{"lost", s.Dropped}, {"corrupted", s.Corrupted}, {"duplicated", s.Duplicated},
		{"reordered", s.Reordered}, {"delayed", s.Delayed}} {
		if kv.v > 0 {
			out += fmt.Sprintf(", %d %s", kv.v, kv.k)
		}
	}
	return out
}
