package convrt

import (
	"math/bits"
	"sync"

	"protoquot/internal/spec"
)

// workerMetrics is one worker's counter shard: plain tallies and two
// histograms that only the owning worker writes. Run sums the shards after
// every worker has finished, so no counter needs to be atomic.
type workerMetrics struct {
	Metrics           // counters only; the quantile fields stay zero
	wait    histogram // enqueue→execute nanoseconds, one sample per executed step
	svc     histogram // per-sweep mean service time per executed step, weighted by its steps

	vioMu   *sync.Mutex  // shared across workers; guards vios
	vios    *[]Violation // shared violation detail sink, capped
	vioCap_ int
}

// recordViolation appends detail for the first few violations run-wide.
func (m *workerMetrics) recordViolation(v Violation) {
	m.vioMu.Lock()
	if len(*m.vios) < m.vioCap_ {
		*m.vios = append(*m.vios, v)
	}
	m.vioMu.Unlock()
}

// Histogram geometry: log-linear buckets of nanosecond durations. Values
// below 2^histSubBits are exact; above, each power-of-two octave
// [2^e, 2^(e+1)) splits into 2^histSubBits equal buckets of width
// 2^(e-histSubBits). A bucket's width is at most 1/8 of its lower bound,
// and a quantile reports its bucket's midpoint, so a reported quantile is
// within 1/16 (6.25%) of the exact sample at the same rank.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// bucketOf maps a duration to its bucket; negative durations (a wall clock
// stepped backwards) land in bucket 0.
func bucketOf(ns int64) int {
	if ns < histSub {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 // ≥ histSubBits
	return (e-histSubBits+1)<<histSubBits | int(uint64(ns)>>(e-histSubBits))&(histSub-1)
}

// bucketMid is the value a quantile reports for bucket b: the midpoint of
// the durations it holds.
func bucketMid(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	shift := b>>histSubBits - 1 // e - histSubBits
	lo := int64(histSub|b&(histSub-1)) << shift
	return lo + (int64(1)<<shift)/2
}

// histogram is an allocation-free single-writer histogram.
type histogram struct {
	counts [histBuckets]int64
}

// observe adds w samples of duration ns.
func (h *histogram) observe(ns, w int64) {
	h.counts[bucketOf(ns)] += w
}

// quantiles merges the histograms and returns the p50 and p99 sample
// values (bucket midpoints) at ranks ⌊q·(n−1)⌋ of the n samples, or zeros
// when there are none. Report-path work, never on the step path.
func quantiles(hs []*histogram) (p50, p99 int64) {
	var merged [histBuckets]int64
	var n int64
	for _, h := range hs {
		for b := range merged {
			c := h.counts[b]
			merged[b] += c
			n += c
		}
	}
	if n == 0 {
		return 0, 0
	}
	at := func(q float64) int64 {
		rank := int64(q * float64(n-1))
		var seen int64
		for b, c := range merged {
			seen += c
			if seen > rank {
				return bucketMid(b)
			}
		}
		return bucketMid(histBuckets - 1)
	}
	return at(0.50), at(0.99)
}

// Violation is the latched detail of one conformance failure: the compiled
// table and the reference specification disagreed about session behavior.
type Violation struct {
	// Session is the offending session's index.
	Session int32
	// Kind is "safety" (the table executed an event the specification does
	// not enable) or "enabled-set" (a sampled audit found the two enabled
	// sets different).
	Kind string
	// State is the table-side state name at the divergence.
	State string
	// Event is the offending event for safety violations.
	Event spec.Event
	// Steps is how many events the session had executed.
	Steps int
	// Enabled is what the reference specification allows at the divergence;
	// TableEnabled what the compiled table allows (enabled-set kind only).
	Enabled      []spec.Event
	TableEnabled []spec.Event
}

// Metrics is a run's counters, its session outcomes, and the step-wait
// quantiles from the merged per-worker histograms, embedded in the Report.
type Metrics struct {
	// Steps counts executed converter events — the msgs/sec numerator.
	Steps int64
	// Proposed counts offers onto the wire (≥ Steps: retransmissions after
	// loss and discarded stale traffic both offer without executing).
	Proposed int64
	// Stale counts deliveries discarded by selective receive (duplicates
	// and post-gap traffic the current state does not enable).
	Stale int64
	// Fault-class counters, one per runtime.FaultModel class.
	Dropped, Corrupted, Duplicated, Reordered, Delayed int64
	// Resets counts sessions wrapping around after a terminal state.
	Resets int64
	// Audits counts sampled enabled-set conformance audits.
	Audits int64
	// Violations counts latched conformance violations (each also fails
	// its session).
	Violations int64
	// Starved counts sessions failed by the starvation guard.
	Starved int64

	// SessionsCompleted/Failed and Report.Canceled partition the configured
	// sessions.
	SessionsCompleted int64
	SessionsFailed    int64

	// P50StepNs/P99StepNs are enqueue-to-execute wait quantiles over every
	// executed step (0 until the first step lands), within 6.25% of the
	// exact sample at the same rank.
	P50StepNs int64
	P99StepNs int64
}

// add folds one worker shard's counters into s.
func (s *Metrics) add(m *Metrics) {
	s.Steps += m.Steps
	s.Proposed += m.Proposed
	s.Stale += m.Stale
	s.Dropped += m.Dropped
	s.Corrupted += m.Corrupted
	s.Duplicated += m.Duplicated
	s.Reordered += m.Reordered
	s.Delayed += m.Delayed
	s.Resets += m.Resets
	s.Audits += m.Audits
	s.Violations += m.Violations
	s.Starved += m.Starved
	s.SessionsCompleted += m.SessionsCompleted
	s.SessionsFailed += m.SessionsFailed
}
