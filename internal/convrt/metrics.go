package convrt

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"protoquot/internal/spec"
)

// workerMetrics is one worker's counter shard. The per-message counters
// (steps, offers, stale discards, fault classes) and the two histograms are
// plain single-writer tallies in local: the owning worker adds to them
// with ordinary arithmetic and publish copies them into the atomics below,
// which is all a concurrent Metrics reader touches. runShard publishes
// every publishEvery sessions within a sweep and at the end of each sweep,
// so a live snapshot lags a worker by at most publishEvery session pumps
// and the final report is exact. The rare lifecycle counters (audits,
// resets, violations, starvation, completion, failure) are added
// atomically where they happen: each rides on work far costlier than the
// add (an enabled-set comparison, a reset, a session's end).
type workerMetrics struct {
	local tally
	wait  histogram // enqueue→execute nanoseconds, one sample per executed step
	svc   histogram // per-sweep mean service time per executed step, weighted by its steps

	steps      atomic.Int64
	proposed   atomic.Int64
	stale      atomic.Int64
	dropped    atomic.Int64
	corrupted  atomic.Int64
	duplicated atomic.Int64
	reordered  atomic.Int64
	delayed    atomic.Int64

	resets     atomic.Int64
	audits     atomic.Int64
	violations atomic.Int64
	starved    atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64

	vioMu   *sync.Mutex  // shared across workers; guards vios
	vios    *[]Violation // shared violation detail sink, capped
	vioCap_ int
}

// tally is the owner-only half of a workerMetrics.
type tally struct {
	steps, proposed, stale                             int64
	dropped, corrupted, duplicated, reordered, delayed int64
}

// publish makes the owner's tallies visible to Metrics readers. Only the
// owning worker calls it; each store carries a cumulative total, so
// snapshots stay monotone.
func (m *workerMetrics) publish() {
	l := &m.local
	m.steps.Store(l.steps)
	m.proposed.Store(l.proposed)
	m.stale.Store(l.stale)
	m.dropped.Store(l.dropped)
	m.corrupted.Store(l.corrupted)
	m.duplicated.Store(l.duplicated)
	m.reordered.Store(l.reordered)
	m.delayed.Store(l.delayed)
	m.wait.publish()
	m.svc.publish()
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

// histogram is an allocation-free single-writer histogram with a
// published copy. The owner observes into counts; publish copies the
// buckets touched since the last publication into pub, which readers load.
type histogram struct {
	counts [histBuckets]int64
	lo, hi int // buckets touched since the last publish; lo > hi when none
	pub    [histBuckets]atomic.Int64
}

// observe adds w samples of duration ns.
func (h *histogram) observe(ns, w int64) {
	b := bucketOf(ns)
	h.counts[b] += w
	if b < h.lo {
		h.lo = b
	}
	if b > h.hi {
		h.hi = b
	}
}

func (h *histogram) publish() {
	for b := h.lo; b <= h.hi; b++ {
		h.pub[b].Store(h.counts[b])
	}
	h.lo, h.hi = histBuckets, -1
}

// quantiles merges the published histograms and returns the p50 and p99
// sample values (bucket midpoints) at ranks ⌊q·(n−1)⌋ of the n samples, or
// zeros when there are none. Snapshot-path work, never on the step path.
func quantiles(hs []*histogram) (p50, p99 int64) {
	var merged [histBuckets]int64
	var n int64
	for _, h := range hs {
		for b := range merged {
			c := h.pub[b].Load()
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

// Metrics is a point-in-time snapshot of a run: throughput counters, the
// session gauges, and the step-wait quantiles from the merged per-worker
// histograms. Returned by Runner.Metrics (live) and embedded in the final
// Report.
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

	// SessionsActive/Completed/Failed partition the configured sessions.
	SessionsActive    int64
	SessionsCompleted int64
	SessionsFailed    int64

	// P50StepNs/P99StepNs are enqueue-to-execute wait quantiles over every
	// executed step (0 until the first step lands), within 6.25% of the
	// exact sample at the same rank.
	P50StepNs int64
	P99StepNs int64
}

// merge folds one worker shard's published counters into the snapshot.
func (s *Metrics) merge(m *workerMetrics) {
	s.Steps += m.steps.Load()
	s.Proposed += m.proposed.Load()
	s.Stale += m.stale.Load()
	s.Dropped += m.dropped.Load()
	s.Corrupted += m.corrupted.Load()
	s.Duplicated += m.duplicated.Load()
	s.Reordered += m.reordered.Load()
	s.Delayed += m.delayed.Load()
	s.Resets += m.resets.Load()
	s.Audits += m.audits.Load()
	s.Violations += m.violations.Load()
	s.Starved += m.starved.Load()
	s.SessionsCompleted += m.completed.Load()
	s.SessionsFailed += m.failed.Load()
}
