package convrt

import (
	"math"
	"slices"
	"time"

	"protoquot/internal/runtime"
	"protoquot/internal/spec"
)

// A Session executes one compiled converter over a bounded-FIFO message
// bus. The session's driver walks the converter's own transition graph —
// at each step it draws one of the enabled events from its seeded source —
// and *offers* the chosen events onto the wire; the execution side only
// advances when a message is *delivered*, so the wire's misbehavior
// (loss, duplication, reordering, corruption, delay — the same
// runtime.FaultModel fault classes convsim uses) acts between intent and
// effect exactly as a real channel would:
//
//   - a lost or corrupted offer never executes; when the pipeline drains
//     the driver re-anchors at the actual execution state and re-offers
//     (the retransmission discipline, without timers);
//   - a duplicated delivery executes again only if the event is still
//     enabled — a legitimate trace extension, the very behavior derived
//     converters owe duplicating channels — and is otherwise discarded as
//     stale by selective receive;
//   - a reordered or gap-following delivery that the current state does
//     not enable is likewise discarded as stale.
//
// Every event the session *executes* is therefore enabled in the compiled
// table at the moment of execution; the online conformance check advances
// the same event through a monitor determinized from the reference
// specification and latches a violation if the monitor refuses it —
// table-vs-spec divergence, the runtime counterpart of the differential
// suite.
//
// A session is owned by exactly one worker goroutine (see Runner); only
// the immutable *Table and monitor are shared. The steady-state pump path —
// deliver, step, check, offer, audit — allocates nothing, and counts into
// its worker's plain tallies (see workerMetrics).
type Session struct {
	t   *Table
	mon *monitor // nil when conformance is off
	cur int32    // monitor state: the reference's frontier after the executed trace
	rng splitmix // never zero

	state int32 // execution state
	pred  int32 // driver's predicted state for the current burst

	// wire is the bounded FIFO: a preallocated ring of in-flight messages.
	// Capacity is 2×window so best-effort duplicates have room without
	// displacing real traffic.
	wire  []wireMsg
	head  int
	count int

	window int
	faults faultSched

	stepsDone int
	target    int
	proposals int64 // lifetime offers, for the starvation guard
	done      bool
	failed    bool

	// conformEvery audits the full enabled set (table vs monitor) every n
	// executed steps; 0 disables the audit.
	conformEvery int
	sinceAudit   int

	id int32
}

// wireMsg is one in-flight offer.
type wireMsg struct {
	ev      int32
	enqNs   int64 // enqueue time, for step-latency measurement
	readyNs int64 // earliest delivery time (delay faults); 0 = immediate
}

// init resets s onto table t at the given seed. mon is the conformance
// monitor (nil disables checking).
func (s *Session) init(id int32, t *Table, mon *monitor, seed int64, window, target, conformEvery int) {
	s.id = id
	s.t = t
	s.mon = mon
	s.cur = 0
	s.rng = newSplitmix(seed, uint64(id))
	s.state = t.Init()
	s.pred = s.state
	s.window = window
	s.wire = make([]wireMsg, 2*window)
	s.head, s.count = 0, 0
	s.target = target
	s.stepsDone = 0
	s.proposals = 0
	s.done = false
	s.failed = false
	s.conformEvery = conformEvery
	if s.mon == nil {
		// The enabled-set audit compares against the monitor; without a
		// reference there is nothing to audit.
		s.conformEvery = 0
	}
	s.sinceAudit = 0
}

// next64 draws from the session's own stream, so one session's traffic
// never perturbs another's schedule and a run is reproducible from
// (seed, id).
func (s *Session) next64() uint64 { return s.rng.next() }

// splitmix is a splitmix64 stream: a tiny, allocation-free seeded source.
type splitmix uint64

// newSplitmix starts stream number stream of seed; the state is never zero.
// The seed is mixed by one splitmix64 draw first: unmixed, stream id of
// seed s+1 would be stream id of seed s one draw on.
func newSplitmix(seed int64, stream uint64) splitmix {
	mix := splitmix(seed)
	return splitmix(mix.next()*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 1)
}

func (r *splitmix) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// starvationFactor bounds how many offers a session may make per target
// step before it is declared starved (a safety valve against adversarial
// fault models and engine bugs; at loss rate p the expected offers per
// executed step are 1/(1-p), nowhere near the bound for any sane model).
const starvationFactor = 256

// pump advances the session: deliver every deliverable message, then, if
// the pipeline has drained, offer a fresh burst. It returns true if any
// observable work happened. nowNs is the worker's clock sample for this
// sweep (one time.Now per sweep, not per message).
func (s *Session) pump(nowNs int64, m *workerMetrics) bool {
	if s.done {
		return false
	}
	progress := false
	for s.count > 0 {
		msg := &s.wire[s.head]
		if msg.readyNs > nowNs {
			break // head-of-line delay: FIFO order is preserved
		}
		ev := msg.ev
		enq := msg.enqNs
		s.head++
		if s.head == len(s.wire) {
			s.head = 0
		}
		s.count--
		progress = true
		nxt, ok := s.t.Step(s.state, ev)
		if !ok {
			m.Stale++
			continue
		}
		if s.mon != nil {
			cur := s.mon.step(s.cur, ev)
			if cur == NoState {
				s.fail(m, ev)
				return true
			}
			s.cur = cur
		}
		s.state = nxt
		s.stepsDone++
		m.Steps++
		m.wait.observe(nowNs-enq, 1)
		if s.conformEvery > 0 {
			s.sinceAudit++
			if s.sinceAudit >= s.conformEvery {
				s.sinceAudit = 0
				if !s.auditEnabled(m) {
					return true
				}
			}
		}
		if s.stepsDone >= s.target {
			s.done = true
			s.count = 0 // drain whatever is still in flight
			m.SessionsCompleted++
			return true
		}
	}
	if s.count == 0 {
		if s.offerBurst(nowNs, m) {
			progress = true
		}
	}
	return progress
}

// offerBurst re-anchors the driver at the execution state and offers up to
// window events along a predicted path, drawing one fault decision per
// offer. Lost and corrupted offers are simply not enqueued — the messages
// after the gap will arrive stale and be discarded, and the next drained
// pipeline re-anchors — which is exactly the go-back-N shape real
// converters exhibit over lossy channels.
func (s *Session) offerBurst(nowNs int64, m *workerMetrics) bool {
	s.pred = s.state
	offered := false
	for i := 0; i < s.window; i++ {
		enabled := s.t.Enabled(s.pred)
		if len(enabled) == 0 {
			// Terminal state. If execution is already there with nothing in
			// flight, wrap the session around to the initial state (counting
			// a completed converter lifecycle); otherwise stop the burst and
			// let the pipeline drain.
			if i == 0 && s.pred == s.state {
				s.reset(m)
				offered = true
				continue
			}
			break
		}
		ev := enabled[pick(s.next64(), len(enabled))]
		nxt, _ := s.t.Step(s.pred, ev)
		s.pred = nxt
		s.proposals++
		m.Proposed++
		if s.proposals > int64(starvationFactor*s.target)+1024 {
			s.failed = true
			s.done = true
			s.count = 0
			m.SessionsFailed++
			m.Starved++
			return true
		}
		hit, delayNs := s.faults.next(&s.rng)
		switch {
		case hit&faultDrop != 0:
			m.Dropped++
			offered = true // the offer happened; the wire ate it
			continue
		case hit&faultCorrupt != 0:
			m.Corrupted++
			offered = true
			continue
		}
		msg := wireMsg{ev: ev, enqNs: nowNs}
		if delayNs > 0 {
			msg.readyNs = nowNs + delayNs
			m.Delayed++
		}
		s.push(msg)
		offered = true
		if hit&faultDup != 0 && s.count < len(s.wire) {
			s.push(msg)
			m.Duplicated++
		}
		if hit&faultReorder != 0 && s.count >= 2 {
			// Swap the two most recent offers: the new message overtakes
			// its predecessor.
			i1 := s.slot(s.count - 1)
			i2 := s.slot(s.count - 2)
			s.wire[i1], s.wire[i2] = s.wire[i2], s.wire[i1]
			m.Reordered++
		}
	}
	return offered
}

// push appends to the ring; callers guarantee room (window offers + dups
// fit in the 2×window ring by construction).
func (s *Session) push(msg wireMsg) {
	s.wire[s.slot(s.count)] = msg
	s.count++
}

// slot is the ring index i places behind the head, for 0 ≤ i ≤ len(wire):
// head < len(wire), so one conditional subtraction wraps it.
func (s *Session) slot(i int) int {
	j := s.head + i
	if j >= len(s.wire) {
		j -= len(s.wire)
	}
	return j
}

// pick maps a draw r onto an index in [0, n): r mod n, without the 64-bit
// divide when n is a power of two (the driver's common one- and two-way
// choices). The draw is consumed either way.
func pick(r uint64, n int) int {
	if n&(n-1) == 0 {
		return int(r & uint64(n-1))
	}
	return int(r % uint64(n))
}

// reset wraps the session around after a terminal state: back to the
// initial state, monitor re-anchored at the empty trace.
func (s *Session) reset(m *workerMetrics) {
	s.state = s.t.Init()
	s.pred = s.state
	s.cur = 0
	m.Resets++
}

// fail latches a conformance violation: the table executed an event the
// reference specification does not enable.
func (s *Session) fail(m *workerMetrics, ev int32) {
	s.failed = true
	s.done = true
	s.count = 0
	m.SessionsFailed++
	m.Violations++
	m.recordViolation(Violation{
		Session: s.id,
		Kind:    "safety",
		State:   s.t.StateName(s.state),
		Event:   s.t.EventName(ev),
		Steps:   s.stepsDone,
		Enabled: s.mon.enabledNames(s.cur),
	})
}

// auditEnabled compares the full enabled set of the compiled table against
// the monitor's — the sampled two-sided conformance check (the per-step
// check only catches a table that is too permissive; the audit also
// catches one that is too restrictive, or a reference that enables events
// outside the table alphabet). Returns false when a violation was latched.
func (s *Session) auditEnabled(m *workerMetrics) bool {
	m.Audits++
	got := s.t.Enabled(s.state)
	if !s.mon.outside[s.cur] && slices.Equal(s.mon.enabled(s.cur), got) {
		return true
	}
	s.failed = true
	s.done = true
	s.count = 0
	m.SessionsFailed++
	m.Violations++
	enabled := make([]spec.Event, len(got))
	for i, ev := range got {
		enabled[i] = s.t.EventName(ev)
	}
	m.recordViolation(Violation{
		Session:      s.id,
		Kind:         "enabled-set",
		State:        s.t.StateName(s.state),
		Steps:        s.stepsDone,
		Enabled:      s.mon.enabledNames(s.cur),
		TableEnabled: enabled,
	})
	return false
}

// blockedUntil returns the head message's ready time when the session is
// waiting out a delay fault, or 0 when it is runnable (or done).
func (s *Session) blockedUntil(nowNs int64) int64 {
	if s.done || s.count == 0 {
		return 0
	}
	if r := s.wire[s.head].readyNs; r > nowNs {
		return r
	}
	return 0
}

// faultSched draws per-message fault decisions from its owner's stream (a
// session's, or a closed system link's), honoring runtime.FaultModel
// semantics: one draw per configured fault class per offer in a fixed
// order, so the consumed stream depends only on the model and the offer
// count — never on outcomes — and a whole run is a deterministic function
// of (seed, model, converter).
//
// Each probability is held as an integer threshold over the 53-bit draw
// (see threshold), so a class costs one draw, a shift and a compare.
type faultSched struct {
	loss, corrupt, dup, reorder uint64 // thresholds; 0 = class off, no draw
	burst                       uint64 // max consecutive losses; ≤ 1 = single
	delayNs                     uint64 // max extra latency; 0 = off
	burstLeft                   int
}

// newFaultSched compiles a fault model, whose probabilities must lie in
// [0,1], into per-class thresholds.
func newFaultSched(m runtime.FaultModel) faultSched {
	f := faultSched{
		loss:    threshold(m.Loss),
		corrupt: threshold(m.Corrupt),
		dup:     threshold(m.Dup),
		reorder: threshold(m.Reorder),
	}
	if m.Burst > 1 {
		f.burst = uint64(m.Burst)
	}
	if m.Delay > 0 {
		f.delayNs = uint64(m.Delay)
	}
	return f
}

// threshold is ⌈p·2^53⌉ for a probability p in [0,1]. A draw x passes
// when x>>11 < threshold(p), which decides exactly as the float test
// float64(x>>11)/2^53 < p: both sides of that test are exact in float64
// (k = x>>11 < 2^53, and scaling by 2^53 is exact), so it reads k < p·2^53,
// and for an integer k that is k < ⌈p·2^53⌉. p = 0 gives 0: the class is
// off and draws nothing, as p ≤ 0 did.
func threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// fault is the set of fault classes that hit one offer. A bit set, not a
// struct of bools, so the decision travels in one register: a struct
// written byte by byte and then copied whole stalls store forwarding on
// every offer.
type fault uint8

const (
	faultDrop fault = 1 << iota
	faultCorrupt
	faultDup
	faultReorder
)

// chance draws one probability check against threshold t; t = 0 draws
// nothing.
func (f *faultSched) chance(r *splitmix, t uint64) bool {
	return t > 0 && r.next()>>11 < t
}

// next draws the fate of one offer: the classes that hit it (a drop
// excludes corruption) and its extra delivery delay.
func (f *faultSched) next(r *splitmix) (hit fault, delayNs int64) {
	if f.chance(r, f.loss) {
		hit = faultDrop
		if f.burst > 1 {
			f.burstLeft = int(r.next() % f.burst)
		}
	}
	if f.burstLeft > 0 && hit == 0 {
		f.burstLeft--
		hit = faultDrop
	}
	if f.chance(r, f.corrupt) && hit == 0 {
		hit = faultCorrupt
	}
	if f.chance(r, f.dup) {
		hit |= faultDup
	}
	if f.chance(r, f.reorder) {
		hit |= faultReorder
	}
	if f.delayNs > 0 {
		delayNs = int64(r.next() % (f.delayNs + 1))
	}
	return hit, delayNs
}

// nowNs is the monotonic-enough clock the engine samples once per worker
// sweep.
func nowNs() int64 { return time.Now().UnixNano() }
