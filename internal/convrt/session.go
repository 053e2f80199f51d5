package convrt

import (
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
// deliver, step, check, offer, audit — allocates nothing.
type Session struct {
	t   *Table
	mon *monitor // nil when conformance is off
	cur int32    // monitor state: the reference's frontier after the executed trace
	rng uint64   // splitmix64 state; never zero

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
	s.rng = uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 1
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

// next64 is splitmix64: a tiny, allocation-free seeded source. Each
// session draws from its own stream, so one session's traffic never
// perturbs another's schedule and a run is reproducible from (seed, id).
func (s *Session) next64() uint64 {
	s.rng += 0x9E3779B97F4A7C15
	z := s.rng
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
			m.stale.Add(1)
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
		m.steps.Add(1)
		m.observeLatency(nowNs - enq)
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
			m.completed.Add(1)
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
		ev := enabled[int(s.next64()%uint64(len(enabled)))]
		nxt, _ := s.t.Step(s.pred, ev)
		s.pred = nxt
		s.proposals++
		m.proposed.Add(1)
		if s.proposals > int64(starvationFactor*s.target)+1024 {
			s.failed = true
			s.done = true
			s.count = 0
			m.failed.Add(1)
			m.starved.Add(1)
			return true
		}
		d := s.faults.next(s)
		switch {
		case d.drop:
			m.dropped.Add(1)
			offered = true // the offer happened; the wire ate it
			continue
		case d.corrupt:
			m.corrupted.Add(1)
			offered = true
			continue
		}
		msg := wireMsg{ev: ev, enqNs: nowNs}
		if d.delayNs > 0 {
			msg.readyNs = nowNs + d.delayNs
			m.delayed.Add(1)
		}
		s.push(msg)
		offered = true
		if d.dup && s.count < len(s.wire) {
			s.push(msg)
			m.duplicated.Add(1)
		}
		if d.reorder && s.count >= 2 {
			// Swap the two most recent offers: the new message overtakes
			// its predecessor.
			i1 := (s.head + s.count - 1) % len(s.wire)
			i2 := (s.head + s.count - 2) % len(s.wire)
			s.wire[i1], s.wire[i2] = s.wire[i2], s.wire[i1]
			m.reordered.Add(1)
		}
	}
	return offered
}

// push appends to the ring; callers guarantee room (window offers + dups
// fit in the 2×window ring by construction).
func (s *Session) push(msg wireMsg) {
	s.wire[(s.head+s.count)%len(s.wire)] = msg
	s.count++
}

// reset wraps the session around after a terminal state: back to the
// initial state, monitor re-anchored at the empty trace.
func (s *Session) reset(m *workerMetrics) {
	s.state = s.t.Init()
	s.pred = s.state
	s.cur = 0
	m.resets.Add(1)
}

// fail latches a conformance violation: the table executed an event the
// reference specification does not enable.
func (s *Session) fail(m *workerMetrics, ev int32) {
	s.failed = true
	s.done = true
	s.count = 0
	m.failed.Add(1)
	m.violations.Add(1)
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
	m.audits.Add(1)
	got := s.t.Enabled(s.state)
	if !s.mon.outside[s.cur] && slices.Equal(s.mon.enabled(s.cur), got) {
		return true
	}
	s.failed = true
	s.done = true
	s.count = 0
	m.failed.Add(1)
	m.violations.Add(1)
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

// faultSched draws per-offer fault decisions from the session's own
// stream, honoring runtime.FaultModel semantics: one draw per configured
// fault class per offer in a fixed order, so the consumed stream depends
// only on the model and the offer count — never on outcomes — and a whole
// run is a deterministic function of (seed, model, converter).
type faultSched struct {
	model     runtime.FaultModel
	burstLeft int
}

// decision is the fate of one offer.
type decision struct {
	drop    bool
	corrupt bool
	dup     bool
	reorder bool
	delayNs int64
}

// chance draws a probability check without touching float conversion on
// the zero path.
func (f *faultSched) chance(s *Session, p float64) bool {
	if p <= 0 {
		return false
	}
	// 53-bit mantissa draw, the same distribution rand.Float64 uses.
	return float64(s.next64()>>11)/(1<<53) < p
}

func (f *faultSched) next(s *Session) decision {
	var d decision
	m := f.model
	if f.chance(s, m.Loss) {
		d.drop = true
		if m.Burst > 1 {
			f.burstLeft = int(s.next64() % uint64(m.Burst))
		}
	}
	if f.burstLeft > 0 && !d.drop {
		f.burstLeft--
		d.drop = true
	}
	if f.chance(s, m.Corrupt) && !d.drop {
		d.corrupt = true
	}
	if f.chance(s, m.Dup) {
		d.dup = true
	}
	if f.chance(s, m.Reorder) {
		d.reorder = true
	}
	if m.Delay > 0 {
		d.delayNs = int64(s.next64() % uint64(m.Delay+1))
	}
	return d
}

// nowNs is the monotonic-enough clock the engine samples once per worker
// sweep.
func nowNs() int64 { return time.Now().UnixNano() }
