package convrt

import (
	"fmt"
	"time"

	rt "protoquot/internal/runtime"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// A closed conversion system runs the paper's end-to-end picture: protocol
// entities and a converter, each a compiled Table, joined by bounded FIFO
// links, with the service A checked online. Sessions (session.go) exercise
// a converter alone against a synthetic wire; a system runs it between the
// machines it was derived for, so a pass means B‖C satisfied A on this run.
//
// The links follow the communicating finite-state machine model: a send
// event -x enqueues x on the link to the peer that has +x, and the peer's
// +x dequeues it. Every fault class of runtime.FaultModel is drawn per sent
// message through the same faultSched sessions use; delay is counted in
// loop steps, one per nanosecond of the model's Delay. A lost or corrupted
// message posts its duplex's timeout event to the initiating entity, so
// timeouts are never premature. Everything runs on one goroutine and every
// choice draws from streams of the seed, so a report is a pure function of
// (config, seed) apart from its wall time.

// linkCapacity bounds each link's FIFO; a send waits while its link is
// full.
const linkCapacity = 8

// maxStepsPerMessage bounds a run at maxStepsPerMessage·(Messages+1)
// moves, so a system that never quiesces (one whose every message is lost,
// say) ends as a livelock instead of spinning.
const maxStepsPerMessage = 4096

// A Duplex joins two entities of a system with one link per direction.
// Messages are routed by name: the forward link carries every x with -x in
// the Initiator's alphabet and +x in the Responder's, the reverse link the
// other way round.
type Duplex struct {
	Initiator, Responder int // indices into SystemConfig.Entities
	// Faults is the fault model of both directions.
	Faults rt.FaultModel
	// Timeout is the Initiator's event that a lost or corrupted message on
	// either direction posts ("" when Faults loses nothing).
	Timeout spec.Event
}

// SystemConfig describes one closed conversion system and its workload.
type SystemConfig struct {
	// Service is the specification A the system must provide; its
	// alphabet is the set of service events.
	Service *spec.Spec
	// Entities are the system's machines, protocol entities and the
	// converter, each compiled with Compile. Every event of an entity is a
	// service event, a message routed by exactly one link, or the timeout
	// of a duplex it initiates. The converter is the one entity with no
	// service event: as in the paper, its whole interface is internal to
	// the system.
	Entities []*spec.Spec
	// Reference is what the converter's events are checked against; nil
	// means the converter itself. Deploying a mutant and checking it
	// against its derived original shows what the check catches.
	Reference *spec.Spec
	Duplexes  []Duplex
	// Accept is the service event that takes a payload from the user, and
	// Deliver the one that hands a payload to the user. An entity's sends
	// carry its last accepted or received payload, so a run can tell
	// whether the i-th delivery carries the i-th accepted payload.
	Accept, Deliver spec.Event
	// Messages is how many payloads the run accepts.
	Messages int
	// Seed fixes the interleaving and every link's fault schedule.
	Seed int64
	// Check turns on the online checks: each converter event against
	// Reference, each service event against Service, and progress when the
	// run quiesces.
	Check bool
}

// SystemReport is the outcome of one run.
type SystemReport struct {
	Messages            int
	Accepted, Delivered int
	// InOrder reports that the i-th delivery carried the i-th accepted
	// payload, for every delivery.
	InOrder bool
	// Deadlock reports that the run quiesced (no move enabled, no delayed
	// message pending) before Messages payloads were delivered.
	Deadlock bool
	// Livelock reports that the step bound ran out before the run
	// quiesced.
	Livelock bool
	// Violation is the first move, or the quiescent end, a check refused.
	Violation *SystemViolation
	// ConvEvents and SvcEvents count the events the checks passed.
	ConvEvents, SvcEvents int
	// Links holds each link's fault counters: duplex d's forward link at
	// 2d, its reverse link at 2d+1.
	Links []rt.FaultStats
	// Stale counts messages discarded by selective receive: the receiver
	// was waiting on the link, but not for the message at its head.
	Stale int
	// Steps counts the moves executed.
	Steps   int64
	Elapsed time.Duration
}

// OK reports whether the run delivered all its payloads, in order, and
// ended quiescent with no violation.
func (r *SystemReport) OK() bool {
	return r.Accepted == r.Messages && r.Delivered == r.Messages && r.InOrder &&
		!r.Deadlock && !r.Livelock && r.Violation == nil
}

// A SystemViolation is the first move of a run, or its quiescent end, that
// a check refuses.
type SystemViolation struct {
	// Level is "converter" (the converter left its Reference) or "service"
	// (the system left the Service).
	Level string
	// Kind is "safety" (a refused event) or "progress" (a quiescent end
	// whose ready set covers no acceptance set of the Service).
	Kind string
	// Entity, State and Event name the refused move (safety only), and
	// Enabled lists what the reference allowed instead.
	Entity, State string
	Event         spec.Event
	Enabled       []spec.Event
	// Ready lists the service events the quiescent system was ready for
	// (progress only).
	Ready []spec.Event
	// Step is the number of moves executed before the violation.
	Step int64
}

func (v *SystemViolation) Error() string {
	if v.Kind == "progress" {
		return fmt.Sprintf("%s progress violation after %d steps: quiescent, ready for %v, which covers no acceptance set",
			v.Level, v.Step, v.Ready)
	}
	return fmt.Sprintf("%s safety violation after %d steps: %s took %q in state %s; the reference allows %v",
		v.Level, v.Step, v.Entity, v.Event, v.State, v.Enabled)
}

// RunSystem builds the system cfg describes and runs it until it quiesces,
// a check fails, or the step bound runs out. The error is for a config the
// system cannot be built from; run outcomes are in the report.
func RunSystem(cfg SystemConfig) (*SystemReport, error) {
	s, err := newSystem(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s.run()
	s.rep.Elapsed = time.Since(start)
	for _, l := range s.links {
		s.rep.Links = append(s.rep.Links, l.stats)
	}
	return &s.rep, nil
}

// What an entity's event does.
const (
	roleService uint8 = iota
	roleSend
	roleRecv
	roleTimeout
)

type role struct {
	kind uint8
	// at is the link (send, receive), the duplex (timeout) or the column in
	// the Service's alphabet (service event).
	at int32
	// peer is the receiver's event id for the message (send only).
	peer int32
}

type entity struct {
	t       *Table
	roles   []role  // by event id
	in      []int32 // the links it receives from
	accept  int32   // event ids of Accept and Deliver, or NoEvent
	deliver int32
	state   int32
	payload int32 // the last payload accepted or received
}

// polls reports whether e's current state waits on link l.
func (e *entity) polls(l int32) bool {
	for _, ev := range e.t.Enabled(e.state) {
		if r := e.roles[ev]; r.kind == roleRecv && r.at == l {
			return true
		}
	}
	return false
}

type frame struct {
	ev      int32 // the receiver's event id
	payload int32
	ready   int64 // the first step it may be received at
}

type link struct {
	from, to int32
	duplex   int32
	q        [linkCapacity]frame
	head, n  int
	faults   faultSched
	rng      splitmix
	stats    rt.FaultStats
}

func (l *link) at(i int) *frame { return &l.q[(l.head+i)%linkCapacity] }

func (l *link) pop() frame {
	f := l.q[l.head]
	l.head = (l.head + 1) % linkCapacity
	l.n--
	return f
}

// A move is an entity's event, or (ev = NoEvent) the discard of a stale
// message at the head of a link. at is the event's role.at, or the link a
// receive or discard takes from.
type move struct{ ent, ev, at int32 }

type system struct {
	cfg     SystemConfig
	ents    []entity
	links   []link
	pending []int // posted, untaken timeouts per duplex
	rng     splitmix
	clock   int64
	moves   []move
	convEnt int32 // the converter's index in ents

	conv, svc       *monitor // nil when Check is off
	convCur, svcCur int32
	progress        *sat.AcceptanceIndex
	readyIx         *sat.ReadyIndex
	ready           []uint64

	rep SystemReport
}

func newSystem(cfg SystemConfig) (*system, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("convrt: SystemConfig.Service is required")
	}
	svcEvents := cfg.Service.Alphabet()
	svcCol := make(map[spec.Event]int32, len(svcEvents))
	for i, e := range svcEvents {
		svcCol[e] = int32(i)
	}
	for _, e := range []spec.Event{cfg.Accept, cfg.Deliver} {
		if _, ok := svcCol[e]; !ok {
			return nil, fmt.Errorf("convrt: %q is not an event of service %s", e, cfg.Service.Name())
		}
	}
	s := &system{
		cfg:     cfg,
		ents:    make([]entity, len(cfg.Entities)),
		links:   make([]link, 2*len(cfg.Duplexes)),
		pending: make([]int, len(cfg.Duplexes)),
		rng:     newSplitmix(cfg.Seed, 0),
		rep:     SystemReport{Messages: cfg.Messages, InOrder: true},
	}
	for i, sp := range cfg.Entities {
		t, err := Compile(sp)
		if err != nil {
			return nil, err
		}
		s.ents[i] = entity{t: t, roles: make([]role, t.NumEvents()), accept: t.EventID(cfg.Accept),
			deliver: t.EventID(cfg.Deliver), state: t.Init()}
	}
	for d, dx := range cfg.Duplexes {
		if min(dx.Initiator, dx.Responder) < 0 || max(dx.Initiator, dx.Responder) >= len(s.ents) || dx.Initiator == dx.Responder {
			return nil, fmt.Errorf("convrt: duplex %d joins entities %d and %d of %d", d, dx.Initiator, dx.Responder, len(s.ents))
		}
		if err := checkFaults(fmt.Sprintf("SystemConfig.Duplexes[%d].Faults", d), dx.Faults); err != nil {
			return nil, err
		}
		for dir, ends := range [2][2]int{{dx.Initiator, dx.Responder}, {dx.Responder, dx.Initiator}} {
			l := 2*d + dir
			s.links[l] = link{from: int32(ends[0]), to: int32(ends[1]), duplex: int32(d),
				faults: newFaultSched(dx.Faults), rng: newSplitmix(cfg.Seed, uint64(l+1))}
			s.ents[ends[1]].in = append(s.ents[ends[1]].in, int32(l))
		}
	}
	s.convEnt = -1
	for i := range s.ents {
		e := &s.ents[i]
		serves := false
		for ev, name := range e.t.Events() {
			r, err := s.route(i, name, svcCol)
			if err != nil {
				return nil, err
			}
			e.roles[ev] = r
			serves = serves || r.kind == roleService
		}
		if !serves {
			if s.convEnt >= 0 {
				return nil, fmt.Errorf("convrt: %s and %s both have no service event; which is the converter?",
					cfg.Entities[s.convEnt].Name(), cfg.Entities[i].Name())
			}
			s.convEnt = int32(i)
		}
	}
	if s.convEnt < 0 {
		return nil, fmt.Errorf("convrt: every entity has a service event; the converter must have none")
	}
	if !cfg.Check {
		return s, nil
	}
	ref := cfg.Reference
	if ref == nil {
		ref = cfg.Entities[s.convEnt]
	}
	var err error
	if s.conv, err = newMonitor(ref, s.ents[s.convEnt].t.Events()); err != nil {
		return nil, err
	}
	if s.svc, err = newMonitor(cfg.Service, svcEvents); err != nil {
		return nil, err
	}
	if s.readyIx, err = sat.NewReadyIndex(svcEvents); err != nil {
		return nil, err
	}
	if s.progress, err = sat.NewAcceptanceIndex(cfg.Service, s.readyIx); err != nil {
		return nil, err
	}
	s.ready = make([]uint64, s.readyIx.Words())
	return s, nil
}

// route finds what event ev of entity i does.
func (s *system) route(i int, ev spec.Event, svcCol map[spec.Event]int32) (role, error) {
	name := s.cfg.Entities[i].Name()
	if c, ok := svcCol[ev]; ok {
		return role{kind: roleService, at: c}, nil
	}
	for d, dx := range s.cfg.Duplexes {
		if dx.Initiator == i && dx.Timeout == ev {
			return role{kind: roleTimeout, at: int32(d)}, nil
		}
	}
	if len(ev) < 2 || (ev[0] != '-' && ev[0] != '+') {
		return role{}, fmt.Errorf("convrt: event %q of %s is neither a service event, a message nor a timeout", ev, name)
	}
	send := ev[0] == '-'
	peerEv := "+" + ev[1:]
	if !send {
		peerEv = "-" + ev[1:]
	}
	var r role
	carriers := 0
	for l, lk := range s.links {
		switch {
		case send && int(lk.from) == i:
			if id := s.ents[lk.to].t.EventID(peerEv); id != NoEvent {
				r, carriers = role{kind: roleSend, at: int32(l), peer: id}, carriers+1
			}
		case !send && int(lk.to) == i:
			if s.ents[lk.from].t.EventID(peerEv) != NoEvent {
				r, carriers = role{kind: roleRecv, at: int32(l)}, carriers+1
			}
		}
	}
	if carriers != 1 {
		return role{}, fmt.Errorf("convrt: %d links carry %s's %q, want exactly 1", carriers, name, ev)
	}
	return r, nil
}

func (s *system) run() {
	limit := int64(maxStepsPerMessage) * int64(s.cfg.Messages+1)
	for {
		s.collect()
		if len(s.moves) == 0 {
			if s.wake() {
				continue
			}
			s.quiesce()
			return
		}
		if s.rep.Steps == limit {
			s.rep.Livelock = true
			return
		}
		m := s.moves[pick(s.rng.next(), len(s.moves))]
		s.rep.Steps++
		s.clock++
		if !s.exec(m) {
			return
		}
	}
}

// collect lists every enabled move. A receive is enabled when its message
// is at the head of its link and due; a stale head (one the waiting
// receiver does not enable) may be discarded; a timeout is taken only when
// a timeout is pending and the entity has no message to receive first.
func (s *system) collect() {
	s.moves = s.moves[:0]
	for i := range s.ents {
		e := &s.ents[i]
		receiving := false
		for _, l := range e.in {
			lk := &s.links[l]
			if lk.n == 0 || lk.q[lk.head].ready > s.clock {
				continue
			}
			ev := lk.q[lk.head].ev
			if _, ok := e.t.Step(e.state, ev); ok {
				s.moves = append(s.moves, move{int32(i), ev, l})
				receiving = true
			} else if e.polls(l) {
				s.moves = append(s.moves, move{int32(i), NoEvent, l})
				receiving = true
			}
		}
		for _, ev := range e.t.Enabled(e.state) {
			r := e.roles[ev]
			switch {
			case r.kind == roleRecv,
				r.kind == roleSend && s.links[r.at].n == linkCapacity,
				r.kind == roleTimeout && (receiving || s.pending[r.at] == 0),
				ev == e.accept && s.rep.Accepted == s.cfg.Messages:
				continue
			}
			s.moves = append(s.moves, move{int32(i), ev, r.at})
		}
	}
}

// exec performs move m and reports whether the checks passed it.
func (s *system) exec(m move) bool {
	e := &s.ents[m.ent]
	if m.ev == NoEvent {
		s.links[m.at].pop()
		s.rep.Stale++
		return true
	}
	r := e.roles[m.ev]
	if !s.check(m, e, r) {
		return false
	}
	switch r.kind {
	case roleSend:
		s.send(&s.links[m.at], frame{ev: r.peer, payload: e.payload})
	case roleRecv:
		e.payload = s.links[m.at].pop().payload
	case roleTimeout:
		s.pending[m.at]--
	case roleService:
		switch m.ev {
		case e.accept:
			e.payload = int32(s.rep.Accepted)
			s.rep.Accepted++
		case e.deliver:
			if e.payload != int32(s.rep.Delivered) {
				s.rep.InOrder = false
			}
			s.rep.Delivered++
		}
	}
	e.state, _ = e.t.Step(e.state, m.ev)
	return true
}

// check advances the monitors over m before it takes effect, latching the
// first refusal.
func (s *system) check(m move, e *entity, r role) bool {
	if s.conv != nil && m.ent == s.convEnt {
		nxt := s.conv.step(s.convCur, m.ev)
		if nxt == NoState {
			s.refuse("converter", s.conv, s.convCur, e, m.ev)
			return false
		}
		s.convCur = nxt
		s.rep.ConvEvents++
	}
	if s.svc != nil && r.kind == roleService {
		nxt := s.svc.step(s.svcCur, r.at)
		if nxt == NoState {
			s.refuse("service", s.svc, s.svcCur, e, m.ev)
			return false
		}
		s.svcCur = nxt
		s.rep.SvcEvents++
	}
	return true
}

func (s *system) refuse(level string, mon *monitor, cur int32, e *entity, ev int32) {
	s.rep.Violation = &SystemViolation{
		Level: level, Kind: "safety",
		Entity: e.t.Name(), State: e.t.StateName(e.state), Event: e.t.EventName(ev),
		Enabled: mon.enabledNames(cur), Step: s.rep.Steps - 1,
	}
}

// send puts f on link l through the link's fault schedule.
func (s *system) send(l *link, f frame) {
	l.stats.Sent++
	hit, delay := l.faults.next(&l.rng)
	if hit&(faultDrop|faultCorrupt) != 0 {
		if hit&faultDrop != 0 {
			l.stats.Dropped++
		} else {
			l.stats.Corrupted++
		}
		s.pending[l.duplex]++
		return
	}
	f.ready = s.clock + delay
	if delay > 0 {
		l.stats.Delayed++
	}
	*l.at(l.n) = f
	l.n++
	// A message overtakes only a copy of itself: in a stop-and-wait run
	// distinct messages delimit protocol phases, and swapping those would
	// resurrect a stale retransmission after the next phase began.
	if hit&faultReorder != 0 && l.n >= 2 && l.at(l.n-2).ev == f.ev {
		a, b := l.at(l.n-2), l.at(l.n-1)
		*a, *b = *b, *a
		l.stats.Reordered++
	}
	if hit&faultDup != 0 && l.n < linkCapacity {
		*l.at(l.n) = f
		l.n++
		l.stats.Duplicated++
	}
}

// wake advances the clock to the earliest delayed head, reporting whether
// there was one.
func (s *system) wake() bool {
	next := int64(-1)
	for i := range s.links {
		if l := &s.links[i]; l.n > 0 {
			if r := l.q[l.head].ready; r > s.clock && (next < 0 || r < next) {
				next = r
			}
		}
	}
	if next < 0 {
		return false
	}
	s.clock = next
	return true
}

// quiesce ends a run that has no move left: a deadlock if payloads are
// undelivered, and, when checking, a progress violation unless the
// service events the entities are ready for cover an acceptance set of
// some service state the run may be in.
func (s *system) quiesce() {
	s.rep.Deadlock = s.rep.Delivered < s.cfg.Messages
	if s.svc == nil {
		return
	}
	clear(s.ready)
	for i := range s.ents {
		e := &s.ents[i]
		for _, ev := range e.t.Enabled(e.state) {
			if r := e.roles[ev]; r.kind == roleService {
				s.ready[r.at>>6] |= 1 << (r.at & 63)
			}
		}
	}
	for _, a := range s.svc.set(s.svcCur) {
		if s.progress.Prog(a, s.ready) {
			return
		}
	}
	s.rep.Violation = &SystemViolation{Level: "service", Kind: "progress",
		Ready: s.readyIx.EventsOf(s.ready), Step: s.rep.Steps}
}
