package protosmith

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"protoquot/internal/baseline"
	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/oracle"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// CheckOptions tune the differential harness. The zero value picks the
// defaults used by the smoke gate.
type CheckOptions struct {
	// Workers are the worker counts every engine runs at; every run must
	// produce a bit-identical outcome. Default 1, 2, 4.
	Workers []int
	// MaxStates bounds the safety phase (generated systems are untrusted
	// inputs in exactly core.Options.MaxStates's sense). An aborted
	// derivation is itself an outcome every engine must reproduce
	// identically. Default 50000.
	MaxStates int
	// OracleStateLimit gates the slow raw-edge oracles: they run only when
	// the composed environment has at most this many states. Default 600.
	OracleStateLimit int
	// SafetyProbes is the number of probe traces compared against the
	// hereditary-safety predicate per system. Default 6.
	SafetyProbes int
	// ProbeSeed seeds the probe-trace generator, independently of the
	// system's own seed so shrinking does not shift probes.
	ProbeSeed int64
	// SkipBaselines disables the Okumura/Lam probes.
	SkipBaselines bool
	// MaxBaselineSends bounds the token-counter space of the generic
	// Okumura seed (3^sends configurations). Default 6.
	MaxBaselineSends int
}

func (o CheckOptions) normalized() CheckOptions {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4}
	}
	if o.MaxStates == 0 {
		o.MaxStates = 50000
	}
	if o.OracleStateLimit == 0 {
		o.OracleStateLimit = 600
	}
	if o.SafetyProbes == 0 {
		o.SafetyProbes = 6
	}
	if o.MaxBaselineSends == 0 {
		o.MaxBaselineSends = 6
	}
	return o
}

// Divergence describes one cross-check failure: a leg of the harness that
// disagreed with the reference outcome. It is an error so harness callers
// can propagate it directly.
type Divergence struct {
	// Leg names the disagreeing check, e.g. "engine:lazy-w4",
	// "sat-verify", "oracle-progress", "prune", "oracle-safety",
	// "baseline-okumura", "wellformed".
	Leg string
	// Detail is a human-readable description of the disagreement.
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("protosmith: divergence on %s: %s", d.Leg, d.Detail)
}

// CheckReport summarizes one system's trip through the harness.
type CheckReport struct {
	// Verdict classifies the agreed outcome: "exists",
	// "noquotient-safety", "noquotient-progress", or "error".
	Verdict string
	// Exists is true when a converter was derived.
	Exists bool
	// SafetyStates and FinalStates echo the agreed derivation statistics.
	SafetyStates, FinalStates int
	// EngineRuns counts derivations performed (engines × worker counts,
	// plus the duplicated-variant robust leg).
	EngineRuns int
	// OracleProgress and OracleSafetyProbes count the raw-edge oracle
	// comparisons that ran (they are gated by OracleStateLimit).
	OracleProgress     bool
	OracleSafetyProbes int
	// Pruned is true when the prune leg ran (it shares OracleStateLimit's
	// gate) and its pruned converter passed every check.
	Pruned bool
	// BaselineProbes counts bottom-up candidates driven through the
	// a posteriori global check; BaselineConfirmed is true when at least
	// one of them independently proved converter existence.
	BaselineProbes    int
	BaselineConfirmed bool
	// Divergence is non-nil when any cross-check failed.
	Divergence *Divergence
}

// outcome is the comparable fingerprint of one derivation run: everything
// the golden fixtures pin, minus wall-clock metrics.
type outcome struct {
	exists    bool
	err       string
	stats     string
	converter string
}

func (o outcome) String() string {
	return fmt.Sprintf("exists=%v err=%q stats=[%s]\n%s", o.exists, o.err, o.stats, o.converter)
}

func outcomeOf(res *core.Result, err error) outcome {
	o := outcome{}
	if err != nil {
		o.err = err.Error()
	}
	if res != nil {
		o.exists = res.Exists
		s := res.Stats
		o.stats = fmt.Sprintf("safety=%d/%d pairs=%d sweeps=%d removed=%d final=%d/%d",
			s.SafetyStates, s.SafetyTransitions, s.PairSetTotal,
			s.ProgressIterations, s.RemovedStates, s.FinalStates, s.FinalTransitions)
		if res.Converter != nil {
			o.converter = res.Converter.Format()
		}
	}
	return o
}

func classify(res *core.Result, err error) string {
	if err == nil {
		return "exists"
	}
	var nq *core.NoQuotientError
	if errors.As(err, &nq) {
		return "noquotient-" + nq.FailedPhase
	}
	return "error"
}

// Check runs one system through every engine, worker count, and oracle,
// and reports the first divergence found (nil Divergence means the system
// is fully agreed upon). Check never panics on a well-formed system; a
// malformed one is reported as a "wellformed" divergence, which the smoke
// gate treats as a generator bug.
func Check(sys *System, opt CheckOptions) *CheckReport {
	opt = opt.normalized()
	rep := &CheckReport{}
	diverge := func(leg, format string, args ...interface{}) *CheckReport {
		rep.Divergence = &Divergence{Leg: leg, Detail: fmt.Sprintf(format, args...)}
		return rep
	}

	if err := sys.Validate(); err != nil {
		return diverge("wellformed", "%v", err)
	}
	a := sys.Service
	// The spec leg composes through the oracle's pairwise fold, so the
	// engine matrix also checks compose.LazyMany against it.
	b := oracle.Compose(sys.Components...)

	// Engine matrix: two pipelines × worker counts, all bit-identical.
	base := core.Options{OmitVacuous: true, MaxStates: opt.MaxStates}
	var ref outcome
	var refRes *core.Result
	var refErr error
	first := true
	for _, w := range opt.Workers {
		opts := base
		opts.Workers = w
		type leg struct {
			name string
			run  func() (*core.Result, error)
		}
		legs := []leg{
			{"spec", func() (*core.Result, error) { return core.Derive(a, b, opts) }},
			{"lazy", func() (*core.Result, error) {
				lz, lerr := compose.LazyMany(sys.Components...)
				if lerr != nil {
					return nil, lerr
				}
				return core.DeriveEnv(a, lz, opts)
			}},
		}
		for _, l := range legs {
			res, rerr := l.run()
			rep.EngineRuns++
			got := outcomeOf(res, rerr)
			if first {
				ref, refRes, refErr = got, res, rerr
				first = false
				continue
			}
			if got != ref {
				return diverge(fmt.Sprintf("engine:%s-w%d", l.name, w),
					"outcome differs from %s-w%d reference\nref:  %s\ngot:  %s",
					"spec", opt.Workers[0], ref, got)
			}
		}
	}

	// Robust leg: deriving against the same environment listed twice must
	// agree on verdict and converter (pair-set statistics legitimately
	// double, so they are excluded from this comparison).
	robRes, robErr := core.DeriveRobust(a, []*spec.Spec{b, b}, base)
	rep.EngineRuns++
	rob := outcomeOf(robRes, robErr)
	if rob.exists != ref.exists || rob.converter != ref.converter || (rob.err == "") != (ref.err == "") {
		return diverge("engine:robust-dup", "duplicated-variant derivation differs\nref:  %s\ngot:  %s", ref, rob)
	}

	rep.Verdict = classify(refRes, refErr)
	rep.Exists = refRes != nil && refRes.Exists
	if refRes != nil {
		rep.SafetyStates = refRes.Stats.SafetyStates
		rep.FinalStates = refRes.Stats.FinalStates
	}

	// Independent satisfaction check: the derived converter must make
	// B‖C satisfy A according to internal/sat, which shares no code with
	// the derivation engine's phases.
	var conv *spec.Spec
	if rep.Exists {
		conv = refRes.Converter
		if verr := core.Verify(a, b, conv); verr != nil {
			return diverge("sat-verify", "derived converter fails independent check: %v", verr)
		}
	}

	smallEnough := b.NumStates() <= opt.OracleStateLimit
	if smallEnough && rep.Exists && b.NumStates()*conv.NumStates() <= 10*opt.OracleStateLimit {
		// Raw-edge progress reference over the closed system B‖C.
		closed := oracle.Compose(b, conv)
		if witness, ok := oracle.CheckProgress(closed, a); !ok {
			return diverge("oracle-progress",
				"raw-edge progress oracle rejects B‖C after %s", sat.FormatTrace(witness))
		}
		rep.OracleProgress = true
	}

	// Prune leg: the pruned converter must still satisfy A by the sat
	// checker, keep only traces of the converter it was pruned from, and
	// pass the raw-edge progress oracle, which shares no code with Prune's
	// compiled candidate check.
	if smallEnough && rep.Exists {
		pruned, perr := core.Prune(a, b, conv)
		if perr != nil {
			return diverge("prune", "Prune refuses the verified converter: %v", perr)
		}
		if verr := core.Verify(a, b, pruned); verr != nil {
			return diverge("prune", "pruned converter fails independent check: %v", verr)
		}
		if serr := sat.Safety(pruned, conv); serr != nil {
			return diverge("prune", "pruned converter is not trace-included in the derived one: %v", serr)
		}
		if witness, ok := oracle.CheckProgress(oracle.Compose(b, pruned), a); !ok {
			return diverge("prune", "raw-edge progress oracle rejects B‖C_pruned after %s", sat.FormatTrace(witness))
		}
		rep.Pruned = true
	}

	// C0: the full safety-phase converter, vacuous states kept. By
	// Theorem 1 its trace set is exactly the hereditarily safe traces, so
	// it is both the safety oracle's reference object and the maximality
	// bound for baseline candidates (the final converter is smaller — it
	// prunes vacuous and non-live states, which a correct candidate may
	// legitimately still mention).
	var c0 *spec.Spec
	if rep.Verdict != "error" {
		c0res, c0err := core.Derive(a, b, core.Options{SafetyOnly: true, MaxStates: opt.MaxStates})
		if c0err == nil {
			c0 = c0res.Converter
		} else {
			var nq *core.NoQuotientError
			if !errors.As(c0err, &nq) {
				return rep // safety phase aborted; nothing left to compare
			}
		}
		if smallEnough {
			if d := checkSafetyOracle(sys, a, b, c0, opt, rep); d != nil {
				rep.Divergence = d
				return rep
			}
		}
		if !opt.SkipBaselines {
			if d := probeBaselines(a, b, conv, c0, rep, opt); d != nil {
				rep.Divergence = d
				return rep
			}
		}
	}
	return rep
}

// checkSafetyOracle cross-checks the safety phase against the paper's
// hereditary-safety predicate (oracle.HereditarilySafe): by Theorem 1 the
// trace set of the full safety-phase converter C0 (vacuous states kept) is
// exactly the set of hereditarily safe Int-traces. Probes are random walks
// of C0 (which must all be hereditarily safe) and uniform random
// Int-sequences (whose membership in C0's trace set must match the oracle
// bit for bit).
func checkSafetyOracle(sys *System, a, b, c0 *spec.Spec, opt CheckOptions, rep *CheckReport) *Divergence {
	ext := make(map[spec.Event]bool, len(a.Alphabet()))
	for _, e := range a.Alphabet() {
		ext[e] = true
	}
	_, intl := sys.Interface()
	if c0 == nil {
		// Safety-phase nonexistence means even the empty trace is unsafe:
		// ok(h.ε) fails, so the oracle must reject ε too.
		if oracle.HereditarilySafe(a, b, ext, nil) {
			return &Divergence{Leg: "oracle-safety",
				Detail: "engine found no safety converter but the oracle accepts the empty trace"}
		}
		rep.OracleSafetyProbes++
		return nil
	}
	rng := rand.New(rand.NewSource(opt.ProbeSeed ^ 0x70726f62))
	for i := 0; i < opt.SafetyProbes; i++ {
		var r []spec.Event
		if i%2 == 0 {
			r = specgen.RandomTrace(rng, c0, 5)
		} else {
			r = make([]spec.Event, 1+rng.Intn(4))
			for j := range r {
				r[j] = intl[rng.Intn(len(intl))]
			}
		}
		inC0 := c0.HasTrace(r)
		safe := oracle.HereditarilySafe(a, b, ext, r)
		if inC0 != safe {
			return &Divergence{Leg: "oracle-safety", Detail: fmt.Sprintf(
				"trace %s: C0 membership %v but hereditary safety %v",
				sat.FormatTrace(r), inC0, safe)}
		}
		rep.OracleSafetyProbes++
	}
	return nil
}

// probeBaselines drives the two prior methods the paper compares against
// (§2) as one-directional existence oracles. Both are bottom-up: their
// candidates must pass an a posteriori global check, and their failure
// proves nothing — but their success proves a converter exists, so:
//
//   - if a candidate passes the global check, the quotient engine must
//     have reported existence, and
//   - by the maximality theorem, every correct candidate's traces must
//     embed in C0, the full safety-phase converter. (Not in the final
//     converter: a correct candidate may mention traces the environment
//     can never jointly execute, which are vacuous and pruned from the
//     final converter but still hereditarily safe, hence in C0.)
//
// The candidates are generic: Int splits by polarity into receive ("+…")
// and send events; Okumura gets universal consumer/producer roles with a
// token seed ("a send needs a prior unconsumed receive"), Lam gets the
// stateless relay pairing receives with sends in sorted order — the
// constructions that reproduce the paper's own candidates on the
// hand-written families.
func probeBaselines(a, b, conv, c0 *spec.Spec, rep *CheckReport, opt CheckOptions) *Divergence {
	var recv, send []spec.Event
	for _, e := range b.Alphabet() {
		if a.HasEvent(e) {
			continue
		}
		if strings.HasPrefix(string(e), "+") {
			recv = append(recv, e)
		} else {
			send = append(send, e)
		}
	}
	intl := append(append([]spec.Event{}, recv...), send...)

	checkCandidate := func(name string, cand *spec.Spec) *Divergence {
		cand = cand.WithEvents(intl...)
		closed := compose.MustMany(b, cand)
		if !sat.SameInterface(closed, a) {
			return &Divergence{Leg: "baseline-" + name, Detail: fmt.Sprintf(
				"candidate composite interface %v does not match the service", closed.Alphabet())}
		}
		rep.BaselineProbes++
		if sat.Satisfies(closed, a) != nil {
			return nil // bottom-up failure proves nothing (the paper's point)
		}
		rep.BaselineConfirmed = true
		if conv == nil {
			return &Divergence{Leg: "baseline-" + name, Detail: "candidate passes the a posteriori global check but the engine reports no quotient"}
		}
		if c0 != nil {
			if err := sat.Safety(cand, c0); err != nil {
				return &Divergence{Leg: "baseline-" + name + "-maximality", Detail: fmt.Sprintf(
					"correct candidate exceeds the maximal safety converter C0: %v", err)}
			}
		}
		return nil
	}

	// The degenerate relay: one idle state refusing every converter-facing
	// event. The cheapest bottom-up candidate there is — when even total
	// blocking passes the global check, existence is proven with no mapping
	// structure at all — and the one probe that applies to every system,
	// including those whose Int alphabet is single-polarity.
	if d := checkCandidate("nullrelay", spec.NewBuilder("relay0").Init("idle").MustBuild()); d != nil {
		return d
	}

	if len(recv) > 0 && len(send) > 0 && len(send) <= opt.MaxBaselineSends {
		p1 := spec.NewBuilder("p1role").Init("r")
		for _, e := range recv {
			p1.Ext("r", e, "r")
		}
		q0 := spec.NewBuilder("q0role").Init("s")
		for _, e := range send {
			q0.Ext("s", e, "s")
		}
		var sd baseline.Seed
		for _, e := range send {
			sd.Rules = append(sd.Rules, baseline.SeedRule{
				Name: "tok" + string(e), Producers: recv, Consumer: e, Cap: 2})
		}
		if cand, err := baseline.Okumura(p1.MustBuild(), q0.MustBuild(), sd); err == nil {
			if d := checkCandidate("okumura", cand); d != nil {
				return d
			}
		}
	}

	if len(recv) > 0 && len(send) > 0 {
		n := len(recv)
		if len(send) < n {
			n = len(send)
		}
		maps := make([]baseline.Mapping, n)
		for i := 0; i < n; i++ {
			maps[i] = baseline.Mapping{In: recv[i], Out: send[i]}
		}
		if relay, err := baseline.Relay("relay", maps); err == nil {
			if d := checkCandidate("relay", relay); d != nil {
				return d
			}
		}
	}
	return nil
}
