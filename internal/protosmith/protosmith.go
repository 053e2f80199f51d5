// Package protosmith is a seeded, deterministic generator of random
// well-formed protocol-conversion systems, plus the differential harness
// that turns them into an adversarial corpus for the derivation engines.
//
// The hand-written families in internal/specgen and the paper's figures pin
// the engines to a handful of shapes. protosmith generates unbounded
// variety — random service specifications in normal form (with tunable
// τ-chain depth and acceptance-family width), random component machines
// over scoped message alphabets, random channel variants, and deliberately
// hostile features such as wedging converter-facing events that bias the
// quotient toward near-empty — and cross-checks every engine against every
// oracle on each one:
//
//   - the spec pipeline over the paper's pairwise composition
//     (oracle.Compose + core.Derive),
//   - the demand-driven pipeline (compose.LazyMany + core.DeriveEnv),
//
// each at worker counts 1, 2, and 4 — all six runs must agree bit for bit
// (verdict, converter listing, and derivation statistics), which also
// checks the composer against its oracle — plus:
//
//   - internal/sat via core.Verify: a derived converter must actually make
//     B‖C satisfy A;
//   - internal/oracle: the raw-edge progress reference must accept B‖C,
//     and the safety-phase converter's trace set must match the paper's
//     hereditary-safety predicate on probe traces (Theorem 1);
//   - core.Prune: the pruned converter must pass core.Verify, be
//     trace-included in the derived one, and pass the raw-edge progress
//     reference over B‖C_pruned;
//   - internal/baseline: if an Okumura seed candidate or a Lam projection
//     relay passes the a posteriori global check, the quotient engine must
//     report that a converter exists, and the candidate's traces must embed
//     in the maximal converter.
//
// Generation is builder-with-scope in the style of microsmith (which
// generates well-formed Go programs to crash compilers): an interface plan
// first fixes which component owns which events — every service event in
// exactly one component, every link event in exactly two, every
// converter-facing event in exactly one — so composition preconditions hold
// by construction, then each machine is generated inside its scope. The
// same int64 seed always yields the same system, the same campaign, and
// the same report.
//
// When a system diverges, Shrink reduces it — component removal, state
// removal, edge removal, alphabet narrowing, re-validating after every
// step — to a minimal spec pair, and the fixture writer emits it under
// testdata/protosmith/ as a ready-to-commit regression test.
package protosmith

import (
	"fmt"
	"sort"
	"strings"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
)

// Knobs bound the shape of generated systems. Every field is an upper
// bound; the generator draws actual sizes uniformly from [1, knob] (or
// [2, knob] where a size-1 instance would be degenerate). The zero value
// is not useful; start from DefaultKnobs.
type Knobs struct {
	// Components bounds the number of environment component machines.
	Components int
	// MaxStates bounds the states per component machine.
	MaxStates int
	// ServiceStates bounds the service skeleton's state count.
	ServiceStates int
	// ServiceEvents bounds |Ext|, the user-facing alphabet.
	ServiceEvents int
	// LinkEvents bounds the hidden rendezvous events per component link.
	LinkEvents int
	// ConverterEvents bounds the converter-facing alphabet |Int| (before
	// any wedge events).
	ConverterEvents int
	// TauDepth bounds the τ-chain depth of service internal expansions.
	TauDepth int
	// AcceptWidth bounds the acceptance-family width: the number of
	// distinct λ-sinks (each with its own acceptance set) a τ-expanded
	// service state branches into.
	AcceptWidth int
	// TauBias is the probability that a service skeleton state is
	// τ-expanded at all.
	TauBias float64
	// ExtraDensity is the probability, per (state, free event slot), of an
	// extra random transition beyond the spanning structure.
	ExtraDensity float64
	// WedgeBias is the probability that a component grows a wedging
	// converter-facing event: a fresh Int event into a dead state, in the
	// spirit of chaindrop's -ydrop. Wedges are safe but never live, so
	// they force multi-sweep progress removal and bias the quotient
	// toward near-empty.
	WedgeBias float64
	// PlantBias is the probability that the system is generated around a
	// planted fronting component that follows the service skeleton
	// (service event, then a converter or link action, per skeleton
	// edge). Planted systems are far more likely to have a nonempty
	// quotient, balancing the corpus between the two verdicts.
	PlantBias float64
}

// DefaultKnobs is tuned for the protosmith-smoke gate: systems small
// enough that two hundred of them cross-check against the slow oracles in
// seconds, yet varied enough to hit both verdicts, multi-sweep progress
// removal, and nondeterministic services.
func DefaultKnobs() Knobs {
	return Knobs{
		Components:      4,
		MaxStates:       5,
		ServiceStates:   4,
		ServiceEvents:   3,
		LinkEvents:      2,
		ConverterEvents: 3,
		TauDepth:        3,
		AcceptWidth:     3,
		TauBias:         0.5,
		ExtraDensity:    0.25,
		WedgeBias:       0.25,
		PlantBias:       0.6,
	}
}

// normalized returns a copy with every bound raised to its minimum legal
// value, so arithmetic on knobs never has to guard against zeros.
func (k Knobs) normalized() Knobs {
	min := func(p *int, floor int) {
		if *p < floor {
			*p = floor
		}
	}
	min(&k.Components, 1)
	min(&k.MaxStates, 2)
	min(&k.ServiceStates, 2)
	min(&k.ServiceEvents, 1)
	min(&k.LinkEvents, 1)
	min(&k.ConverterEvents, 1)
	min(&k.TauDepth, 1)
	min(&k.AcceptWidth, 1)
	return k
}

// String renders the knobs in the "k=v,k=v" form the CLI accepts.
func (k Knobs) String() string {
	return fmt.Sprintf(
		"components=%d,maxstates=%d,servicestates=%d,serviceevents=%d,linkevents=%d,converterevents=%d,taudepth=%d,acceptwidth=%d,taubias=%g,extradensity=%g,wedgebias=%g,plantbias=%g",
		k.Components, k.MaxStates, k.ServiceStates, k.ServiceEvents, k.LinkEvents,
		k.ConverterEvents, k.TauDepth, k.AcceptWidth, k.TauBias, k.ExtraDensity,
		k.WedgeBias, k.PlantBias)
}

// ParseKnobs overlays "k=v,k=v" assignments onto base. Unknown keys and
// malformed values are errors.
func ParseKnobs(base Knobs, s string) (Knobs, error) {
	k := base
	if strings.TrimSpace(s) == "" {
		return k, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return k, fmt.Errorf("protosmith: bad knob %q (want key=value)", part)
		}
		key, val := strings.ToLower(kv[0]), kv[1]
		setInt := func(p *int) error { _, err := fmt.Sscanf(val, "%d", p); return err }
		setF := func(p *float64) error { _, err := fmt.Sscanf(val, "%g", p); return err }
		var err error
		switch key {
		case "components":
			err = setInt(&k.Components)
		case "maxstates":
			err = setInt(&k.MaxStates)
		case "servicestates":
			err = setInt(&k.ServiceStates)
		case "serviceevents":
			err = setInt(&k.ServiceEvents)
		case "linkevents":
			err = setInt(&k.LinkEvents)
		case "converterevents":
			err = setInt(&k.ConverterEvents)
		case "taudepth":
			err = setInt(&k.TauDepth)
		case "acceptwidth":
			err = setInt(&k.AcceptWidth)
		case "taubias":
			err = setF(&k.TauBias)
		case "extradensity":
			err = setF(&k.ExtraDensity)
		case "wedgebias":
			err = setF(&k.WedgeBias)
		case "plantbias":
			err = setF(&k.PlantBias)
		default:
			return k, fmt.Errorf("protosmith: unknown knob %q", key)
		}
		if err != nil {
			return k, fmt.Errorf("protosmith: bad value for knob %q: %v", key, err)
		}
	}
	return k, nil
}

// System is one generated protocol-conversion problem: a service
// specification A (in normal form) and the component machines whose
// composition forms the quotient's environment B. The converter-facing
// alphabet Int is Σ_B − Σ_A, exactly as core.Derive infers it.
type System struct {
	// Seed reproduces the system: Generate(Seed, Knobs) rebuilds it.
	Seed int64
	// Knobs are the bounds the system was generated under.
	Knobs Knobs
	// Service is the quotient's service input A.
	Service *spec.Spec
	// Components compose (pairwise-scoped interfaces) into B.
	Components []*spec.Spec
}

// Validate checks the well-formedness invariants every generated (or
// shrunk) system must satisfy before it may be fed to the engines:
//
//	(1) the service is in normal form (a quotient precondition);
//	(2) no event is shared by three or more components (the composition
//	    precondition);
//	(3) every service event belongs to exactly one component — owned by
//	    none it would violate Σ_A ⊆ Σ_B, owned by two it would be hidden
//	    by composition and vanish from Σ_B;
//	(4) at least one component event is converter-facing (Int nonempty).
//
// A nil return means compose.Many, compose.LazyMany, oracle.Compose and
// core.Derive all accept the system.
func (sys *System) Validate() error {
	if sys.Service == nil {
		return fmt.Errorf("protosmith: system has no service")
	}
	if len(sys.Components) == 0 {
		return fmt.Errorf("protosmith: system has no components")
	}
	if err := sys.Service.IsNormalForm(); err != nil {
		return fmt.Errorf("protosmith: service: %w", err)
	}
	if err := compose.CheckPairwiseInterfaces(sys.Components...); err != nil {
		return fmt.Errorf("protosmith: %w", err)
	}
	owners := make(map[spec.Event]int)
	for _, c := range sys.Components {
		for _, e := range c.Alphabet() {
			owners[e]++
		}
	}
	for _, e := range sys.Service.Alphabet() {
		switch owners[e] {
		case 1:
		case 0:
			return fmt.Errorf("protosmith: service event %q owned by no component (Σ_A ⊄ Σ_B)", e)
		default:
			return fmt.Errorf("protosmith: service event %q shared by %d components, so composition hides it", e, owners[e])
		}
	}
	intl := 0
	for e, n := range owners {
		if n == 1 && !sys.Service.HasEvent(e) {
			intl++
		}
		_ = e
	}
	if intl == 0 {
		return fmt.Errorf("protosmith: no converter-facing events (Int = Σ_B − Σ_A is empty)")
	}
	return nil
}

// Interface returns (Ext, Int) for the system: the service alphabet and
// the converter-facing remainder of the composite alphabet, both sorted.
func (sys *System) Interface() (ext, intl []spec.Event) {
	ext = append(ext, sys.Service.Alphabet()...)
	shared := make(map[spec.Event]int)
	for _, c := range sys.Components {
		for _, e := range c.Alphabet() {
			shared[e]++
		}
	}
	for e, n := range shared {
		if n == 1 && !sys.Service.HasEvent(e) {
			intl = append(intl, e)
		}
	}
	sort.Slice(intl, func(i, j int) bool { return intl[i] < intl[j] })
	return ext, intl
}

// Size returns the summed state count over the service and all components
// plus the summed transition count — the measure the shrinker minimizes.
func (sys *System) Size() int {
	total := sys.Service.NumStates() + sys.Service.NumExternalTransitions() + sys.Service.NumInternalTransitions() + len(sys.Service.Alphabet())
	for _, c := range sys.Components {
		total += c.NumStates() + c.NumExternalTransitions() + c.NumInternalTransitions() + len(c.Alphabet())
	}
	return total
}

// Specs returns service-first spec list (the fixture file order).
func (sys *System) Specs() []*spec.Spec {
	out := make([]*spec.Spec, 0, 1+len(sys.Components))
	out = append(out, sys.Service)
	return append(out, sys.Components...)
}

// String summarizes the system in one line.
func (sys *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system seed=%d service=%d states, comps=[", sys.Seed, sys.Service.NumStates())
	for i, c := range sys.Components {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d", c.NumStates())
	}
	ext, intl := sys.Interface()
	fmt.Fprintf(&b, "] |Ext|=%d |Int|=%d", len(ext), len(intl))
	return b.String()
}
