// Package core implements the quotient algorithm of Calvert & Lam,
// "Deriving a Protocol Converter: A Top-Down Method" (SIGCOMM 1989, §4) —
// the paper's primary contribution.
//
// Given a service specification A over alphabet Ext (in normal form) and a
// component specification B over Int ∪ Ext (in the protocol-conversion
// reading, B is the composition of the mismatched protocol halves and their
// channels, Int the converter-facing events, Ext the user-facing events),
// the algorithm produces a converter C over Int such that B‖C satisfies A,
// or reports that no such C exists. The derived converter is maximal: every
// trace of any correct converter is a trace of C.
//
// The derivation runs in two phases, mirroring the paper's Figures 5 and 6:
//
//  1. Safety phase. Converter states are sets of (a, b) pairs — the h.r
//     sets of the paper — encoding where A and B may be after any trace
//     whose Int-projection reached that state. Starting from h.ε, the
//     successor function φ(J, e) and the predicate ok.J grow the largest
//     converter C0 that keeps B‖C0 inside A's trace set.
//  2. Progress phase. States of C0 from which B‖C could stabilize on a
//     configuration whose ready set covers none of A's permitted acceptance
//     sets are "bad" and removed; removal changes reachability, so the
//     phase iterates to a fixpoint. If the initial state is removed, no
//     converter exists (Theorem 2).
//
// # Engine architecture
//
// The safety phase is exponential in the worst case and the quotient
// problem PSPACE-hard (paper §7), so the engine is built for the large
// instances:
//
//   - Pair sets are interned sparse sets over the V × S_A × S_B domain
//     (intern.go): one canonical ID per distinct set, and the ID doubles as
//     the converter state index. Set operations cost O(set size), not
//     O(domain), and the domain need not be known up front.
//   - Frontier expansion is level-synchronous and optionally parallel
//     (parallel.go): Options.Workers goroutines compute φ(J, e) for the
//     whole frontier, and a single-threaded merge interns the results in
//     frontier order, so the derived converter — state numbering included —
//     is bit-identical for every worker count.
//   - B is read through one integer-row surface (demandEnvironment). A
//     demand-driven environment (*compose.Lazy) is one already: the safety
//     phase's closure walk is what first expands each composite state of B,
//     so derivation cost tracks the reachable slice of the product rather
//     than its full size, and Metrics.EnvStatesExpanded reports the slice.
//     Any other environment (a *spec.Spec, say) is wrapped in an adapter
//     that compiles its rows once, so the engine has one way to read B.
//   - The progress phase is incremental and sequential (progress.go):
//     after a sweep removes bad states, only converter states that can
//     reach a removed state (predecessors under T_C) can see their
//     composite ready sets change, so only those are re-examined.
//   - Derivations are cancellable (DeriveContext) and observable
//     (Options.Trace, Result.Stats.Metrics).
package core

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// Environment is the read-side surface the deriver needs from B. Both
// *spec.Spec and *compose.Lazy satisfy it, so a composed environment can be
// fed to the engine straight from the fused index-space composition,
// without materializing composite state names. The deriver reads every
// environment as integer rows (demandEnvironment), wrapping one that does
// not serve them itself; StateName is consulted only on diagnostic paths
// (pair-set naming, error messages).
//
// ExtEdges must be sorted by (Event, To) and IntEdges ascending — the
// orders *spec.Spec guarantees — because frontier expansion and the
// progress phase's combo enumeration inherit determinism from them.
type Environment interface {
	Name() string
	NumStates() int
	Init() spec.State
	Alphabet() []spec.Event
	HasEvent(e spec.Event) bool
	ExtEdges(st spec.State) []spec.ExtEdge
	IntEdges(st spec.State) []spec.State
	StateName(st spec.State) string
}

// demandEnvironment is the one row surface the deriver reads B through:
// integer-id edge rows (events as ids into Alphabet()), a peek that never
// expands, and expansion accounting. *compose.Lazy implements it natively,
// expanding a composite state on its first Rows call — which fuses product
// exploration into the safety phase. Every other environment is served by
// compiledEnv.
type demandEnvironment interface {
	Environment
	Rows(st spec.State) ([]compose.Edge, []int32)
	PeekRows(st spec.State) ([]compose.Edge, []int32, bool)
	ExpansionStats() (expanded, discovered int, ns int64)
}

// compiledEnv serves an environment that does not produce integer rows
// itself — a *spec.Spec, a minimized spec, any other Environment — through
// demandEnvironment. Its rows are compiled once, with the environment's own
// state ids, so every state counts as expanded from the start. State st's
// rows are ext[extOff[st]:extOff[st+1]] and intl[intOff[st]:intOff[st+1]]:
// one array per kind, so a row read touches two offsets and contiguous
// edges rather than two slice headers and two separate allocations.
type compiledEnv struct {
	Environment
	extOff, intOff []int32
	ext            []bedge
	intl           []int32
}

// asDemand returns b's row surface: b itself when it serves rows, else a
// compiledEnv over it.
func asDemand(b Environment) demandEnvironment {
	if de, ok := b.(demandEnvironment); ok {
		return de
	}
	return compileRows(b)
}

func (e *compiledEnv) Rows(st spec.State) ([]bedge, []int32) {
	return e.ext[e.extOff[st]:e.extOff[st+1]], e.intl[e.intOff[st]:e.intOff[st+1]]
}

func (e *compiledEnv) PeekRows(st spec.State) ([]bedge, []int32, bool) {
	ext, intl := e.Rows(st)
	return ext, intl, true
}

func (e *compiledEnv) ExpansionStats() (expanded, discovered int, ns int64) {
	return len(e.extOff) - 1, len(e.extOff) - 1, 0
}

// compileRows copies an environment's transition structure into dense
// rows: external edges with events resolved to ids into its alphabet, and
// internal successors.
func compileRows(b Environment) *compiledEnv {
	eid := make(map[spec.Event]int32, len(b.Alphabet()))
	for i, e := range b.Alphabet() {
		eid[e] = int32(i)
	}
	n := b.NumStates()
	e := &compiledEnv{Environment: b, extOff: make([]int32, n+1), intOff: make([]int32, n+1)}
	for st := 0; st < n; st++ {
		for _, ed := range b.ExtEdges(spec.State(st)) {
			e.ext = append(e.ext, bedge{Ev: eid[ed.Event], To: int32(ed.To)})
		}
		for _, t := range b.IntEdges(spec.State(st)) {
			e.intl = append(e.intl, int32(t))
		}
		e.extOff[st+1], e.intOff[st+1] = int32(len(e.ext)), int32(len(e.intl))
	}
	return e
}

// Options tune the derivation. The zero value is the recommended default.
type Options struct {
	// OmitVacuous drops converter states whose pair set is empty. An empty
	// pair set means no behavior of B can accompany the converter there —
	// any trace B cannot match is trivially safe — so the paper's maximal
	// converter contains a single absorbing "vacuous" state with self-loops
	// on every Int event. By default it is kept, preserving the maximality
	// property of Theorem 1(ii) exactly; set OmitVacuous for a converter
	// containing only states that B can actually drive.
	OmitVacuous bool
	// MaxStates aborts the safety phase if the converter exceeds this many
	// states; 0 means unlimited. The quotient problem is PSPACE-hard and
	// the safety phase exponential in the worst case (paper §7), so
	// callers deriving from untrusted inputs should set a bound.
	MaxStates int
	// SafetyOnly stops after the safety phase and returns C0 — the largest
	// converter correct with respect to safety alone (the paper's
	// Figure 12 artifact). The result may violate progress; Exists then
	// means only "a safety converter exists".
	SafetyOnly bool
	// MinimizeComponents pre-reduces the environment before derivation:
	// each component of a composed environment (and a plain *spec.Spec
	// environment as a whole) is replaced by its strong-bisimulation
	// minimization (spec.Minimize). Minimization is a congruence for
	// composition and preserves both satisfaction properties, so the
	// derived converter accepts the same language — but its state
	// numbering and pair-set diagnostics reflect the reduced environment,
	// so the output is equivalent, not bit-identical, to the unreduced
	// derivation. Environments that are neither *spec.Spec nor
	// *compose.Lazy are left untouched.
	MinimizeComponents bool
	// Workers is the number of goroutines expanding each safety-phase
	// frontier; 0 and 1 both mean single-threaded. The expansion is
	// level-synchronous with a deterministic merge, so the result is
	// bit-identical (state numbering included) for every worker count. The
	// progress phase runs on one goroutine at every worker count.
	Workers int
	// Trace, when non-nil, receives structured derivation events: frontier
	// levels during the safety phase, per-state removals and sweep
	// summaries during the progress phase. Events carrying a non-empty
	// Detail are the per-phase summaries; see TraceEvent. LogAdapter turns
	// the summaries into a line-oriented narration.
	Trace func(TraceEvent)
}

// Result is the outcome of a derivation.
type Result struct {
	// Converter is the derived maximal converter over Int, trimmed to
	// reachable states. It is nil iff Exists is false.
	Converter *spec.Spec
	// Exists reports whether a converter exists for the inputs.
	Exists bool
	// Stats describes the work performed.
	Stats Stats
	// pairSets maps each converter state name to its f.c pair set, in
	// (A-state, B-state) name pairs — diagnostic information, built on
	// first PairSet call by pairFn.
	pairSets map[string][][2]string
	pairFn   func() map[string][][2]string
}

// Stats records derivation effort, used by the benchmark harness to
// reproduce the paper's complexity observations (§7).
type Stats struct {
	// SafetyStates is |S_C0|: converter states after the safety phase.
	SafetyStates int
	// SafetyTransitions is |T_C0|.
	SafetyTransitions int
	// PairSetTotal is the summed cardinality of all f.c sets.
	PairSetTotal int
	// ProgressIterations counts progress-phase sweeps (≥1 when the
	// safety phase produced anything).
	ProgressIterations int
	// RemovedStates counts states deleted as bad across all iterations.
	RemovedStates int
	// FinalStates / FinalTransitions describe the returned converter.
	FinalStates      int
	FinalTransitions int
	// Metrics is the engine-level observability layer: per-phase wall
	// times, interning hit rate, frontier shape, worker count.
	Metrics Metrics
}

// PairSet returns the f.c pair set of a converter state (by state name) as
// (A-state, B-state) name pairs sorted by name, or nil if unknown. Useful
// for diagnosing why a state was kept or removed. The pair-set tables are
// materialized on the first call (state naming is pure overhead on the
// derivation hot path); PairSet is not safe for concurrent first use.
func (r *Result) PairSet(stateName string) [][2]string {
	if r.pairSets == nil && r.pairFn != nil {
		r.pairSets = r.pairFn()
		r.pairFn = nil
	}
	return r.pairSets[stateName]
}

// NoQuotientError reports that no converter exists, with the reason.
// It implements the protoquot.Diagnostic interface alongside
// sat.Violation.
type NoQuotientError struct {
	Reason string
	// FailedPhase is the phase that proved nonexistence: "safety" when
	// ok(h.ε) already fails, "progress" when the progress phase removed
	// the initial state.
	FailedPhase string
	// WitnessTrace is a witness for the failure when one is available. For
	// a safety failure it is a shortest external trace B can drive without
	// any converter action, ending with the event the service forbids. For
	// a progress failure it is an external trace leading h.ε to a blamed
	// composite configuration — one whose ready sets cannot cover any of
	// the service's acceptance sets no matter what the converter offers
	// (the progress phase proved the violation unavoidable from there;
	// Theorem 2). It may still be empty when no single-trace witness
	// exists.
	WitnessTrace []spec.Event
}

func (e *NoQuotientError) Error() string {
	return "quotient: no converter exists: " + e.Reason
}

// Phase returns the phase that proved nonexistence ("safety" or
// "progress").
func (e *NoQuotientError) Phase() string { return e.FailedPhase }

// Witness returns the witness trace, if any (see WitnessTrace).
func (e *NoQuotientError) Witness() []spec.Event { return e.WitnessTrace }

// bedge is an external transition of an environment with its event resolved
// to a dense index into the Σ_B alphabet — exactly compose.Edge, so rows
// from a demand-driven composite flow into the hot loops with no
// per-edge conversion.
type bedge = compose.Edge

// deriver carries the immutable inputs and the precomputed dense tables of
// one run. Everything set up by prepare is read-only during the safety
// phase, so expansion workers share it freely; the intern table is written
// only on the single-threaded merge path. (A demand-driven environment may
// expand composite states concurrently under Rows; that mutation is owned
// and synchronized by compose.Lazy.)
type deriver struct {
	ctx     context.Context
	a       *spec.Spec
	bs      []Environment       // environment variants; len 1 for plain Derive
	envs    []demandEnvironment // bs[v]'s row surface
	ext     map[spec.Event]bool // Ext = Σ_A
	intl    []spec.Event        // Int = Σ_B − Ext, sorted
	opts    Options
	workers int

	// Dense tables over Σ_B and the pair domain.
	pairDomain
	events    []spec.Event // Σ_B, sorted
	isExt     []bool       // by event id: e ∈ Ext
	intlIndex []int32      // by event id: position in intl, or -1
	psi       []int32      // ψ-step table, numA×nev flat; -1 = not allowed
	nev       int
	// The closure's masks give each packed-b state W = 1<<awShift A-words:
	// ⌈numA/64⌉ rounded up to a power of two, so a mask key splits by shift.
	// badA[e*aw+w] is the mask of word w's A-states where ψ(·, e) is
	// undefined: reaching one of those with an external B-edge on e is an
	// ok.J violation.
	aw      int
	awShift uint
	badA    []uint64

	table     *internTable
	succArena *int32Arena
	states    []cstate
	alive     []bool // per converter state: not removed by the progress phase
	met       *Metrics
	prog      *progTables // progress-phase memo tables; nil outside that phase

	// The safety phase's working set, nil once it ends (releaseSafety).
	scratches []*scratch // persistent per-worker arenas
}

// pairDomain is the layout of the (variant, a, b) pair domain. A pair is
// encoded pb-major as (boff[v]+b)*numA + a: packed-b-major order makes
// ascending pair order agree with the progress phase's combo tables, and
// leaves the domain open-ended in the last variant's b — a demand-driven
// environment, always the only variant, keeps discovering states while the
// derivation runs.
type pairDomain struct {
	boff []int32 // packed-b offset per variant: prefix sums of NumStates
	numA int
}

// cState is a converter state under construction. Its pair set is
// table.get(its index): interned set IDs and state indices coincide because
// the safety phase creates exactly one state per distinct pair set.
type cstate struct {
	succ []int32 // by intl position; -1 = no transition; nil until expanded
}

// stateName is converter state i's name.
func stateName(i int32) string { return fmt.Sprintf("c%d", i) }

// Derive computes the quotient of A by B. A must be in normal form with
// Σ_A ⊆ Σ_B; Int is inferred as Σ_B − Σ_A. On success the Result carries
// the maximal converter; if no converter exists, Result.Exists is false and
// the error is a *NoQuotientError. Precondition failures return ordinary
// errors.
func Derive(a, b *spec.Spec, opts Options) (*Result, error) {
	return DeriveRobustContext(context.Background(), a, []*spec.Spec{b}, opts)
}

// DeriveContext is Derive with cancellation: ctx is checked once per
// safety-phase frontier level and once per progress-phase sweep, and a
// canceled derivation returns an error wrapping ctx.Err().
func DeriveContext(ctx context.Context, a, b *spec.Spec, opts Options) (*Result, error) {
	return DeriveRobustContext(ctx, a, []*spec.Spec{b}, opts)
}

// DeriveRobust computes a converter that is simultaneously correct for
// every environment variant: for each B_i in bs, B_i‖C satisfies A. All
// variants must share one alphabet.
//
// This generalization addresses a deployment subtlety the package tests
// document: under the paper's fairness assumption, message loss is an
// internal transition that eventually occurs, so the maximal converter may
// contain recovery paths that rely on loss. A converter derived against
// both the lossy environment and its loss-free variant contains only
// behavior that works whether or not losses happen. With a single variant
// DeriveRobust is exactly the paper's algorithm.
//
// The construction runs the two phases on sets of (variant, a, b) triples:
// a trace is safe iff safe in every variant, and a converter state is bad
// if a progress violation is possible in any variant. Maximality holds per
// variant, so the result has the largest trace set among robust converters.
func DeriveRobust(a *spec.Spec, bs []*spec.Spec, opts Options) (*Result, error) {
	return DeriveRobustContext(context.Background(), a, bs, opts)
}

// DeriveRobustContext is DeriveRobust with cancellation; see DeriveContext.
func DeriveRobustContext(ctx context.Context, a *spec.Spec, bs []*spec.Spec, opts Options) (*Result, error) {
	envs := make([]Environment, len(bs))
	for i, b := range bs {
		envs[i] = b
	}
	return DeriveEnvsContext(ctx, a, envs, opts)
}

// DeriveEnv is Derive over any Environment — most usefully a
// *compose.Lazy, whose product exploration the safety phase then drives,
// with no *spec.Spec materialization in between.
func DeriveEnv(a *spec.Spec, b Environment, opts Options) (*Result, error) {
	return DeriveEnvsContext(context.Background(), a, []Environment{b}, opts)
}

// DeriveEnvContext is DeriveEnv with cancellation; see DeriveContext.
func DeriveEnvContext(ctx context.Context, a *spec.Spec, b Environment, opts Options) (*Result, error) {
	return DeriveEnvsContext(ctx, a, []Environment{b}, opts)
}

// DeriveEnvsContext is the most general entry point: DeriveRobust semantics
// over arbitrary Environment variants, with cancellation. Every other
// Derive* function funnels here.
func DeriveEnvsContext(ctx context.Context, a *spec.Spec, bs []Environment, opts Options) (*Result, error) {
	d, err := newDeriver(ctx, a, bs, opts)
	if err != nil {
		return nil, err
	}
	return d.run()
}

// newDeriver checks the derivation's preconditions and builds a deriver
// with its dense tables prepared.
func newDeriver(ctx context.Context, a *spec.Spec, bs []Environment, opts Options) (*deriver, error) {
	if err := a.IsNormalForm(); err != nil {
		return nil, fmt.Errorf("quotient: service spec: %w", err)
	}
	if len(bs) == 0 {
		return nil, fmt.Errorf("quotient: no environment specification")
	}
	for _, b := range bs[1:] {
		if !sameAlphabet(bs[0], b) {
			return nil, fmt.Errorf("quotient: environment variants %s and %s have different alphabets",
				bs[0].Name(), b.Name())
		}
	}
	if opts.MinimizeComponents {
		reduced := make([]Environment, len(bs))
		for i, b := range bs {
			reduced[i] = minimizeEnv(b)
		}
		bs = reduced
	}
	envs := make([]demandEnvironment, len(bs))
	for v, b := range bs {
		if _, ok := b.(demandEnvironment); ok && len(bs) > 1 {
			// The pair encoding needs every variant's state count up front; a
			// demand-driven variant discovers its states during derivation,
			// so it must be the only one.
			return nil, fmt.Errorf("quotient: demand-driven environment %s cannot be combined with other variants", b.Name())
		}
		envs[v] = asDemand(b)
	}
	ext := make(map[spec.Event]bool, len(a.Alphabet()))
	for _, e := range a.Alphabet() {
		if !bs[0].HasEvent(e) {
			return nil, fmt.Errorf("quotient: service event %q not in Σ_B; Ext must be a subset of B's interface", e)
		}
		ext[e] = true
	}
	var intl []spec.Event
	for _, e := range bs[0].Alphabet() {
		if !ext[e] {
			intl = append(intl, e)
		}
	}
	if len(intl) == 0 {
		return nil, fmt.Errorf("quotient: Int = Σ_B − Ext is empty; B leaves no interface for a converter")
	}
	d := &deriver{ctx: ctx, a: a, bs: bs, envs: envs, ext: ext, intl: intl, opts: opts}
	d.workers = opts.Workers
	if d.workers < 1 {
		d.workers = 1
	}
	d.prepare()
	return d, nil
}

// minimizeEnv pre-reduces one environment for Options.MinimizeComponents:
// a plain spec is minimized directly; a composed environment is rebuilt
// from its minimized components (compose.MinimizeComponents — minimization
// is a congruence for composition). Unknown environment types pass through
// unchanged.
func minimizeEnv(b Environment) Environment {
	switch e := b.(type) {
	case *spec.Spec:
		return e.Minimize()
	case *compose.Lazy:
		// The components built this composite once already, so re-composing
		// the minimized list cannot fail.
		if x, err := compose.LazyMany(compose.MinimizeComponents(e.Components()...)...); err == nil {
			return x
		}
	}
	return b
}

func sameAlphabet(x, y Environment) bool {
	ax, ay := x.Alphabet(), y.Alphabet()
	if len(ax) != len(ay) {
		return false
	}
	for i := range ax {
		if ax[i] != ay[i] {
			return false
		}
	}
	return true
}

// emit delivers one trace event when tracing is enabled.
func (d *deriver) emit(ev TraceEvent) {
	if d.opts.Trace != nil {
		d.opts.Trace(ev)
	}
}

// prepare builds the dense lookup tables the hot loops run on: event ids
// over Σ_B, the ψ-step table of A, and the pair-domain layout.
func (d *deriver) prepare() {
	d.events = d.bs[0].Alphabet()
	d.nev = len(d.events)
	eid := make(map[spec.Event]int32, d.nev)
	d.isExt = make([]bool, d.nev)
	d.intlIndex = make([]int32, d.nev)
	for i, e := range d.events {
		eid[e] = int32(i)
		d.isExt[i] = d.ext[e]
		d.intlIndex[i] = -1
	}
	for i, e := range d.intl {
		d.intlIndex[eid[e]] = int32(i)
	}

	d.numA = d.a.NumStates()
	d.psi = make([]int32, d.numA*d.nev)
	for a := 0; a < d.numA; a++ {
		for ei := 0; ei < d.nev; ei++ {
			d.psi[a*d.nev+ei] = -1
			if !d.isExt[ei] {
				continue
			}
			if a2, ok := d.a.PsiStep(spec.State(a), d.events[ei]); ok {
				d.psi[a*d.nev+ei] = int32(a2)
			}
		}
	}

	d.boff = make([]int32, len(d.envs))
	for v := 1; v < len(d.envs); v++ {
		d.boff[v] = d.boff[v-1] + int32(d.envs[v-1].NumStates())
	}

	d.awShift = uint(bits.Len(uint(d.numA-1) >> 6))
	d.aw = 1 << d.awShift
	d.badA = make([]uint64, d.nev*d.aw)
	for a := 0; a < d.numA; a++ {
		for ei := 0; ei < d.nev; ei++ {
			if d.isExt[ei] && d.psi[a*d.nev+ei] < 0 {
				d.badA[ei*d.aw+a>>6] |= 1 << uint(a&63)
			}
		}
	}
	d.table = newInternTable()
	d.succArena = newInt32Arena()
}

// encode maps a (variant, a, b) triple to its pair-domain index.
func (pd pairDomain) encode(v int, a, b int32) int32 {
	return (pd.boff[v]+b)*int32(pd.numA) + a
}

// decode is the inverse of encode.
func (pd pairDomain) decode(p int32) (v int, a, b int32) {
	numA := int32(pd.numA)
	a = p % numA
	pb := p / numA
	v = pd.variantOf(pb)
	return v, a, pb - pd.boff[v]
}

// variantOf recovers the variant index from a packed-b id.
func (pd pairDomain) variantOf(pb int32) int {
	v := len(pd.boff) - 1
	for pd.boff[v] > pb {
		v--
	}
	return v
}

// packedStates is the size of the packed-b domain so far: every variant's
// states, the last one's as discovered up to now.
func (d *deriver) packedStates() int {
	last := len(d.envs) - 1
	return int(d.boff[last]) + d.envs[last].NumStates()
}

func (d *deriver) run() (*Result, error) {
	res := &Result{}
	d.met = &res.Stats.Metrics
	d.met.Workers = d.workers

	// ---- Safety phase (paper Fig. 5) ----
	t0 := time.Now()
	err := d.safetyPhase()
	d.met.SafetyWall = time.Since(t0)
	d.fillSafetyMetrics()
	d.fillEnvMetrics()
	d.releaseSafety()
	if err != nil {
		if nq, ok := err.(*NoQuotientError); ok {
			return res, nq
		}
		return nil, err
	}
	res.Stats.SafetyStates = len(d.states)
	for i := range d.states {
		for _, t := range d.states[i].succ {
			if t >= 0 {
				res.Stats.SafetyTransitions++
			}
		}
		res.Stats.PairSetTotal += d.table.get(int32(i)).count()
	}
	d.emit(TraceEvent{
		Phase:       "safety",
		States:      res.Stats.SafetyStates,
		Transitions: res.Stats.SafetyTransitions,
		Pairs:       res.Stats.PairSetTotal,
		Detail: fmt.Sprintf("safety phase: %d states, %d transitions, %d tracked (a,b) pairs",
			res.Stats.SafetyStates, res.Stats.SafetyTransitions, res.Stats.PairSetTotal),
	})

	// ---- Progress phase (paper Fig. 6) ----
	alive := make([]bool, len(d.states))
	for i := range alive {
		alive[i] = true
	}
	d.alive = alive
	if !d.opts.SafetyOnly {
		t1 := time.Now()
		err = d.progressPhase(res, alive)
		d.met.ProgressWall = time.Since(t1)
		d.prog = nil // emission reads only the states and alive
		if err != nil {
			if nq, ok := err.(*NoQuotientError); ok {
				return res, nq
			}
			return nil, err
		}
	}

	// ---- Emit the converter spec ----
	c, err := d.emitConverter()
	if err != nil {
		return nil, fmt.Errorf("quotient: building converter: %w", err)
	}
	res.Converter = c
	res.Exists = true
	res.Stats.FinalStates = c.NumStates()
	res.Stats.FinalTransitions = c.NumExternalTransitions()
	res.pairFn = pairSetNamer(d.a, d.bs, d.pairDomain, d.table.sets, alive)
	d.fillEnvMetrics()
	return res, nil
}

// pairSetNamer returns Result.PairSet's table builder. It captures only what
// naming needs — the service, the variants, the pair layout and the live
// states' pair sets — so a Result does not keep the deriver and its
// progress store reachable.
func pairSetNamer(a *spec.Spec, bs []Environment, pd pairDomain, sets []pairset, alive []bool) func() map[string][][2]string {
	return func() map[string][][2]string {
		out := make(map[string][][2]string, len(sets))
		for ci, set := range sets {
			if !alive[ci] {
				continue
			}
			pairs := make([][2]string, 0, set.count())
			set.forEach(func(p int32) {
				v, sa, sb := pd.decode(p)
				bName := bs[v].StateName(spec.State(sb))
				if len(bs) > 1 {
					bName = fmt.Sprintf("%s@%d", bName, v)
				}
				pairs = append(pairs, [2]string{a.StateName(spec.State(sa)), bName})
			})
			// Sort by name so the diagnostic is stable even when b-state
			// ids are demand-order (scheduling-dependent under a parallel
			// demand-driven derivation).
			sort.Slice(pairs, func(i, j int) bool {
				if pairs[i][0] != pairs[j][0] {
					return pairs[i][0] < pairs[j][0]
				}
				return pairs[i][1] < pairs[j][1]
			})
			out[stateName(int32(ci))] = pairs
		}
		return out
	}
}

// converterName is the name of the emitted converter spec.
func (d *deriver) converterName() string {
	return fmt.Sprintf("C(%s/%s)", d.a.Name(), d.bs[0].Name())
}

// emitConverter builds the converter — the live states reachable from state
// 0 — straight from the integer safety graph, with one spec.FromDense call.
// It numbers the states exactly as spec.Builder followed by Spec.Trim would
// (DESIGN.md §12, "Dense emission"), so the emitted text is the same:
//
//  1. Builder order: state 0 (the Init call), then each live state in index
//     order, each followed by its live successors; a state keeps the place
//     of its first mention.
//  2. Trim order: walking the states in Builder order, each state reachable
//     from state 0 is mentioned, then its successors in event order. Trim
//     visits edges sorted by event name; d.intl is sorted (Environment
//     alphabets are) and a converter has one edge per event, so succ's
//     index order is that order.
func (d *deriver) emitConverter() (*spec.Spec, error) {
	alive := d.alive
	n := len(d.states)
	// id[ci] is ci's place in order, or -1 before its first mention.
	id := make([]int32, n)
	var order []int32
	restart := func(capacity int) {
		for i := range id {
			id[i] = -1
		}
		order = make([]int32, 0, capacity)
	}
	mention := func(ci int32) {
		if id[ci] < 0 {
			id[ci] = int32(len(order))
			order = append(order, ci)
		}
	}

	restart(n)
	mention(0)
	for ci := int32(0); ci < int32(n); ci++ {
		if !alive[ci] {
			continue
		}
		mention(ci)
		for _, t := range d.states[ci].succ {
			if t >= 0 && alive[t] {
				mention(t)
			}
		}
	}
	built := order

	reach := make([]bool, n)
	reach[0] = true
	stack := []int32{0}
	for len(stack) > 0 {
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range d.states[ci].succ {
			if t >= 0 && alive[t] && !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}

	restart(len(built))
	nedges := 0
	for _, ci := range built {
		if !reach[ci] {
			continue
		}
		mention(ci)
		for _, t := range d.states[ci].succ {
			if t >= 0 && alive[t] {
				mention(t)
				nedges++
			}
		}
	}
	final := order

	names := make([]string, len(final))
	ext := make([][]spec.ExtEdge, len(final))
	edges := make([]spec.ExtEdge, 0, nedges)
	for i, ci := range final {
		names[i] = stateName(ci)
		start := len(edges)
		for ei, t := range d.states[ci].succ {
			if t >= 0 && alive[t] {
				edges = append(edges, spec.ExtEdge{Event: d.intl[ei], To: spec.State(id[t])})
			}
		}
		ext[i] = edges[start:]
	}
	return spec.FromDense(spec.Dense{
		Name:       d.converterName(),
		StateNames: names,
		Init:       0,
		Alphabet:   d.intl,
		Ext:        ext,
	})
}

// fillSafetyMetrics records the safety phase's interning and arena
// accounting. PairArenaBytes covers the storage that persists for the
// derivation — the intern arena and the successor rows — and deliberately
// excludes the per-worker scratch arenas, which are transient (reset every
// merge batch) and whose footprint would vary with the worker count while
// this figure is deterministic for a given input.
func (d *deriver) fillSafetyMetrics() {
	d.met.InternLookups, d.met.InternHits = d.table.lookups, d.table.hits
	d.met.PairArenaBytes = d.table.arena.reserved + d.succArena.reserved
}

// releaseSafety drops the safety phase's working sets once
// fillSafetyMetrics has read their counters: the per-worker scratches and
// the intern table's hash index. The pair sets stay, in the intern arena
// the table's directory points into; the progress phase and PairSet read
// them.
func (d *deriver) releaseSafety() {
	d.scratches = nil
	d.table.dropIndex()
}

// fillEnvMetrics records how much of the environment the derivation
// touched, summed over the variants. A demand-driven environment reports
// its reachable slice (expanded « total possible when the derivation is
// selective); a compiled one was whole before derivation began, so
// expanded = total = its state count, with no expansion time attributed to
// the derivation. Row storage is reported by environments that keep it.
func (d *deriver) fillEnvMetrics() {
	m := d.met
	m.EnvStatesExpanded, m.EnvStatesTotal, m.EnvExpansionNs = 0, 0, 0
	m.ArenaBytes, m.PeakRowBytes, m.RowRecordBytes, m.InternBytes = 0, 0, 0, 0
	for _, e := range d.envs {
		expanded, discovered, ns := e.ExpansionStats()
		m.EnvStatesExpanded += expanded
		m.EnvStatesTotal += discovered
		m.EnvExpansionNs += ns
		if ms, ok := e.(interface{ MemStats() compose.MemStats }); ok {
			st := ms.MemStats()
			m.ArenaBytes += st.Arena
			m.PeakRowBytes = max(m.PeakRowBytes, st.PeakRow)
			m.RowRecordBytes += st.Records
			m.InternBytes += st.Intern
		}
	}
}

// safetyPhase grows the largest safe converter C0 by level-synchronous
// frontier expansion. Each level is processed in merge batches of
// safetyMergeBatch states: a batch's φ results are computed (in parallel
// when Options.Workers > 1), then interned in frontier order by mergeBatch —
// which reproduces exactly the state numbering of a plain worklist run, so
// the converter is bit-identical at every worker count and batch size.
// Batching also bounds the MaxStates overshoot: the cap is checked after
// every batch, so a single huge frontier level can no longer run
// arbitrarily far past the configured limit before the abort fires.
func (d *deriver) safetyPhase() error {
	sc0 := d.getScratch(0)
	h0, ok := d.closure(sc0, d.initSeeds())
	if !ok {
		// The closure aborted at the first violation; the witness search
		// re-walks the same ball breadth-first for a shortest offending run.
		return &NoQuotientError{
			Reason:       "ok(h.ε) fails: B can emit an external event the service forbids before any converter action",
			FailedPhase:  "safety",
			WitnessTrace: d.witness(-1),
		}
	}
	d.table.intern(h0, h0.hash()) // ID 0 = initial state
	sc0.arena.reset()             // h0 now lives in the intern arena
	d.states = append(d.states, cstate{})

	ne := len(d.intl)
	batch := safetyMergeBatch
	if batch < 1 {
		batch = 1
	}
	// results grows by doubling to the largest batch the frontier has needed,
	// so a small derivation never pays for a full batch × |Int| block;
	// expandState overwrites every field, so growing copies nothing.
	var results []phiResult
	lo, hi := 0, 1
	for level := 0; lo < hi; level++ {
		if err := d.ctx.Err(); err != nil {
			return fmt.Errorf("quotient: safety phase canceled at frontier level %d (%d states): %w",
				level, len(d.states), err)
		}
		frontier := hi - lo
		if frontier > d.met.PeakFrontier {
			d.met.PeakFrontier = frontier
		}
		d.met.SafetyLevels = level + 1
		d.emit(TraceEvent{Phase: "safety", Level: level, Frontier: frontier, States: len(d.states)})
		for blo := lo; blo < hi; blo += batch {
			bhi := min(blo+batch, hi)
			if need := (bhi - blo) * ne; need > len(results) {
				results = make([]phiResult, min(max(need, 2*len(results)), batch*ne))
			}
			res := results[:(bhi-blo)*ne]
			d.expandBatch(blo, bhi, res)
			d.mergeBatch(blo, bhi, res)
			for _, sc := range d.scratches {
				sc.arena.reset() // surviving sets were copied into intern storage
			}
			if d.opts.MaxStates > 0 && len(d.states) > d.opts.MaxStates {
				return fmt.Errorf("quotient: safety phase exceeded MaxStates=%d (aborted at %d states)",
					d.opts.MaxStates, len(d.states))
			}
		}
		lo, hi = hi, len(d.states)
	}
	return nil
}

// initSeeds returns h.ε's seed pairs: the initial pair of every variant.
func (d *deriver) initSeeds() []int32 {
	seeds := make([]int32, len(d.bs))
	for v, b := range d.bs {
		seeds[v] = d.encode(v, int32(d.a.Init()), int32(b.Init()))
	}
	return seeds
}

// mergeBatch interns one batch of φ results in a single sequential walk in
// frontier (state, Int-event) order: each set gets the next canonical ID at
// its first occurrence, which is precisely the discovery order of the
// sequential worklist engine, so the numbering — and everything downstream
// of it — is independent of the worker count.
func (d *deriver) mergeBatch(lo, hi int, results []phiResult) {
	ne := len(d.intl)
	omit := d.opts.OmitVacuous
	i := 0
	for si := lo; si < hi; si++ {
		succ := d.succArena.alloc(ne)
		for ei := 0; ei < ne; ei++ {
			r := &results[i]
			i++
			succ[ei] = -1
			if !r.ok {
				continue // ok.J fails: omit the transition (and the state)
			}
			if r.set == nil && omit {
				continue // vacuously safe: no trace of B matches
			}
			// A nil set is the vacuous successor, kept: the empty set.
			id, hit := d.table.intern(r.set, r.hash)
			if !hit {
				d.states = append(d.states, cstate{})
			}
			succ[ei] = id
		}
		d.states[si].succ = succ
		d.met.StatesExpanded++
	}
}

// Verify checks end to end that B‖C satisfies A, using the composition
// operator and the satisfaction checker. It is the library's independent
// oracle for derivation correctness (paper Theorems 1 and 2 imply it always
// holds for converters returned by Derive).
func Verify(a, b, c *spec.Spec) error {
	bc, err := compose.Many(b, c)
	if err != nil {
		return err
	}
	if !sat.SameInterface(bc, a) {
		return fmt.Errorf("quotient: B‖C has interface %v, service has %v", bc.Alphabet(), a.Alphabet())
	}
	return sat.Satisfies(bc, a)
}

// VerifyRobust checks B_i‖C satisfies A for every environment variant.
func VerifyRobust(a *spec.Spec, bs []*spec.Spec, c *spec.Spec) error {
	for _, b := range bs {
		if err := Verify(a, b, c); err != nil {
			return fmt.Errorf("variant %s: %w", b.Name(), err)
		}
	}
	return nil
}
