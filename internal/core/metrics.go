package core

import (
	"fmt"
	"io"
	"time"
)

// Metrics is the engine observability layer, carried in Result.Stats. Where
// Stats describes the derived artifact (state and transition counts),
// Metrics describes the work the engine did producing it.
type Metrics struct {
	// Workers is the resolved worker count the safety phase ran with
	// (Options.Workers, floored at 1). The progress phase is sequential at
	// every worker count.
	Workers int
	// SafetyWall / ProgressWall are per-phase wall times.
	SafetyWall   time.Duration
	ProgressWall time.Duration
	// StatesExpanded counts converter states whose φ successors were
	// computed (equals SafetyStates on a completed safety phase).
	StatesExpanded int
	// SafetyLevels is the number of BFS frontier levels — the converter's
	// state-graph depth plus one.
	SafetyLevels int
	// PeakFrontier is the widest frontier level, an upper bound on how
	// much parallelism the expansion could exploit.
	PeakFrontier int
	// InternLookups / InternHits count pair-set interning operations: one
	// lookup per φ step whose closure satisfies ok.J (an omitted vacuous
	// successor is not looked up), and a hit means φ produced a set already
	// seen, i.e. an edge to an existing state rather than a new one.
	InternLookups int
	InternHits    int
	// ProgressScans counts converter states whose pairs a progress-phase
	// verdict scan tested: every live state in the first sweep, then, in
	// each later sweep, only the states one of whose ready masks changed
	// (a state whose masks all kept their value passed its last scan).
	ProgressScans int
	// The progress phase memoizes one ready mask per (packed b, converter
	// state) slot across sweeps. ReadySetRebuilds counts slot masks
	// computed: every slot in the first sweep, then, in each later sweep,
	// the slots of the removals' predecessor closure whose inputs changed
	// (a dropped converter transition, or a successor mask that changed in
	// the same sweep), each once however many fixpoint passes it took.
	// TauCacheHits counts the closure's other slots, kept from the memo
	// without recomputation, so hits + rebuilds = slots the sweeps
	// considered. TauInvalidated counts the recomputed slots of later
	// sweeps whose mask differs from the memoized one: the memo entries
	// the removals actually invalidated.
	TauCacheHits     int
	TauInvalidated   int
	ReadySetRebuilds int
	// EnvStatesExpanded / EnvStatesTotal describe how much of the
	// environment the derivation touched. Under a demand-driven environment
	// (*compose.Lazy), Expanded counts composite states whose successor
	// rows were computed and Total the states discovered (expanded plus the
	// frontier they revealed) — the reachable slice, versus the full
	// product an eager composition would have built. Any other environment
	// has its rows compiled whole before derivation, so both equal its
	// state count, summed over the variants.
	EnvStatesExpanded int
	EnvStatesTotal    int
	// EnvExpansionNs estimates the wall time, in nanoseconds, spent
	// expanding environment states on demand during the derivation: one
	// expansion in 64 is timed, and the sampled time is scaled by the
	// number expanded. Always 0 for environments that are not
	// demand-driven (their compose cost is paid before Derive).
	EnvExpansionNs int64
	// ArenaBytes / PeakRowBytes describe a demand-driven environment's row
	// storage: the bytes reserved by compose.Lazy's append-only row arenas,
	// and the largest single state's row footprint. RowRecordBytes is its
	// row-record pages (16 bytes per discovered state, in pages of 1,024),
	// and InternBytes its state identity: the key array and the intern
	// index. All four are 0 for other environments (their rows are compiled
	// before derivation).
	ArenaBytes     int64
	PeakRowBytes   int64
	RowRecordBytes int64
	InternBytes    int64
	// PairArenaBytes is the safety phase's arena-backed pair-set storage:
	// bytes reserved by the intern-table arena and the converter successor
	// rows. Per-worker scratch arenas
	// are excluded — they rewind every merge batch, and counting them would
	// make the figure vary with Workers where this one is deterministic for
	// a given input. Complements ArenaBytes, which covers the demand-driven
	// environment's row storage on the compose side.
	PairArenaBytes int64
	// ProgressBytes is the progress store: the bytes reserved for the
	// compiled edge table, the combo tables, their pb-major transpose, the
	// memoized masks and the base ready masks. Like PairArenaBytes it
	// excludes sweep scratch, so it is deterministic for a given input at
	// every worker count. 0 when the progress phase did not run.
	ProgressBytes int64
	// ClosureMemoHits is always 0: every φ step runs its closure, and the
	// engine keeps no memo of closures. The field stays only for the
	// benchmark's per-layer schema (core.closure_memo_hits).
	ClosureMemoHits int
}

// InternHitRate returns the fraction of intern lookups that found an
// existing pair set, in [0, 1]; 0 when no lookups happened.
func (m *Metrics) InternHitRate() float64 {
	if m.InternLookups == 0 {
		return 0
	}
	return float64(m.InternHits) / float64(m.InternLookups)
}

// TraceEvent is one structured derivation event, delivered to
// Options.Trace. Phase is always set; the remaining fields depend on the
// event kind:
//
//   - safety frontier level: Level, Frontier, States; Detail empty.
//   - safety summary: States, Transitions, Pairs; Detail set.
//   - progress removal (one per removed state): Iteration, State; Detail
//     empty.
//   - progress sweep summary: Iteration, Removed (0 on the fixpoint
//     sweep); Detail set.
//
// Events with a non-empty Detail are the summary lines LogAdapter prints.
type TraceEvent struct {
	// Phase is "safety" or "progress".
	Phase string
	// State is the converter state name the event concerns, when it
	// concerns a single state.
	State string
	// Detail is a human-readable summary line, set only on per-phase /
	// per-sweep summary events.
	Detail string

	// Level and Frontier describe a safety-phase BFS level: its index and
	// the number of states expanded in it.
	Level    int
	Frontier int
	// States, Transitions, Pairs carry cumulative safety-phase counts.
	States      int
	Transitions int
	Pairs       int
	// Iteration is the 1-based progress-phase sweep; Removed the number
	// of states that sweep marked bad.
	Iteration int
	Removed   int
}

// LogAdapter formats a structured trace stream as a line-oriented
// narration of the derivation: it prints the Detail of summary events
// (safety-phase growth, per-sweep progress-phase removals) and ignores
// everything else. Set Options.Trace to LogAdapter(w) to narrate to w.
func LogAdapter(w io.Writer) func(TraceEvent) {
	return func(ev TraceEvent) {
		if ev.Detail == "" {
			return
		}
		fmt.Fprintf(w, "%s\n", ev.Detail)
	}
}
