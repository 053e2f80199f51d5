// Incremental, memoized, sequential progress phase (paper Fig. 6).
//
// A sweep removes every converter state containing a pair whose composite
// ready sets cannot satisfy A's acceptance sets; removal changes
// reachability, so sweeps repeat to a fixpoint. Six ideas keep the phase
// cheap on large instances:
//
//   - Incrementality: deleting state r only changes verdicts of converter
//     states that could reach r, so each sweep after the first considers
//     only the predecessor closure of the previous sweep's removals, over
//     the static safety-phase graph, and within it recomputes only what
//     the removals changed (below).
//   - Dense memoized ready sets: the composite states ⟨b,c⟩ of B‖C that
//     matter are exactly the (v,b) projections of c's pair set (pair sets
//     are closed under B's internal moves and synchronized Int steps land
//     in the successor's pair set), so each converter state c — a "column"
//     — owns a static sorted "combo" table of packed-b states (pbs), and
//     each (pb, column) slot a ready mask: a bitmask over Ext laid out by
//     sat.ReadyIndex. Masks survive sweeps and are never invalidated
//     wholesale. A removal changes a slot's inputs in only two ways: its
//     column loses an Int edge that the slot's pb has an edge on, or a
//     successor slot's mask changes. A later sweep therefore recomputes an
//     SCC of the pb graph (below) only when one of its pbs lost such an
//     edge in one of its in-sweep columns (a seed) or has a successor pb
//     whose mask changed earlier in the same sweep, and rescans only the
//     columns one of whose masks changed: a column whose masks all kept
//     their value passed its last scan, so its verdict cannot change.
//   - A pb-major memo: the combo tables are transposed once per derivation
//     into per-pb column lists, ascending, and the masks are stored at the
//     same positions, so a pb's masks for all its columns share cache
//     lines. A slot's mask is bready[pb], plus the masks of pb's
//     τ-successors in the same column, plus those of its Int-successors in
//     the column the converter's transition leads to. A τ-successor t
//     always resolves in the member's column — pair-set closure puts t in
//     every column pb is in — so pb's columns are a subset of t's, and one
//     merge walk of the two lists finds every member's successor slot. An
//     Int-successor's column varies per member, so it is found by a short
//     search of the successor's column list (pos), as is each pb's mask in
//     the verdict scan.
//   - One Tarjan per derivation: the per-(column, slot) graph's τ-edges do
//     not depend on the column and its Int-edges only redirect it, so every
//     per-column graph is a quotient of one graph over the pbs. The first
//     sweep runs ONE Tarjan over the pbs of every column, and an SCC
//     computes the masks of its pbs' columns in place. Collapsing
//     per-column edges onto the pb graph can only merge SCCs, and
//     within-SCC fixpoint iteration from ⊥ absorbs the merge: the mask
//     system is monotone, so each mask still converges to its least
//     fixpoint, the exact τ*-reachability closure. A later sweep's pb graph
//     is a subgraph of the first's (fewer columns, the same τ-edges, only
//     the Int edges whose target is still in a live column), so the first
//     sweep's emission order stays reverse-topological and each of its
//     SCCs contains whole SCCs of the later graph: later sweeps walk the
//     kept condensation and run no Tarjan. A recomputed cyclic SCC restarts
//     from ⊥; iterating down from the old masks would reach the greatest
//     fixpoint on a cycle and keep bits nothing supports. Scratch is
//     O(pbs), whatever the number of columns.
//   - One sequential sweep: the DP walks the condensation, and the verdict
//     scan walks the columns to scan in order and each column's pairs in
//     ascending order, one sat.AcceptanceIndex.Prog test per pair,
//     stopping at the first failing pair. The phase is sequential at every
//     worker count (Options.Workers parallelizes the safety phase only)
//     because every pb-graph SCC on the specgen families is a singleton,
//     too little work to schedule: on 2 cores a work-stealing sweep ran
//     2–2.5× slower at 2 workers than at 1 (chaindrop(8) 0.56–0.89 s →
//     1.45–1.80 s, chain(9) 1.26–1.57 s → 2.95–3.40 s).
//   - Determinism: each mask is the unique least fixpoint of a monotone
//     union system, and the scan records each flagged state's first
//     failing pair in ascending pair order, so the removals and the
//     witness are the same at every worker count.
//
// The prog verdict itself is sat.AcceptanceIndex.Prog: A's acceptance sets
// precompiled to minimal bitmasks, one subset test per candidate.
package core

import (
	"fmt"
	"slices"

	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// progTables is the progress phase's per-derivation state, kept on the
// deriver so repeated sweeps share the combo tables and memoized masks.
type progTables struct {
	accIx   *sat.AcceptanceIndex
	readyIx *sat.ReadyIndex
	words   int   // mask stride in uint64 words
	totalB  int32 // packed-b domain size at progress start

	bready []uint64 // totalB × words: τ.b ∩ Ext as a mask, per packed b

	// The compiled edge table: two exactly sized CSRs over the packed-b
	// domain, built once at init, so the sweep never goes back through the
	// environment's rows (in particular never through compose.Lazy's
	// published-row check, and never forcing an expansion) and never
	// resolves a variant or an event per edge. pb's τ-successors are
	// tau[tauOff[pb]:tauOff[pb+1]] and its Int edges
	// ints[intOff[pb]:intOff[pb+1]], in row order, both as absolute pbs.
	tauOff []int32
	tau    []int32
	intOff []int32
	ints   []intEdge

	// Per converter state ("column"): the sorted packed-b combo table,
	// combo[comboOff[ci]:comboOff[ci+1]].
	comboOff []int32
	combo    []int32

	// The pb-major memo, the transpose of the combo tables: pb's columns,
	// ascending, are pbCol[pbOff[pb]:pbOff[pb+1]], and the mask of (pb,
	// pbCol[k]) is mask[k*words:(k+1)*words]. A pb's masks for all its
	// columns share cache lines, and pos finds one by a short search.
	pbOff []int32
	pbCol []int32
	mask  []uint64

	// The first sweep's condensation of the pb graph, kept for every later
	// sweep: node nid is pb active[nid] (the pbs of every column, in
	// first-touch order), self[nid] says it has a pb-graph self-edge, and
	// SCC si's nodes are sccMembers[sccOff[si]:sccOff[si+1]], SCCs in
	// Tarjan's emission order. nil until the first sweep.
	active     []int32
	self       []bool
	sccMembers []int32
	sccOff     []int32

	// Sweep flags, all false or zero between sweeps, and DP scratch.
	inSweep    []bool   // per column: in this sweep's columns
	colChanged []bool   // per column: one of its masks changed this sweep
	mark       []uint8  // per pb: seedBit and changedBit
	evLost     []bool   // per Int event: lost by the column being seeded
	acc, old   []uint64 // a node's new masks; a cyclic SCC's masks before it restarts
}

// mark bits: a seed pb lost an Int edge it has an edge on in one of its
// in-sweep columns, and a changed pb had one of its masks change this
// sweep.
const (
	seedBit uint8 = 1 << iota
	changedBit
)

// intEdge is one external B-edge on an Int event in the compiled edge
// table: the event's position in Int and the target's packed b.
type intEdge struct {
	ii, to int32
}

// droppedEdge is a converter transition a removal deleted: live column
// col lost its successor on Int event ii.
type droppedEdge struct {
	col, ii int32
}

// combos returns column ci's combo table.
func (pt *progTables) combos(ci int32) []int32 {
	return pt.combo[pt.comboOff[ci]:pt.comboOff[ci+1]]
}

// bytes is the store's reserved size (Metrics.ProgressBytes): the tables
// initProgTables builds, without the per-column flags or the sweep scratch.
func (pt *progTables) bytes() int64 {
	int32s := len(pt.tauOff) + len(pt.tau) + len(pt.intOff) + 2*len(pt.ints) +
		len(pt.comboOff) + len(pt.combo) + len(pt.pbOff) + len(pt.pbCol)
	return 4*int64(int32s) + 8*int64(len(pt.mask)+len(pt.bready))
}

// tauOf returns pb's τ-successors from the compiled edge table.
func (pt *progTables) tauOf(pb int32) []int32 {
	return pt.tau[pt.tauOff[pb]:pt.tauOff[pb+1]]
}

// intsOf returns pb's Int edges from the compiled edge table.
func (pt *progTables) intsOf(pb int32) []intEdge {
	return pt.ints[pt.intOff[pb]:pt.intOff[pb+1]]
}

// initProgTables builds the acceptance index, the base ready masks, the
// compiled edge table, every column's combo table, and the pb-major memo.
func (d *deriver) initProgTables() error {
	readyIx, err := sat.NewReadyIndex(d.a.Alphabet())
	if err != nil {
		return fmt.Errorf("quotient: progress phase: %w", err)
	}
	accIx, err := sat.NewAcceptanceIndex(d.a, readyIx)
	if err != nil {
		return fmt.Errorf("quotient: progress phase: %w", err)
	}
	pt := &progTables{accIx: accIx, readyIx: readyIx, words: readyIx.Words()}
	// The safety phase is done exploring: the packed-b domain is whatever it
	// discovered. Only expanded states have rows (and only they can appear in
	// pair sets); a demand-driven environment's frontier-only states keep
	// zero masks that are never consulted.
	pt.totalB = int32(d.packedStates())
	pt.bready = make([]uint64, int(pt.totalB)*pt.words)
	// bitOf is the vectorized ReadyIndex rebuild table: the mask bit of
	// every Σ_B event id, resolved through the index's map exactly once
	// instead of once per edge of every row.
	bitOf := make([]int32, d.nev)
	for ei := 0; ei < d.nev; ei++ {
		bitOf[ei] = -1
		if !d.isExt[ei] {
			continue
		}
		pos, ok := readyIx.Bit(d.events[ei])
		if !ok { // Ext = Σ_A, so every external event has a bit
			return fmt.Errorf("quotient: progress phase: event %q missing from ready universe", d.events[ei])
		}
		bitOf[ei] = int32(pos)
	}
	// rowsAt returns pb's environment rows and its variant's packed-b
	// offset. A frontier-only state has no rows: a zero mask and no edges,
	// never consulted.
	rowsAt := func(pb int32) ([]bedge, []int32, int32) {
		v := d.variantOf(pb)
		ext, intl, _ := d.envs[v].PeekRows(spec.State(pb - d.boff[v]))
		return ext, intl, d.boff[v]
	}
	// Two passes compile the edge table at its exact size: the first fills
	// the base masks and counts each pb's edges into the offsets, the second
	// writes the edges.
	pt.tauOff = make([]int32, pt.totalB+1)
	pt.intOff = make([]int32, pt.totalB+1)
	for pb := int32(0); pb < pt.totalB; pb++ {
		ext, intl, _ := rowsAt(pb)
		row := pt.bready[int(pb)*pt.words:]
		nInt := int32(0)
		for _, ed := range ext {
			if pos := bitOf[ed.Ev]; pos >= 0 {
				row[pos>>6] |= 1 << (uint(pos) & 63)
			} else if d.intlIndex[ed.Ev] >= 0 {
				nInt++
			}
		}
		pt.tauOff[pb+1] = pt.tauOff[pb] + int32(len(intl))
		pt.intOff[pb+1] = pt.intOff[pb] + nInt
	}
	pt.tau = make([]int32, pt.tauOff[pt.totalB])
	pt.ints = make([]intEdge, pt.intOff[pt.totalB])
	for pb := int32(0); pb < pt.totalB; pb++ {
		ext, intl, boff := rowsAt(pb)
		tau := pt.tau[pt.tauOff[pb]:pt.tauOff[pb+1]]
		for i, t := range intl {
			tau[i] = boff + t
		}
		k := pt.intOff[pb]
		for _, ed := range ext {
			if ii := d.intlIndex[ed.Ev]; ii >= 0 {
				pt.ints[k] = intEdge{ii: ii, to: boff + ed.To}
				k++
			}
		}
	}
	// Combo tables: each column's sorted, deduplicated packed-b projection
	// of its pair set. The pb-major pair encoding delivers pairs in
	// ascending packed-b order, so a projection is one dedup pass, no sort.
	// The first pass counts every column's and every pb's slots; the second
	// fills the combo array and its pb-major transpose, each column
	// appending itself to its pbs' ranges in ascending column order.
	n := len(d.states)
	numA := int32(d.numA)
	projectCol := func(ci int, visit func(pb int32)) {
		last := int32(-1)
		d.table.get(int32(ci)).forEach(func(p int32) {
			if pb := p / numA; pb != last {
				visit(pb)
				last = pb
			}
		})
	}
	pt.comboOff = make([]int32, n+1)
	pt.pbOff = make([]int32, pt.totalB+1)
	for ci := 0; ci < n; ci++ {
		k := pt.comboOff[ci]
		projectCol(ci, func(pb int32) {
			k++
			pt.pbOff[pb+1]++
		})
		pt.comboOff[ci+1] = k
	}
	for pb := int32(0); pb < pt.totalB; pb++ {
		pt.pbOff[pb+1] += pt.pbOff[pb]
	}
	slots := pt.pbOff[pt.totalB]
	pt.combo = make([]int32, slots)
	pt.pbCol = make([]int32, slots)
	pt.mask = make([]uint64, int(slots)*pt.words)
	next := append([]int32(nil), pt.pbOff[:pt.totalB]...)
	for ci := 0; ci < n; ci++ {
		k := pt.comboOff[ci]
		projectCol(ci, func(pb int32) {
			pt.combo[k] = pb
			k++
			pt.pbCol[next[pb]] = int32(ci)
			next[pb]++
		})
	}
	pt.inSweep = make([]bool, n)
	pt.colChanged = make([]bool, n)
	pt.mark = make([]uint8, pt.totalB)
	pt.evLost = make([]bool, len(d.intl))
	d.prog = pt
	d.met.ProgressBytes = pt.bytes()
	return nil
}

// pos returns the memo position of (pb, column ci) — the index of ci in
// pb's column range — or -1 when ci's pair set has no pair with pb.
func (pt *progTables) pos(pb, ci int32) int32 {
	lo, end := pt.pbOff[pb], pt.pbOff[pb+1]
	hi := end
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if pt.pbCol[mid] < ci {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && pt.pbCol[lo] == ci {
		return lo
	}
	return -1
}

// maskAt returns the mask stored at memo position k.
func (pt *progTables) maskAt(k int32) []uint64 {
	w := pt.words
	return pt.mask[int(k)*w : int(k)*w+w]
}

func (d *deriver) progressPhase(res *Result, alive []bool) error {
	if err := d.initProgTables(); err != nil {
		return err
	}
	n := len(d.states)
	// Static predecessor lists over the safety-phase graph; self-loops are
	// irrelevant to the closure and skipped.
	preds := make([][]int32, n)
	for ci := range d.states {
		for _, t := range d.states[ci].succ {
			if t >= 0 && int(t) != ci {
				preds[t] = append(preds[t], int32(ci))
			}
		}
	}
	cols := make([]int32, n)
	for i := range cols {
		cols[i] = int32(i)
	}
	var dropped []droppedEdge
	removedTotal := 0
	blame0 := int32(-1)
	for {
		res.Stats.ProgressIterations++
		if err := d.ctx.Err(); err != nil {
			return fmt.Errorf("quotient: progress phase canceled at iteration %d: %w",
				res.Stats.ProgressIterations, err)
		}
		scan, recomputed, changed := d.sweep(alive, cols, dropped)
		masks := fmt.Sprintf("%d mask(s) computed", recomputed)
		if res.Stats.ProgressIterations > 1 {
			masks = fmt.Sprintf("%d mask(s) recomputed, %d changed", recomputed, changed)
		}
		var removed []int32
		removed, blame0 = d.verdictScan(scan)
		if len(removed) == 0 {
			d.emit(TraceEvent{
				Phase:     "progress",
				Iteration: res.Stats.ProgressIterations,
				Detail: fmt.Sprintf("progress phase: iteration %d removed nothing; fixpoint; %s",
					res.Stats.ProgressIterations, masks),
			})
			break
		}
		d.emit(TraceEvent{
			Phase:     "progress",
			Iteration: res.Stats.ProgressIterations,
			Removed:   len(removed),
			Detail: fmt.Sprintf("progress phase: iteration %d marked %d state(s) bad; %s",
				res.Stats.ProgressIterations, len(removed), masks),
		})
		for _, ci := range removed {
			alive[ci] = false
			removedTotal++
			d.emit(TraceEvent{
				Phase:     "progress",
				Iteration: res.Stats.ProgressIterations,
				State:     stateName(ci),
			})
		}
		if !alive[0] {
			break // initial state removed: all states unreachable
		}
		// The next sweep considers the predecessor closure of what just
		// died. Its live transitions into dead states are dropped and
		// recorded, grouped by column: they seed the recomputation.
		cols = predClosure(preds, removed, alive)
		dropped = dropped[:0]
		for _, ci := range cols {
			succ := d.states[ci].succ
			for ii, t := range succ {
				if t >= 0 && !alive[t] {
					succ[ii] = -1
					dropped = append(dropped, droppedEdge{col: ci, ii: int32(ii)})
				}
			}
		}
	}
	res.Stats.RemovedStates = removedTotal
	if !alive[0] {
		// The last scan flagged state 0 and recorded its first failing pair;
		// the witness trace is driven to that pair.
		return &NoQuotientError{
			Reason: fmt.Sprintf(
				"progress phase removed the initial state after %d iterations (%d states removed): every candidate behavior risks a progress violation of the service",
				res.Stats.ProgressIterations, removedTotal),
			FailedPhase:  "progress",
			WitnessTrace: d.witness(blame0),
		}
	}
	return nil
}

// predClosure returns the live states in the predecessor closure of the
// removed set under the static graph, ascending, so the next sweep
// examines states in the same order a full rescan would.
func predClosure(preds [][]int32, removed []int32, alive []bool) []int32 {
	seen := make([]bool, len(preds))
	queue := append([]int32(nil), removed...)
	for _, r := range removed {
		seen[r] = true
	}
	for i := 0; i < len(queue); i++ {
		for _, p := range preds[queue[i]] {
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	out := queue[:0]
	for ci, s := range seen {
		if s && alive[ci] {
			out = append(out, int32(ci))
		}
	}
	return out
}

// tframe is one iterative-DFS frame of a Tarjan walk: a node, the resume
// position within its successor range, and the range end.
type tframe struct {
	node int32
	ei   int32
	end  int32
}

// condense runs the derivation's one Tarjan, over the pb graph of the
// first sweep's columns cols, and keeps the condensation in pt: the nodes
// are the pbs of cols in first-touch order, τ-edges always count and Int
// edges count when their target is a node. Self-edges don't affect SCC
// structure but flag the node for fixpoint iteration: an Int self-edge can
// carry a cross-column dependency (pb, ci) → (pb, ci').
func (pt *progTables) condense(cols []int32) {
	node := make([]int32, pt.totalB)
	for i := range node {
		node[i] = -1
	}
	var active []int32
	for _, ci := range cols {
		for _, pb := range pt.combos(ci) {
			if node[pb] < 0 {
				node[pb] = int32(len(active))
				active = append(active, pb)
			}
		}
	}
	nAct := len(active)
	dfn := make([]int32, nAct)
	low := make([]int32, nAct)
	onStack := make([]bool, nAct)
	self := make([]bool, nAct)
	for i := range dfn {
		dfn[i] = -1
	}
	var stack []int32
	var frames []tframe
	sccMembers := make([]int32, 0, nAct)
	sccOff := []int32{0}

	var dfc int32
	push := func(nid int32) {
		dfn[nid], low[nid] = dfc, dfc
		dfc++
		onStack[nid] = true
		stack = append(stack, nid)
		pb := active[nid]
		end := pt.tauOff[pb+1] - pt.tauOff[pb] + pt.intOff[pb+1] - pt.intOff[pb]
		frames = append(frames, tframe{node: nid, ei: 0, end: end})
	}
	for root := int32(0); root < int32(nAct); root++ {
		if dfn[root] >= 0 {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			nid := f.node
			if f.ei >= f.end {
				if low[nid] == dfn[nid] {
					for {
						mn := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						onStack[mn] = false
						sccMembers = append(sccMembers, mn)
						if mn == nid {
							break
						}
					}
					sccOff = append(sccOff, int32(len(sccMembers)))
				}
				frames = frames[:len(frames)-1]
				if len(frames) > 0 {
					p := &frames[len(frames)-1]
					if low[nid] < low[p.node] {
						low[p.node] = low[nid]
					}
				}
				continue
			}
			pb := active[nid]
			q := int32(-1)
			if nTau := pt.tauOff[pb+1] - pt.tauOff[pb]; f.ei < nTau {
				q = pt.tau[pt.tauOff[pb]+f.ei]
			} else if t := pt.ints[pt.intOff[pb]+f.ei-nTau].to; node[t] >= 0 {
				q = t
			}
			f.ei++
			if q < 0 {
				continue
			}
			if q == pb {
				self[nid] = true
				continue
			}
			tn := node[q]
			if dfn[tn] < 0 {
				push(tn) // f is stale after this; the loop refetches it
			} else if onStack[tn] && dfn[tn] < low[nid] {
				low[nid] = dfn[tn]
			}
		}
	}
	pt.active, pt.self = active, self
	pt.sccMembers, pt.sccOff = sccMembers, sccOff
}

// seed marks the pbs whose masks a round of dropped converter transitions
// changes directly: for each column in dropped (grouped by column), its pbs
// with an Int edge on an event the column lost.
func (pt *progTables) seed(dropped []droppedEdge) {
	for i := 0; i < len(dropped); {
		ci := dropped[i].col
		j := i
		for ; j < len(dropped) && dropped[j].col == ci; j++ {
			pt.evLost[dropped[j].ii] = true
		}
		for _, pb := range pt.combos(ci) {
			for _, ie := range pt.intsOf(pb) {
				if pt.evLost[ie.ii] {
					pt.mark[pb] |= seedBit
					break
				}
			}
		}
		for ; i < j; i++ {
			pt.evLost[dropped[i].ii] = false
		}
	}
}

// sweep brings the ready masks of columns cols (live, ascending) up to date
// and returns the columns the verdict scan must examine, with the number
// of slot masks it computed and, on a later sweep, the number that
// changed. The first sweep condenses the pb graph and computes every SCC
// in emission order. A later sweep, whose columns are the predecessor
// closure of the last removals and whose seeds come from the transitions
// those removals dropped, walks the same order but recomputes an SCC only
// when a member is a seed or has a successor pb whose mask changed, and
// returns only the columns whose masks changed. Slots of columns outside
// cols are memoized leaves.
func (d *deriver) sweep(alive []bool, cols []int32, dropped []droppedEdge) (scan []int32, recomputed, changed int) {
	pt := d.prog
	w := pt.words
	first := pt.sccOff == nil
	inSweep, mark, colChanged := pt.inSweep, pt.mark, pt.colChanged
	slots := 0
	for _, ci := range cols {
		inSweep[ci] = true
		slots += len(pt.combos(ci))
	}
	if first {
		pt.condense(cols)
	} else {
		pt.seed(dropped)
	}
	active := pt.active

	// note records that the mask of (pb, c) changed this sweep.
	note := func(pb, c int32) {
		mark[pb] |= changedBit
		colChanged[c] = true
		changed++
	}
	// The DP reads the memo by position. A τ-edge stays in the member's
	// column, and pb's columns are a subset of each τ-successor's (pair sets
	// are closed under B's internal moves), so one merge walk per
	// τ-successor finds every member's successor position. An Int-edge moves
	// to the column the converter's transition leads to, found by pos. A
	// node's members accumulate in acc, a scratch indexed like pb's column
	// range. pass computes every member of nodes once and writes it back;
	// it reports whether a mask moved and how many members it computed, and
	// with track it notes each move as a change of this sweep.
	acc := pt.acc
	pass := func(nodes []int32, track bool) (moved bool, members int) {
		for _, nid := range nodes {
			pb := active[nid]
			lo := pt.pbOff[pb]
			pcols := pt.pbCol[lo:pt.pbOff[pb+1]]
			acc = resizeSlice(acc, len(pcols)*w)
			base := pt.bready[int(pb)*w : int(pb)*w+w]
			for k, c := range pcols {
				if !inSweep[c] {
					continue
				}
				if w == 1 {
					acc[k] = base[0]
				} else {
					copy(acc[k*w:k*w+w], base)
				}
			}
			for _, q := range pt.tauOf(pb) {
				qlo := pt.pbOff[q]
				qcols := pt.pbCol[qlo:pt.pbOff[q+1]]
				j := 0
				for k, c := range pcols {
					if !inSweep[c] {
						continue
					}
					for qcols[j] != c {
						j++
					}
					if w == 1 {
						acc[k] |= pt.mask[qlo+int32(j)]
					} else {
						sat.OrInto(acc[k*w:k*w+w], pt.maskAt(qlo+int32(j)))
					}
				}
			}
			for _, ie := range pt.intsOf(pb) {
				for k, c := range pcols {
					if !inSweep[c] {
						continue
					}
					t := d.states[c].succ[ie.ii]
					if t < 0 || !alive[t] {
						continue
					}
					j := pt.pos(ie.to, t)
					if j < 0 {
						continue
					}
					if w == 1 {
						acc[k] |= pt.mask[j]
					} else {
						sat.OrInto(acc[k*w:k*w+w], pt.maskAt(j))
					}
				}
			}
			for k, c := range pcols {
				if !inSweep[c] {
					continue
				}
				members++
				if w == 1 {
					if dst := &pt.mask[lo+int32(k)]; *dst != acc[k] {
						*dst = acc[k]
						moved = true
						if track {
							note(pb, c)
						}
					}
					continue
				}
				src, dst := acc[k*w:k*w+w], pt.maskAt(lo+int32(k))
				if !slices.Equal(src, dst) {
					copy(dst, src)
					moved = true
					if track {
						note(pb, c)
					}
				}
			}
		}
		return moved, members
	}
	// dirty reports whether a later sweep must recompute the SCC nodes: a
	// member is a seed, or one of its successor pbs changed (conservative:
	// the change may lie in a column the member does not read).
	dirty := func(nodes []int32) bool {
		for _, nid := range nodes {
			pb := active[nid]
			if mark[pb]&seedBit != 0 {
				return true
			}
			for _, q := range pt.tauOf(pb) {
				if mark[q]&changedBit != 0 {
					return true
				}
			}
			for _, ie := range pt.intsOf(pb) {
				if mark[ie.to]&changedBit != 0 {
					return true
				}
			}
		}
		return false
	}
	// Tarjan emits an SCC only after every SCC reachable from it, so
	// ascending emission order is a valid reverse-topological schedule,
	// for the first sweep's graph and for every later subgraph of it.
	for si := 0; si+1 < len(pt.sccOff); si++ {
		nodes := pt.sccMembers[pt.sccOff[si]:pt.sccOff[si+1]]
		if !first && !dirty(nodes) {
			continue
		}
		// A singleton SCC without self-edges is final after one pass from
		// its successors' masks, and its writes are its changes.
		if len(nodes) == 1 && !pt.self[nodes[0]] {
			_, n := pass(nodes, !first)
			recomputed += n
			continue
		}
		// Anything else restarts its members from ⊥ (the first sweep's
		// memo is all ⊥ already) and iterates to the least fixpoint; a
		// later sweep keeps the old masks to tell its changes.
		old := pt.old[:0]
		for _, nid := range nodes {
			pb := active[nid]
			for k := pt.pbOff[pb]; k < pt.pbOff[pb+1]; k++ {
				if inSweep[pt.pbCol[k]] && !first {
					old = append(old, pt.maskAt(k)...)
					clear(pt.maskAt(k))
				}
			}
		}
		moved, n := pass(nodes, false)
		recomputed += n
		for moved {
			moved, _ = pass(nodes, false)
		}
		if !first {
			i := 0
			for _, nid := range nodes {
				pb := active[nid]
				for k := pt.pbOff[pb]; k < pt.pbOff[pb+1]; k++ {
					if c := pt.pbCol[k]; inSweep[c] {
						if !slices.Equal(old[i:i+w], pt.maskAt(k)) {
							note(pb, c)
						}
						i += w
					}
				}
			}
		}
		pt.old = old
	}
	pt.acc = acc
	d.met.ReadySetRebuilds += recomputed

	// Reset the flags for the next sweep. The first sweep scans every
	// column; a later one only those whose masks changed.
	scan = cols
	if !first {
		d.met.TauCacheHits += slots - recomputed
		d.met.TauInvalidated += changed
		scan = nil
		for _, ci := range cols {
			if colChanged[ci] {
				scan = append(scan, ci)
				colChanged[ci] = false
			}
		}
		clear(mark)
	}
	for _, ci := range cols {
		inSweep[ci] = false
	}
	return scan, recomputed, changed
}

// resizeSlice returns s resized to exactly n elements, reallocating only
// when the capacity is insufficient; contents are unspecified.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// verdictScan evaluates prog for every pair of every state in scan (all
// live) and returns the states that fail, in scan order, with state 0's blame:
// the first pair, in ascending pair order, whose verdict fails, or -1 when
// state 0 passes or is not scanned. The pb-major encoding delivers a
// state's pairs grouped by packed-b, so each pb's mask is found once, by
// pos, for all of its pairs.
func (d *deriver) verdictScan(scan []int32) (removed []int32, blame0 int32) {
	pt := d.prog
	numA := int32(d.numA)

	// firstFailing walks ci's pair set and returns its first failing pair,
	// or -1.
	firstFailing := func(ci int32) int32 {
		blame := int32(-1)
		last := int32(-1)
		var m []uint64
		d.table.get(ci).forEachUntil(func(p int32) bool {
			if pb := p / numA; pb != last {
				k := pt.pos(pb, ci)
				if k < 0 {
					blame = p // cannot happen: combos are the projection
					return true
				}
				m, last = pt.maskAt(k), pb
			}
			if !pt.accIx.Prog(spec.State(p%numA), m) {
				blame = p
				return true
			}
			return false
		})
		return blame
	}

	blame0 = -1
	for _, ci := range scan {
		if blame := firstFailing(ci); blame >= 0 {
			removed = append(removed, ci)
			if ci == 0 {
				blame0 = blame
			}
		}
	}
	d.met.ProgressScans += len(scan)
	return removed, blame0
}
