// Incremental, memoized, sequential progress phase (paper Fig. 6).
//
// A sweep removes every converter state containing a pair whose composite
// ready sets cannot satisfy A's acceptance sets; removal changes
// reachability, so sweeps repeat to a fixpoint. Six ideas keep the phase
// cheap on large instances:
//
//   - Incrementality (PR 1): deleting state r only changes verdicts of
//     converter states that could reach r, so each sweep after the first
//     re-examines only the predecessor closure of the previous sweep's
//     removals, over the static safety-phase graph.
//   - Dense memoized ready sets: the composite states ⟨b,c⟩ of B‖C that
//     matter are exactly the (v,b) projections of c's pair set (pair sets
//     are closed under B's internal moves and synchronized Int steps land
//     in the successor's pair set), so each converter state c — a "column"
//     — owns a static sorted "combo" table of packed-b states (pbs), and
//     each (pb, column) slot a ready mask: a bitmask over Ext laid out by
//     sat.ReadyIndex. Masks survive sweeps; invalidation drops whole
//     columns (every slot of an affected converter state), which is exactly
//     the predecessor closure the incremental sweep re-examines, so a memo
//     can never be stale. Edges into still-valid columns are consumed as
//     memoized leaves (the τ-closure cache hits of core.Metrics).
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
//   - One pb-graph sweep: the per-(column, slot) graph's τ-edges do not
//     depend on the column and its Int-edges only redirect it, so every
//     per-column graph is a quotient of one graph over the pbs. A sweep
//     runs ONE Tarjan over the pbs that occur in any affected column, and
//     an SCC computes the masks of its pbs' in-sweep columns in place.
//     Collapsing per-column edges onto the pb graph can only merge SCCs,
//     and within-SCC fixpoint iteration absorbs the merge: the mask system
//     is monotone, so each mask still converges to its least fixpoint, the
//     exact τ*-reachability closure. Scratch is O(pbs), whatever the number
//     of affected columns.
//   - One sequential sweep: the DP walks Tarjan's emission order, which is
//     already reverse-topological, and the verdict scan walks the affected
//     states in order and each state's pairs in ascending order, one
//     sat.AcceptanceIndex.Prog test per pair, stopping at the first failing
//     pair. The phase is sequential at every worker count
//     (Options.Workers parallelizes the safety phase only) because every
//     pb-graph SCC on the specgen families is a singleton, too little work
//     to schedule: on 2 cores a work-stealing sweep ran 2–2.5× slower at 2
//     workers than at 1 (chaindrop(8) 0.56–0.89 s → 1.45–1.80 s, chain(9)
//     1.26–1.57 s → 2.95–3.40 s).
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
	"sort"

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
	// combo[comboOff[ci]:comboOff[ci+1]], and whether the column's masks are
	// current.
	comboOff []int32
	combo    []int32
	valid    []bool

	// The pb-major memo, the transpose of the combo tables: pb's columns,
	// ascending, are pbCol[pbOff[pb]:pbOff[pb+1]], and the mask of (pb,
	// pbCol[k]) is mask[k*words:(k+1)*words]. A pb's masks for all its
	// columns share cache lines, and pos finds one by a short search.
	pbOff []int32
	pbCol []int32
	mask  []uint64

	// Sweep scratch, persisted so every sweep after the first reuses the
	// first sweep's capacity instead of re-growing it allocation by
	// allocation (the first sweep visits every column; later sweeps a
	// shrinking closure). A sweep's nodes are the pbs of its columns,
	// numbered in first-touch order: node nid is pb active[nid], and its
	// members are the entries of pb's column range whose column is in the
	// sweep (inSweep). node spans the packed-b domain and is restored to all
	// -1 after every sweep, so only the touched entries are ever paid for.
	// SCC membership is stored flat: SCC si's nodes are
	// sccMembers[sccOff[si]:sccOff[si+1]].
	inSweep    []bool  // per column: being recomputed this sweep
	node       []int32 // per pb: node id this sweep, or -1
	active     []int32
	dfn        []int32 // per node: Tarjan DFS number, or -1
	low        []int32
	onStack    []bool
	self       []bool // per node: has a pb-graph self-edge (needs fixpoint)
	stack      []int32
	frames     []tframe
	sccMembers []int32
	sccOff     []int32
}

// intEdge is one external B-edge on an Int event in the compiled edge
// table: the event's position in Int and the target's packed b.
type intEdge struct {
	ii, to int32
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
	pt.valid = make([]bool, n)
	pt.inSweep = make([]bool, n)
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
	affected := make([]int32, n)
	for i := range affected {
		affected[i] = int32(i)
	}
	removedTotal := 0
	blame0 := int32(-1)
	for {
		res.Stats.ProgressIterations++
		if err := d.ctx.Err(); err != nil {
			return fmt.Errorf("quotient: progress phase canceled at iteration %d: %w",
				res.Stats.ProgressIterations, err)
		}
		d.refreshReady(alive, affected)
		var removed []int32
		removed, blame0 = d.verdictScan(alive, affected)
		if len(removed) == 0 {
			d.emit(TraceEvent{
				Phase:     "progress",
				Iteration: res.Stats.ProgressIterations,
				Detail: fmt.Sprintf("progress phase: iteration %d removed nothing; fixpoint",
					res.Stats.ProgressIterations),
			})
			break
		}
		d.emit(TraceEvent{
			Phase:     "progress",
			Iteration: res.Stats.ProgressIterations,
			Removed:   len(removed),
			Detail: fmt.Sprintf("progress phase: iteration %d marked %d state(s) bad",
				res.Stats.ProgressIterations, len(removed)),
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
		// Drop live transitions into dead states, then re-examine only the
		// predecessor closure of what just died.
		for _, ci := range removed {
			for _, p := range preds[ci] {
				if !alive[p] {
					continue
				}
				succ := d.states[p].succ
				for ei, t := range succ {
					if t == ci {
						succ[ei] = -1
					}
				}
			}
		}
		affected = predClosure(preds, removed, alive)
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
// removed set under the static graph, sorted ascending so the next sweep
// examines states in the same order a full rescan would.
func predClosure(preds [][]int32, removed []int32, alive []bool) []int32 {
	visited := make(map[int32]bool, len(removed)*2)
	queue := append([]int32(nil), removed...)
	for _, r := range removed {
		visited[r] = true
	}
	var out []int32
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		for _, p := range preds[ci] {
			if visited[p] {
				continue
			}
			visited[p] = true
			queue = append(queue, p)
			if alive[p] {
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tframe is one iterative-DFS frame of a Tarjan walk: a node, the resume
// position within its successor range, and the range end.
type tframe struct {
	node int32
	ei   int32
	end  int32
}

// refreshReady brings the ready masks of every affected live column up to
// date. It first invalidates the affected columns (the memo-soundness
// obligation: these are exactly the states whose composite reachability
// changed), then recomputes them in one pb-major sweep.
func (d *deriver) refreshReady(alive []bool, affected []int32) {
	pt := d.prog
	cols := make([]int32, 0, len(affected))
	for _, ci := range affected {
		if !alive[ci] {
			continue
		}
		if pt.valid[ci] {
			pt.valid[ci] = false
			d.met.TauInvalidated += len(pt.combos(ci))
		}
		cols = append(cols, ci)
	}
	if len(cols) == 0 {
		return
	}
	d.sweep(alive, cols)
	for _, ci := range cols {
		pt.valid[ci] = true
	}
}

// sweep recomputes the ready masks of the invalidated columns cols: one
// Tarjan over the packed-b states that appear in any of them, then a
// reverse-topological DP over the condensation in which each SCC writes its
// members' masks into the pb-major memo. Edges into still-valid columns are
// memoized leaves.
//
// The condensation order is valid for every column because every Int-edge
// some (column, slot) needs maps to a pb edge that is present whenever its
// target is in the sweep; see the package comment for why merged SCCs still
// reach the per-slot least fixpoint.
func (d *deriver) sweep(alive []bool, cols []int32) {
	pt := d.prog
	w := pt.words
	if pt.node == nil {
		pt.node = make([]int32, pt.totalB)
		for i := range pt.node {
			pt.node[i] = -1
		}
	}
	// Membership pass: node ids in first-touch order. A node's members are
	// its in-sweep columns; their masks start at ⊥, the fixpoint
	// iteration's start.
	inSweep := pt.inSweep
	for _, ci := range cols {
		inSweep[ci] = true
	}
	active := pt.active[:0]
	slots := 0
	for _, ci := range cols {
		for _, pb := range pt.combos(ci) {
			if pt.node[pb] >= 0 {
				continue
			}
			pt.node[pb] = int32(len(active))
			active = append(active, pb)
			for k := pt.pbOff[pb]; k < pt.pbOff[pb+1]; k++ {
				if inSweep[pt.pbCol[k]] {
					clear(pt.maskAt(k))
				}
			}
		}
		slots += len(pt.combos(ci))
	}
	nAct := len(active)

	// Iterative Tarjan over the pb graph, successors resolved on the fly
	// (τ targets stay in-sweep by closure; Int targets join when they are in
	// the sweep). Self-edges don't affect SCC structure but flag the node
	// for fixpoint iteration: an Int self-edge can carry a cross-column
	// dependency (pb, ci) → (pb, ci').
	dfn := resizeSlice(pt.dfn, nAct)
	low := resizeSlice(pt.low, nAct)
	onStack := resizeSlice(pt.onStack, nAct)
	self := resizeSlice(pt.self, nAct)
	for i := 0; i < nAct; i++ {
		dfn[i] = -1
		onStack[i] = false
		self[i] = false
	}
	stack := pt.stack[:0]
	frames := pt.frames[:0]
	sccMembers := growCap(pt.sccMembers, nAct)
	sccOff := append(pt.sccOff[:0], 0)

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
			} else if t := pt.ints[pt.intOff[pb]+f.ei-nTau].to; pt.node[t] >= 0 {
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
			tn := pt.node[q]
			if dfn[tn] < 0 {
				push(tn) // f is stale after this; the loop refetches it
			} else if onStack[tn] && dfn[tn] < low[nid] {
				low[nid] = dfn[tn]
			}
		}
	}
	d.met.ReadySetRebuilds += slots

	// The DP reads the memo by position. A τ-edge stays in the member's
	// column, and pb's columns are a subset of each τ-successor's (pair sets
	// are closed under B's internal moves), so one merge walk per
	// τ-successor finds every member's successor position. An Int-edge moves
	// to the column the converter's transition leads to, found by pos. A
	// node's members accumulate in buf, a scratch indexed like pb's column
	// range. Memo hits are counted on the first pass only, one per resolved
	// edge into a valid column.
	hits := 0
	var buf []uint64
	computeSCC := func(si int) {
		nodes := sccMembers[sccOff[si]:sccOff[si+1]]
		pass := func(count bool) bool {
			changed := false
			for _, nid := range nodes {
				pb := active[nid]
				lo := pt.pbOff[pb]
				pcols := pt.pbCol[lo:pt.pbOff[pb+1]]
				acc := resizeSlice(buf, len(pcols)*w)
				buf = acc
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
						if count && pt.valid[t] {
							hits++
						}
					}
				}
				for k, c := range pcols {
					if !inSweep[c] {
						continue
					}
					if w == 1 {
						if dst := &pt.mask[lo+int32(k)]; *dst != acc[k] {
							*dst = acc[k]
							changed = true
						}
						continue
					}
					src, dst := acc[k*w:k*w+w], pt.maskAt(lo+int32(k))
					for i := range src {
						if src[i] != dst[i] {
							copy(dst, src)
							changed = true
							break
						}
					}
				}
			}
			return changed
		}
		// A singleton SCC without self-edges is already final after one
		// pass; anything else iterates to the fixpoint.
		if len(nodes) == 1 && !self[nodes[0]] {
			pass(true)
			return
		}
		if pass(true) {
			for pass(false) {
			}
		}
	}
	// Tarjan emits an SCC only after every SCC reachable from it, so
	// ascending emission order is a valid reverse-topological schedule.
	for si := 0; si < len(sccOff)-1; si++ {
		computeSCC(si)
	}
	d.met.TauCacheHits += hits

	// Restore node to all -1 and inSweep to all false, and park the scratch
	// for the next sweep.
	for _, pb := range active {
		pt.node[pb] = -1
	}
	for _, ci := range cols {
		inSweep[ci] = false
	}
	pt.active = active[:0]
	pt.dfn, pt.low, pt.onStack, pt.self = dfn, low, onStack, self
	pt.stack, pt.frames = stack[:0], frames[:0]
	pt.sccMembers, pt.sccOff = sccMembers, sccOff
}

// growCap returns s emptied for reuse, reallocating only when its capacity
// cannot hold n elements.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// resizeSlice returns s resized to exactly n elements, reallocating only
// when the capacity is insufficient; contents are unspecified.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// verdictScan evaluates prog for every pair of every affected live state
// and returns the states that fail, in affected order, with state 0's
// blame: the first pair, in ascending pair order, whose verdict fails, or
// -1 when state 0 passes or is not scanned. The pb-major encoding delivers
// a state's pairs grouped by packed-b, so each pb's mask is found once, by
// pos, for all of its pairs.
func (d *deriver) verdictScan(alive []bool, affected []int32) (removed []int32, blame0 int32) {
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
	scanned := 0
	for _, ci := range affected {
		if !alive[ci] {
			continue
		}
		scanned++
		if blame := firstFailing(ci); blame >= 0 {
			removed = append(removed, ci)
			if ci == 0 {
				blame0 = blame
			}
		}
	}
	d.met.ProgressScans += scanned
	return removed, blame0
}
