package spec_test

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"protoquot/internal/spec"
)

// denseFromBytes decodes fuzz input into a Dense: one to eight states, zero
// to five events in an unsorted alphabet, and then one edge per three bytes
// (kind, from, to-or-event), so edge lists come unsorted, with duplicates
// and with internal cycles.
func denseFromBytes(data []byte) spec.Dense {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%8
	k := next() % 6
	d := spec.Dense{
		Name:       "F",
		StateNames: make([]string, n),
		Init:       spec.State(next() % n),
		Ext:        make([][]spec.ExtEdge, n),
		Int:        make([][]spec.State, n),
	}
	for i := range d.StateNames {
		d.StateNames[i] = fmt.Sprintf("s%d", i)
	}
	for i := k - 1; i >= 0; i-- {
		d.Alphabet = append(d.Alphabet, spec.Event(fmt.Sprintf("e%d", i)))
	}
	for len(data) >= 3 {
		kind, from, arg := next(), next()%n, next()
		if kind%2 == 0 && k > 0 {
			ed := spec.ExtEdge{Event: d.Alphabet[arg%k], To: spec.State(arg / k % n)}
			d.Ext[from] = append(d.Ext[from], ed)
		} else {
			d.Int[from] = append(d.Int[from], spec.State(arg%n))
		}
	}
	return d
}

// sortedKeys returns a set's members in ascending order.
func sortedKeys[K interface{ ~int | ~string }](set map[K]bool) []K {
	out := make([]K, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

// FuzzFromDense checks FromDense's canonicalization and derived analyses
// against a naive reference computed with maps straight from the Dense
// input: the adjacency, τ, the λ-closure, τ*, sink membership and sink
// sets, DeterministicExternal, IsNormalForm's λ-acyclicity verdict, and the
// Hash of the same machine built through the Builder.
func FuzzFromDense(f *testing.F) {
	f.Add([]byte{3, 2, 0, 0, 0, 1, 0, 1, 2})
	f.Add([]byte{4, 3, 1, 0, 0, 4, 0, 0, 4, 1, 1, 2, 1, 2, 0, 0, 3, 5})
	f.Add([]byte{7, 5, 0, 1, 0, 1, 1, 1, 2, 1, 2, 0, 0, 2, 9, 0, 6, 6, 0, 0, 13})
	// The λ-cycle {0,1} reaches the λ-cycle {3,4} through the λ-DAG
	// 1 → 2 → 3, and 2 also reaches the sink 5; τ* of 0 gathers the events
	// of 2, 4 and 5.
	f.Add([]byte{5, 2, 0, 1, 0, 1, 1, 1, 0, 1, 1, 2, 1, 2, 3, 1, 2, 5, 1, 3, 4, 1, 4, 3, 0, 4, 0, 0, 5, 1, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := denseFromBytes(data)
		s, err := spec.FromDense(d)
		if err != nil {
			t.Fatalf("FromDense: %v", err)
		}
		n := len(d.StateNames)
		b := spec.NewBuilder(d.Name)
		for _, name := range d.StateNames {
			b.State(name)
		}
		b.Init(d.StateNames[d.Init])
		for _, e := range d.Alphabet {
			b.Event(e)
		}
		ext := make([]map[spec.ExtEdge]bool, n)
		succ := make([]map[spec.State]bool, n)
		for st := 0; st < n; st++ {
			ext[st], succ[st] = map[spec.ExtEdge]bool{}, map[spec.State]bool{}
			for _, ed := range d.Ext[st] {
				ext[st][ed] = true
				b.Ext(d.StateNames[st], ed.Event, d.StateNames[ed.To])
			}
			for _, to := range d.Int[st] {
				succ[st][to] = true
				b.Int(d.StateNames[st], d.StateNames[to])
			}
		}
		ref, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if s.Hash() != ref.Hash() {
			t.Fatalf("Hash %s, Builder's %s\n%s\n--- vs ---\n%s", s.Hash(), ref.Hash(), s.Canonical(), ref.Canonical())
		}

		det := true
		tau := make([][]spec.Event, n)
		for st := 0; st < n; st++ {
			evs := map[spec.Event]bool{}
			for ed := range ext[st] {
				if evs[ed.Event] {
					det = false
				}
				evs[ed.Event] = true
			}
			tau[st] = sortedKeys(evs)
			edges := make([]spec.ExtEdge, 0, len(ext[st]))
			for ed := range ext[st] {
				edges = append(edges, ed)
			}
			slices.SortFunc(edges, func(x, y spec.ExtEdge) int {
				return cmp.Or(cmp.Compare(x.Event, y.Event), cmp.Compare(x.To, y.To))
			})
			if got := s.ExtEdges(spec.State(st)); !slices.Equal(got, edges) {
				t.Fatalf("state %d: ExtEdges %v, want %v", st, got, edges)
			}
			if got, want := s.IntEdges(spec.State(st)), sortedKeys(succ[st]); !slices.Equal(got, want) {
				t.Fatalf("state %d: IntEdges %v, want %v", st, got, want)
			}
			if got := s.Tau(spec.State(st)); !slices.Equal(got, tau[st]) {
				t.Fatalf("state %d: Tau %v, want %v", st, got, tau[st])
			}
		}
		if got := s.DeterministicExternal(); got != det {
			t.Fatalf("DeterministicExternal = %v, want %v", got, det)
		}
		closures := make([]map[spec.State]bool, n)
		for st := 0; st < n; st++ {
			closure := map[spec.State]bool{spec.State(st): true}
			for grew := true; grew; {
				grew = false
				for u := range closure {
					for v := range succ[u] {
						if !closure[v] {
							closure[v], grew = true, true
						}
					}
				}
			}
			closures[st] = closure
			star := map[spec.Event]bool{}
			for u := range closure {
				for _, e := range tau[u] {
					star[e] = true
				}
			}
			if got, want := s.LambdaClosure(spec.State(st)), sortedKeys(closure); !slices.Equal(got, want) {
				t.Fatalf("state %d: LambdaClosure %v, want %v", st, got, want)
			}
			if got, want := s.TauStar(spec.State(st)), sortedKeys(star); !slices.Equal(got, want) {
				t.Fatalf("state %d: TauStar %v, want %v", st, got, want)
			}
		}
		// The paper's sink predicate: every state internally reachable
		// from st reaches st back. The sink set is then st's λ-SCC.
		cyclic, mixed := false, false
		for st := 0; st < n; st++ {
			sink, scc := true, map[spec.State]bool{}
			for u := range closures[st] {
				if closures[u][spec.State(st)] {
					scc[u] = true
				} else {
					sink = false
				}
			}
			if got := s.Sink(spec.State(st)); got != sink {
				t.Fatalf("state %d: Sink = %v, want %v", st, got, sink)
			}
			want := []spec.State(nil)
			if sink {
				want = sortedKeys(scc)
			}
			if got := s.SinkSet(spec.State(st)); !slices.Equal(got, want) {
				t.Fatalf("state %d: SinkSet %v, want %v", st, got, want)
			}
			for v := range succ[st] {
				cyclic = cyclic || closures[v][spec.State(st)]
			}
			mixed = mixed || len(ext[st]) > 0 && len(succ[st]) > 0
		}
		// IsNormalForm tests condition (i) before (ii), so its λ-cycle
		// verdict is only visible when no state mixes both kinds of move.
		if !mixed {
			err := s.IsNormalForm()
			var nf *spec.NotNormalFormError
			got := errors.As(err, &nf) && strings.HasPrefix(nf.Reason, "internal ")
			if got != cyclic {
				t.Fatalf("IsNormalForm = %v, λ-cyclic %v", err, cyclic)
			}
		}
	})
}
