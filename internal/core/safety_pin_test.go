package core_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// TestSafetyCountersPinned pins the safety phase's deterministic output on
// the families of TestProgressSweepMetricsPinned: the converter, the state,
// transition and pair counts, and the intern counters. Every φ step runs
// its closure and every successor set is probed against the intern table,
// so a change to how the phase stores, probes or skips work must leave all
// of these where they are, at every worker count.
func TestSafetyCountersPinned(t *testing.T) {
	type pin struct {
		hash                       string
		states, transitions, pairs int
		internLookups, internHits  int
	}
	pins := []struct {
		name string
		want pin
		// reference: also check every closure against the per-pair
		// reference (at Workers 1); lanes(8) is too large for it.
		reference bool
	}{
		{"chain(5)", pin{"a045bc52220c21d75c054d2ae3bed7274ecf405835fcdc4dfca6e36c1b6091c3", 9, 12, 21504, 13, 4}, false},
		{"chaindrop(5)", pin{"bdbf250643331e0f538565005759dfce82554e60de49112006871fd57312500f", 16, 26, 31744, 27, 11}, false},
		{"ring(4)", pin{"d445248bff649f54817bead80f5cc38e38c2100c191612a14238013ff87d1978", 1040, 4685, 6297, 4686, 3646}, false},
		{"fig18", pin{"d98f648d7efc119b7d0df1a580548436fe909e4cbe63cbadb35fc554d6deb248", 419, 1532, 4680, 1533, 1114}, false},
		// Service sizes 64, 128, 256, 96 and 240: one, two and four full
		// A-words per packed-b state in the closure's masks; a second
		// A-word half filled, so stripes straddle pair-domain words; four
		// A-words over two environment variants; and external moves that
		// send one key's A-states into two words of the target.
		{"lanes(6)", pin{"a9b921c00baf6428caa082c491feeb92e37c0e5f825632097083cea3a625700f", 729, 4374, 46656, 4375, 3646}, false},
		{"lanes(7)", pin{"f2d72ac652886324fa6b99e6a1d97ebaa26552c156a649ba0969a3e02391f049", 2187, 15309, 279936, 15310, 13123}, true},
		{"lanes(8)", pin{"1a22e70e737b4386a971141e23d2fd0ec96da2ae5c7f04a964510868c8ae6c37", 6561, 52488, 1679616, 52489, 45928}, false},
		{"unrolled-lanes(6)", pin{"8c29c44ef7209277c6eca00ea0d01fb4efbd7942feebaf1b769f9c875a751a32", 729, 4374, 46656, 4375, 3646}, true},
		{"unrolled-chaindrop(2)", pin{"b2eefb2bf60c92212c39d3d9892682ce6fe57f15d23873c1025d2b84d8088453", 161, 200, 13984, 201, 40}, true},
		{"acc-counter(240)", pin{"c44ea5a6936992887a42c467502963dcf0b636a22058ee568c54df5c0bfe77ae", 2, 2, 720, 3, 1}, true},
	}
	for _, p := range pins {
		for _, w := range []int{1, 2} {
			opts := core.Options{OmitVacuous: true, Workers: w}
			var a *spec.Spec
			var envs []core.Environment
			switch p.name {
			case "fig18":
				a, envs = protocols.CST(), []core.Environment{protocols.TransportB18()}
			case "lanes(6)", "lanes(7)", "lanes(8)":
				n := int(p.name[6] - '0')
				a, envs = protocols.LaneService(n), []core.Environment{protocols.LaneSystem(n)}
			case "unrolled-lanes(6)":
				a, envs = unrolledLaneService(6), []core.Environment{protocols.LaneSystem(6)}
			case "unrolled-chaindrop(2)":
				// chaindrop(2)'s 8-state service with a modulo-30 counter
				// on acc, against the composition in both component
				// orders: the same language, numbered differently.
				fam := specgen.ChainDrop(2)
				rev := slices.Clone(fam.Components)
				slices.Reverse(rev)
				a = unrolledService(fam.Service, "acc", 30)
				envs = []core.Environment{compose.MustMany(fam.Components...), compose.MustMany(rev...)}
			case "acc-counter(240)":
				// A service counting acc modulo 240 against an environment
				// that takes any number of acc at b0: h.ε holds all 240
				// A-states at b0, x moves them to b1 at once, and b1's acc
				// sends each A-word's states into two words of b2.
				one := spec.NewBuilder("Acc").Init("s").Ext("s", "acc", "s").MustBuild()
				a = unrolledService(one, "acc", 240)
				envs = []core.Environment{spec.NewBuilder("B").Init("b0").
					Ext("b0", "acc", "b0").Ext("b0", "x", "b1").
					Ext("b1", "acc", "b2").Ext("b2", "y", "b0").MustBuild()}
			default:
				fam, ferr := specgen.ParseFamily(p.name)
				if ferr != nil {
					t.Fatal(ferr)
				}
				lazy, cerr := compose.LazyMany(fam.Components...)
				if cerr != nil {
					t.Fatal(cerr)
				}
				a, envs = fam.Service, []core.Environment{lazy}
			}
			var res *core.Result
			var err error
			if w == 1 && p.reference {
				res, err = core.CheckClosureReference(a, envs, opts)
			} else {
				res, err = core.DeriveEnvsContext(context.Background(), a, envs, opts)
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.name, w, err)
			}
			s := res.Stats
			got := pin{res.Converter.Hash(), s.SafetyStates, s.SafetyTransitions, s.PairSetTotal,
				s.Metrics.InternLookups, s.Metrics.InternHits}
			if got != p.want {
				t.Errorf("%s workers=%d: got %#v, pinned %#v", p.name, w, got, p.want)
			}
		}
	}
}

// unrolledLaneService is LaneService(n) with its last lane's two-state
// cycle unrolled into three states (v0 -acc-> v1 -del-> v2 -acc-> v1): the
// same language from 2^(n-1) × 3 states, 96 at n = 6, so the closure's
// second A-word is half filled and stripes straddle pair-domain words.
func unrolledLaneService(n int) *spec.Spec {
	lanes := make([]*spec.Spec, n)
	for i := range lanes {
		b := spec.NewBuilder(fmt.Sprintf("S%d", i))
		s := func(j int) string { return fmt.Sprintf("v%d.%d", i, j) }
		acc, del := spec.Event(fmt.Sprintf("acc.%d", i)), spec.Event(fmt.Sprintf("del.%d", i))
		b.Init(s(0))
		b.Ext(s(0), acc, s(1))
		if i < n-1 {
			b.Ext(s(1), del, s(0))
		} else {
			b.Ext(s(1), del, s(2))
			b.Ext(s(2), acc, s(1))
		}
		lanes[i] = b.MustBuild()
	}
	return compose.MustMany(lanes...).Renamed(fmt.Sprintf("UnrolledLaneService(%d)", n))
}

// unrolledService is s with a modulo-k counter on event e folded into its
// states: state (q, c) for c < k, where e moves the counter on. The
// language is s's, from up to k times its states, numbered counter-major.
func unrolledService(s *spec.Spec, e spec.Event, k int) *spec.Spec {
	b := spec.NewBuilder(fmt.Sprintf("%s×%d", s.Name(), k))
	name := func(q spec.State, c int) string { return fmt.Sprintf("%s.%d", s.StateName(q), c) }
	b.Init(name(s.Init(), 0))
	for c := 0; c < k; c++ {
		for q := 0; q < s.NumStates(); q++ {
			for _, ed := range s.ExtEdges(spec.State(q)) {
				c2 := c
				if ed.Event == e {
					c2 = (c + 1) % k
				}
				b.Ext(name(spec.State(q), c), ed.Event, name(ed.To, c2))
			}
		}
	}
	return b.MustBuild()
}
