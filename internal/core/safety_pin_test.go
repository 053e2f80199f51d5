package core_test

import (
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
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
	}{
		{"chain(5)", pin{"a045bc52220c21d75c054d2ae3bed7274ecf405835fcdc4dfca6e36c1b6091c3", 9, 12, 21504, 13, 4}},
		{"chaindrop(5)", pin{"bdbf250643331e0f538565005759dfce82554e60de49112006871fd57312500f", 16, 26, 31744, 27, 11}},
		{"ring(4)", pin{"d445248bff649f54817bead80f5cc38e38c2100c191612a14238013ff87d1978", 1040, 4685, 6297, 4686, 3646}},
		{"fig18", pin{"d98f648d7efc119b7d0df1a580548436fe909e4cbe63cbadb35fc554d6deb248", 419, 1532, 4680, 1533, 1114}},
		// Service sizes 64 and 128: the widest service the mask closure
		// takes, and one that only the scalar closure serves.
		{"lanes(6)", pin{"a9b921c00baf6428caa082c491feeb92e37c0e5f825632097083cea3a625700f", 729, 4374, 46656, 4375, 3646}},
		{"lanes(7)", pin{"f2d72ac652886324fa6b99e6a1d97ebaa26552c156a649ba0969a3e02391f049", 2187, 15309, 279936, 15310, 13123}},
	}
	for _, p := range pins {
		for _, w := range []int{1, 2} {
			opts := core.Options{OmitVacuous: true, Workers: w}
			var res *core.Result
			var err error
			switch p.name {
			case "fig18":
				res, err = core.Derive(protocols.CST(), protocols.TransportB18(), opts)
			case "lanes(6)":
				res, err = core.Derive(protocols.LaneService(6), protocols.LaneSystem(6), opts)
			case "lanes(7)":
				res, err = core.Derive(protocols.LaneService(7), protocols.LaneSystem(7), opts)
			default:
				fam, ferr := specgen.ParseFamily(p.name)
				if ferr != nil {
					t.Fatal(ferr)
				}
				env, cerr := compose.LazyMany(fam.Components...)
				if cerr != nil {
					t.Fatal(cerr)
				}
				res, err = core.DeriveEnv(fam.Service, env, opts)
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
