package core_test

import (
	"context"
	"fmt"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/protosmith"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// refPruneRobust is Prune as it ran before the compiled checker, kept here
// as the reference: rebuild every candidate through the spec builder and
// re-verify it end to end with compose.Many and sat.Satisfies.
func refPruneRobust(a *spec.Spec, bs []*spec.Spec, c *spec.Spec) (*spec.Spec, error) {
	if err := core.VerifyRobust(a, bs, c); err != nil {
		return nil, fmt.Errorf("quotient: Prune input is not a correct converter: %w", err)
	}
	for {
		changed := false
		for st := 0; st < c.NumStates(); st++ {
			if spec.State(st) == c.Init() {
				continue
			}
			if cand := core.RemoveState(c, spec.State(st)); core.VerifyRobust(a, bs, cand) == nil {
				c, changed, st = cand, true, -1
			}
		}
		for st := 0; st < c.NumStates(); st++ {
			edges := c.ExtEdges(spec.State(st))
			for ei := 0; ei < len(edges); ei++ {
				if cand := core.RemoveEdge(c, spec.State(st), edges[ei]); core.VerifyRobust(a, bs, cand) == nil {
					c, changed = cand, true
					edges, ei = c.ExtEdges(spec.State(st)), -1
				}
			}
		}
		if !changed {
			return c, nil
		}
	}
}

type pruneSystem struct {
	name  string
	a     *spec.Spec
	bs    []*spec.Spec
	comps []*spec.Spec // the components of bs[0], when it is one composition
	conv  *spec.Spec   // the derived converter
}

// pruneSystems is the differential corpus: the paper's systems (Figure 14,
// Figures 17 and 18, each deployment variant alone and a two-variant robust
// pair), the serve benchmark's specgen families, and the first 25 derivable
// protosmith systems, each with its derived converter.
func pruneSystems(t *testing.T) []pruneSystem {
	t.Helper()
	systems := []pruneSystem{
		{name: "fig14", a: protocols.Service(), bs: []*spec.Spec{protocols.ColocatedB()}, comps: protocols.ColocatedBComponents()},
		{name: "fig17", a: protocols.CST(), bs: []*spec.Spec{protocols.TransportB17()}},
		{name: "fig18", a: protocols.CST(), bs: []*spec.Spec{protocols.TransportB18()}, comps: protocols.TransportB18Components()},
	}
	for _, b := range protocols.DeploymentEnvs(1) {
		systems = append(systems, pruneSystem{name: "deploy-" + b.Name(), a: protocols.Service(), bs: []*spec.Spec{b}})
	}
	systems = append(systems, pruneSystem{name: "deploy-robust", a: protocols.Service(), bs: protocols.DeploymentEnvs(0)})
	for _, fn := range []string{"chain(2)", "chain(3)", "chaindrop(2)", "chaindrop(3)", "ring(2)"} {
		fam, err := specgen.ParseFamily(fn)
		if err != nil {
			t.Fatal(err)
		}
		b, err := compose.Many(fam.Components...)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, pruneSystem{name: fam.Name, a: fam.Service, bs: []*spec.Spec{b}, comps: fam.Components})
	}
	for i, sys := range systems {
		res, err := core.DeriveRobust(sys.a, sys.bs, core.Options{OmitVacuous: true})
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		systems[i].conv = res.Converter
	}
	for _, sys := range systems[:1] {
		sys.name += "-reordered"
		sys.conv = reorderedConverter(sys.conv)
		systems = append(systems, sys)
	}
	const want = 25
	found := 0
	for seed := int64(0); seed < 400 && found < want; seed++ {
		gen := protosmith.Generate(seed, protosmith.DefaultKnobs())
		b, err := compose.Many(gen.Components...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := core.Derive(gen.Service, b, core.Options{OmitVacuous: true, MaxStates: 1 << 16})
		if err != nil || !res.Exists {
			continue
		}
		found++
		systems = append(systems, pruneSystem{name: fmt.Sprintf("protosmith-seed%d", seed), a: gen.Service,
			bs: []*spec.Spec{b}, comps: gen.Components, conv: res.Converter})
	}
	if found < want {
		t.Fatalf("only %d derivable protosmith systems in 400 seeds, want %d", found, want)
	}
	return systems
}

// reorderedConverter is c rebuilt with its states declared to the Builder
// in reverse index order, behind a new initial state "pre" (declared last)
// whose one internal transition enters c's initial state. Its initial state
// is not state 0, no state keeps its index, and it has an internal edge, so
// pruning it exercises the init-first renumbering, edge re-sorting and the
// internal rows.
func reorderedConverter(c *spec.Spec) *spec.Spec {
	b := spec.NewBuilder(c.Name())
	for _, e := range c.Alphabet() {
		b.Event(e)
	}
	for st := c.NumStates() - 1; st >= 0; st-- {
		b.State(c.StateName(spec.State(st)))
	}
	b.Init("pre").Int("pre", c.StateName(c.Init()))
	for st := c.NumStates() - 1; st >= 0; st-- {
		for _, ed := range c.ExtEdges(spec.State(st)) {
			b.Ext(c.StateName(spec.State(st)), ed.Event, c.StateName(ed.To))
		}
	}
	return b.MustBuild()
}

// exhaustiveProduct bounds |S_B| · |S_C| for verifying every removal of a
// converter: the string-keyed Verify of one Figure 18 candidate takes ~80 ms,
// so its ~800 removals would take a minute. Past the bound a deterministic
// stride of about 24 removals stands in; the PruneRobust-versus-reference
// comparison still exercises every decision of the greedy loop there.
const exhaustiveProduct = 250_000

// checkVerdicts compares the checker's verdict on removing each state and
// each external transition of conv with VerifyRobust on the rebuilt
// candidate, and returns how many candidates it compared.
func checkVerdicts(t *testing.T, sys pruneSystem, conv *spec.Spec) int {
	t.Helper()
	input, states, edges, err := core.PruneCheckVerdicts(sys.a, envsOf(sys.bs), conv)
	if err != nil {
		t.Fatalf("checker: %v", err)
	}
	if !input {
		t.Fatalf("checker rejects the converter")
	}
	return compareVerdicts(t, sys, conv, states, edges, 24, 0)
}

func envsOf(bs []*spec.Spec) []core.Environment {
	envs := make([]core.Environment, len(bs))
	for v, b := range bs {
		envs[v] = b
	}
	return envs
}

// compareVerdicts compares the checker's verdicts on conv's candidate
// removals, indexed as core.PruneCheckVerdicts indexes them, with
// VerifyRobust on each candidate rebuilt through spec.Builder and Trim, and
// returns how many it compared. Past exhaustiveProduct it compares about
// budget of them, every stride-th candidate starting from offset modulo the
// stride.
func compareVerdicts(t *testing.T, sys pruneSystem, conv *spec.Spec, states []bool, edges [][]bool, budget, offset int) int {
	t.Helper()
	candidates := conv.NumStates() - 1 + conv.NumExternalTransitions()
	stride := 1
	if sys.bs[0].NumStates()*conv.NumStates() > exhaustiveProduct {
		stride = candidates/budget + 1
	}
	k, compared := 0, 0
	sample := func() bool {
		k++
		if (k-1)%stride != offset%stride {
			return false
		}
		compared++
		return true
	}
	for st := 0; st < conv.NumStates(); st++ {
		if spec.State(st) != conv.Init() && sample() {
			want := core.VerifyRobust(sys.a, sys.bs, core.RemoveState(conv, spec.State(st))) == nil
			if states[st] != want {
				t.Errorf("removing state %s: checker %v, Verify %v", conv.StateName(spec.State(st)), states[st], want)
			}
		}
		for ei, ed := range conv.ExtEdges(spec.State(st)) {
			if !sample() {
				continue
			}
			want := core.VerifyRobust(sys.a, sys.bs, core.RemoveEdge(conv, spec.State(st), ed)) == nil
			if edges[st][ei] != want {
				t.Errorf("removing %s -%s-> %s: checker %v, Verify %v", conv.StateName(spec.State(st)),
					ed.Event, conv.StateName(ed.To), edges[st][ei], want)
			}
		}
	}
	return compared
}

// TestPruneCheckerMatchesVerify is the prune checker's differential gate.
// For every single-state and single-transition removal of each derived
// converter (a stride of them past exhaustiveProduct) and of its pruned
// result, the compiled verdict must equal VerifyRobust on the rebuilt
// candidate; PruneRobust, which applies removals to integer tables, must
// return, by Format and Hash, exactly what the reference Builder+Verify loop
// returns; and pruning over the demand-driven composition (quotd's path)
// must agree with pruning over the eager one. The corpus includes the serve
// benchmark's five families and a converter whose initial state is not
// state 0.
func TestPruneCheckerMatchesVerify(t *testing.T) {
	for _, sys := range pruneSystems(t) {
		conv := sys.conv
		t.Run(sys.name, func(t *testing.T) {
			if checkVerdicts(t, sys, conv) == 0 {
				t.Fatal("converter offers no candidate removal")
			}
			got, err := core.PruneRobust(sys.a, sys.bs, conv)
			if err != nil {
				t.Fatalf("PruneRobust: %v", err)
			}
			want, err := refPruneRobust(sys.a, sys.bs, conv)
			if err != nil {
				t.Fatalf("reference prune: %v", err)
			}
			if got.Format() != want.Format() || got.Hash() != want.Hash() {
				t.Errorf("PruneRobust differs from the reference loop\n--- got ---\n%s--- want ---\n%s", got.Format(), want.Format())
			}
			checkVerdicts(t, sys, got)

			if sys.comps != nil {
				lz, err := compose.LazyMany(sys.comps...)
				if err != nil {
					t.Fatal(err)
				}
				lazy, err := core.PruneEnvs(sys.a, []core.Environment{lz}, conv)
				if err != nil {
					t.Fatalf("PruneEnvs over the lazy composition: %v", err)
				}
				if lazy.Format() != got.Format() || lazy.Hash() != got.Hash() {
					t.Errorf("pruning over the lazy composition differs\n--- lazy ---\n%s--- eager ---\n%s", lazy.Format(), got.Format())
				}
			}
		})
	}
}

// TestPruneErrorPaths covers each way PruneRobust refuses its input — an
// unsafe or a deadlocking converter (the checker refuses it), a service not in normal
// form, and a converter whose composite interface differs from the
// service's (the checker cannot be built) — and requires the error text of
// the reference procedure, which names the failure through Verify, as well
// as the pinned text that procedure has always produced.
func TestPruneErrorPaths(t *testing.T) {
	a, b := protocols.Service(), protocols.ColocatedB()
	res, err := core.Derive(a, b, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	conv := res.Converter

	// Removals only shrink the converter, so no candidate can break safety:
	// the chaos converter (every event, any time) is the case that drives
	// the checker's safety test.
	idle := spec.NewBuilder("C").Init("c0")
	chaos := spec.NewBuilder("C").Init("c0")
	for _, e := range conv.Alphabet() {
		idle.Event(e)
		chaos.Ext("c0", e, "c0")
	}
	mixed := spec.NewBuilder("S.mixed")
	mixed.Init("v0").Ext("v0", "acc", "v1").Ext("v1", "del", "v0").Int("v1", "v2").Ext("v2", "del", "v0")

	cases := []struct {
		name string
		a, c *spec.Spec
		want string
	}{
		{"unsafe-converter", a, chaos.MustBuild(),
			`quotient: Prune input is not a correct converter: variant B.coloc: safety violation after trace [del] ` +
				`at state s0|f-,r-|m1|c0: B enables "del" which A does not allow`},
		{"incorrect-converter", a, idle.MustBuild(),
			"quotient: Prune input is not a correct converter: variant B.coloc: progress violation after trace [acc] " +
				"at state s1|f-,r-|m0|c0: ready set [] covers no acceptance set of A at v1 (acceptance sets [[del]])"},
		{"not-normal-form", mixed.MustBuild(), conv,
			"quotient: Prune input is not a correct converter: variant B.coloc: sat: spec S.mixed is not in normal form: " +
				"state v1 has both internal and external transitions"},
		{"interface-mismatch", a, conv.WithEvents("zz"),
			"quotient: Prune input is not a correct converter: variant B.coloc: quotient: B‖C has interface [acc del zz], " +
				"service has [acc del]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := core.PruneRobust(tc.a, []*spec.Spec{b}, tc.c)
			_, ref := refPruneRobust(tc.a, []*spec.Spec{b}, tc.c)
			if err == nil || ref == nil {
				t.Fatalf("PruneRobust = %v, reference = %v; both must refuse", err, ref)
			}
			if err.Error() != ref.Error() {
				t.Errorf("PruneRobust error %q, reference %q", err, ref)
			}
			if err.Error() != tc.want {
				t.Errorf("PruneRobust error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestPruneVerdictsAfterRemovals replays PruneRobust's greedy loop over the
// differential corpus. The checker decides a candidate over the input's
// composite filtered by every removal accepted so far, so after each
// accepted removal its verdict on every remaining candidate (a stride of
// them past exhaustiveProduct) must equal VerifyRobust on the candidate
// rebuilt from the converter as it then stands. Past exhaustiveProduct each
// step compares a stride of 3 candidates, starting one candidate later than
// the step before, so the steps together cover different removals. The
// replayed result must be PruneRobust's, and at each step the filtered
// composite must reach as many composites, internal moves and external moves
// as a fresh exploration of the converter as it stands (PruneReplay checks
// it), which no verdict here would notice if an accepted edge removal were
// left out of the filters.
func TestPruneVerdictsAfterRemovals(t *testing.T) {
	for _, sys := range pruneSystems(t) {
		t.Run(sys.name, func(t *testing.T) {
			steps := 0
			pruned, _, err := core.PruneReplay(sys.a, envsOf(sys.bs), sys.conv,
				func(cur *spec.Spec, states []bool, edges [][]bool) {
					compareVerdicts(t, sys, cur, states, edges, 3, steps)
					steps++
				})
			if err != nil {
				t.Fatalf("PruneReplay: %v", err)
			}
			want, err := core.PruneRobust(sys.a, sys.bs, sys.conv)
			if err != nil {
				t.Fatalf("PruneRobust: %v", err)
			}
			if pruned.Format() != want.Format() || pruned.Hash() != want.Hash() {
				t.Errorf("replayed prune differs from PruneRobust\n--- replay ---\n%s--- PruneRobust ---\n%s", pruned.Format(), want.Format())
			}
			if steps == 0 && pruned != sys.conv {
				t.Error("the converter changed without an accepted removal")
			}
		})
	}
}

// TestPruneCheckCounts pins how many checks PruneEnvs runs on each serve
// family over the lazy composition quotd prunes over, the input check
// included. The greedy loop stops after a pass whose last accepted removal
// is a state, because that pass has already rejected every state and every
// transition of the final converter; a confirming pass would add 11 checks
// on each chain family and 13 on ring(2).
func TestPruneCheckCounts(t *testing.T) {
	want := map[string]int{"chain(2)": 18, "chain(3)": 18, "chaindrop(2)": 18, "chaindrop(3)": 18, "ring(2)": 40}
	for _, fn := range []string{"chain(2)", "chain(3)", "chaindrop(2)", "chaindrop(3)", "ring(2)"} {
		fam, err := specgen.ParseFamily(fn)
		if err != nil {
			t.Fatal(err)
		}
		lz, err := compose.LazyMany(fam.Components...)
		if err != nil {
			t.Fatal(err)
		}
		envs := []core.Environment{lz}
		res, err := core.DeriveEnvsContext(context.Background(), fam.Service, envs, core.Options{OmitVacuous: true})
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		_, checks, err := core.PruneReplay(fam.Service, envs, res.Converter, nil)
		if err != nil {
			t.Fatalf("%s: %v", fn, err)
		}
		if checks != want[fn] {
			t.Errorf("%s: PruneEnvs ran %d checks, want %d", fn, checks, want[fn])
		}
	}
}
