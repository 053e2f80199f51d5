package core_test

import (
	"fmt"
	"strings"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/oracle"
	"protoquot/internal/protocols"
	"protoquot/internal/protosmith"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

func mustBuild(t *testing.T, b *spec.Builder) *spec.Spec {
	t.Helper()
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// sweepOutcome is a derivation's bit-identity surface for the sweep test:
// converter text, stats with the worker count and wall times zeroed, and
// error string.
type sweepOutcome struct {
	text  string
	stats core.Stats
	err   string
}

// TestProgressSweepAcrossWorkers derives systems that exercise every shape
// of progress sweep — incremental removal, progress-phase nonexistence,
// two-variant robust derivations (one refuted by the safety phase, one
// deriving over both variants' packed-b ranges), and specgen chain,
// chaindrop and ring instances — at 1, 2 and 4 workers. Every run must
// produce the same converter and statistics, and every converter must pass
// the raw-edge progress oracle against each environment variant. Each
// system's progress tables must also pass CheckProgressLayout — the
// compiled edge table equals the environment's rows, and a pb's columns are
// a subset of each of its τ-successors' columns — over the eager
// environments and, for every single-variant system, over a demand-driven
// one. The whole Metrics comparison covers ProgressBytes, which must be
// nonzero exactly when the progress phase ran.
func TestProgressSweepAcrossWorkers(t *testing.T) {
	type system struct {
		name  string
		a     *spec.Spec
		bs    []*spec.Spec
		comps []*spec.Spec // the lazy layout check's components; nil = bs[0] alone
	}
	var systems []system
	// extra service events, each a self-loop at the initial states, widen
	// the ready masks: 0 keeps them one word, 70 makes them two.
	for _, extra := range []int{0, 70} {
		loops := func(b *spec.Builder, st string) *spec.Builder {
			for i := 0; i < extra; i++ {
				b.Ext(st, spec.Event(fmt.Sprintf("n%d", i)), st)
			}
			return b
		}
		alt := mustBuild(t, loops(spec.NewBuilder("S").Init("v0").Ext("v0", "acc", "v1").Ext("v1", "del", "v0"), "v0"))
		removal := loops(spec.NewBuilder("B").Init("b0"), "b0")
		removal.Ext("b0", "acc", "b1")
		removal.Ext("b1", "x", "b2").Ext("b2", "del", "b0")
		removal.Ext("b1", "y", "b3").Ext("b3", "z", "b4")
		// variant adds one internal move to a common base: none, a loss
		// after acc (b1 → b0, which lets B repeat acc, so no converter
		// exists), or a retry (b2 → b1, which a converter survives).
		variant := func(from, to string) *spec.Spec {
			bb := loops(spec.NewBuilder("B").Init("b0"), "b0")
			bb.Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
			bb.Ext("b1", "y", "b0").Ext("b2", "y", "b2")
			if from != "" {
				bb.Int(from, to)
			}
			return mustBuild(t, bb)
		}
		doomed := loops(spec.NewBuilder("B").Event("del").Init("b0"), "b0")
		doomed.Ext("b0", "acc", "b1").Ext("b1", "x", "b2")
		suffix := ""
		if extra > 0 {
			suffix = "-wide"
		}
		systems = append(systems,
			system{"removal" + suffix, alt, []*spec.Spec{mustBuild(t, removal)}, nil},
			system{"doomed" + suffix, alt, []*spec.Spec{mustBuild(t, doomed)}, nil},
			system{"robust" + suffix, alt, []*spec.Spec{variant("", ""), variant("b1", "b0")}, nil},
			system{"robust-retry" + suffix, alt, []*spec.Spec{variant("", ""), variant("b2", "b1")}, nil})
	}
	for _, fn := range []string{"chain(3)", "chaindrop(3)", "ring(3)"} {
		fam, err := specgen.ParseFamily(fn)
		if err != nil {
			t.Fatal(err)
		}
		b, err := compose.Many(fam.Components...)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{fam.Name, fam.Service, []*spec.Spec{b}, fam.Components})
	}

	tauPairs := 0
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			envs := make([]core.Environment, len(sys.bs))
			for v, b := range sys.bs {
				envs[v] = b
			}
			pairs, err := core.CheckProgressLayout(sys.a, envs, core.Options{})
			if err != nil {
				t.Errorf("progress layout: %v", err)
			}
			tauPairs += pairs
			if len(sys.bs) == 1 {
				comps := sys.comps
				if comps == nil {
					comps = sys.bs
				}
				lz, err := compose.LazyMany(comps...)
				if err != nil {
					t.Fatal(err)
				}
				lazyPairs, err := core.CheckProgressLayout(sys.a, []core.Environment{lz}, core.Options{})
				if err != nil {
					t.Errorf("progress layout, demand-driven: %v", err)
				}
				tauPairs += lazyPairs
			}

			var ref sweepOutcome
			for i, w := range []int{1, 2, 4} {
				res, err := core.DeriveRobust(sys.a, sys.bs, core.Options{Workers: w})
				var got sweepOutcome
				if err != nil {
					got.err = err.Error()
				}
				if res != nil {
					got.stats = res.Stats
					m := &got.stats.Metrics
					if m.Workers != w {
						t.Errorf("workers=%d: Metrics.Workers = %d", w, m.Workers)
					}
					if (m.ProgressBytes > 0) != (res.Stats.ProgressIterations > 0) {
						t.Errorf("workers=%d: ProgressBytes = %d after %d progress iterations",
							w, m.ProgressBytes, res.Stats.ProgressIterations)
					}
					m.Workers = 0
					m.SafetyWall, m.ProgressWall, m.EnvExpansionNs = 0, 0, 0
					if res.Converter != nil {
						got.text = res.Converter.Format()
						for _, b := range sys.bs {
							if trace, ok := oracle.CheckProgress(oracle.Compose(b, res.Converter), sys.a); !ok {
								t.Errorf("workers=%d: converter fails the progress oracle against %s after %v",
									w, b.Name(), trace)
							}
						}
					}
				}
				if i == 0 {
					ref = got
					continue
				}
				if got != ref {
					t.Errorf("workers=%d diverges from workers=1:\n%s\nstats %+v err %q\n--- vs ---\n%s\nstats %+v err %q",
						w, got.text, got.stats, got.err, ref.text, ref.stats, ref.err)
				}
			}
			if strings.HasPrefix(sys.name, "doomed") && ref.err == "" {
				t.Error("doomed system derived a converter")
			}
		})
	}
	if tauPairs == 0 {
		t.Error("no system has a τ-successor in its progress memo; the layout check is vacuous")
	}
}

// TestProgressSweepMetricsPinned pins the progress phase's deterministic
// counters on the families the repository benchmark's per-layer metrics
// (core.ready_set_rebuilds, core.tau_cache_hit_rate, core.tau_invalidated)
// are computed from, and on a paper system with τ-memo hits, so that a
// change to the sweep cannot move them unnoticed.
func TestProgressSweepMetricsPinned(t *testing.T) {
	type pin struct {
		iterations, removed, rebuilds, hits, invalidated, scans int
	}
	pins := []struct {
		name string
		want pin
	}{
		{"chain(5)", pin{1, 0, 21504, 0, 0, 9}},
		{"chaindrop(5)", pin{2, 7, 46080, 7168, 0, 16}},
		{"ring(4)", pin{1, 0, 6297, 0, 0, 1040}},
		{"fig18", pin{3, 254, 5324, 27, 154, 455}},
	}
	for _, p := range pins {
		for _, w := range []int{1, 2} {
			opts := core.Options{OmitVacuous: true, Workers: w}
			var res *core.Result
			var err error
			if p.name == "fig18" {
				res, err = core.Derive(protocols.CST(), protocols.TransportB18(), opts)
			} else {
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
			got := pin{s.ProgressIterations, s.RemovedStates, s.Metrics.ReadySetRebuilds,
				s.Metrics.TauCacheHits, s.Metrics.TauInvalidated, s.Metrics.ProgressScans}
			if got != p.want {
				t.Errorf("%s workers=%d: sweep metrics %+v, pinned %+v", p.name, w, got, p.want)
			}
		}
	}
}

// TestLaterSweepsMatchFullRecompute checks the change-driven later sweeps
// against the full recompute: after every sweep, CheckSweepsReference
// recomputes every live column's masks from ⊥ and requires the memo to
// match byte for byte and the sweep's removals to equal a scan of every
// live column. The systems are chaindrop(3)–(5), Fig. 18 and the
// deployment's robust pair (cyclic pb-graph SCCs, three sweeps each), the
// robust-retry pair, and the first protosmith systems whose derivations
// take at least two sweeps.
func TestLaterSweepsMatchFullRecompute(t *testing.T) {
	type system struct {
		name string
		a    *spec.Spec
		bs   []core.Environment
	}
	var systems []system
	for _, fn := range []string{"chaindrop(3)", "chaindrop(4)", "chaindrop(5)"} {
		fam, err := specgen.ParseFamily(fn)
		if err != nil {
			t.Fatal(err)
		}
		lz, err := compose.LazyMany(fam.Components...)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{fn, fam.Service, []core.Environment{lz}})
	}
	retry := func(from, to string) *spec.Spec {
		bb := spec.NewBuilder("B").Init("b0")
		bb.Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
		bb.Ext("b1", "y", "b0").Ext("b2", "y", "b2")
		if from != "" {
			bb.Int(from, to)
		}
		return mustBuild(t, bb)
	}
	var deploy []core.Environment
	for _, b := range protocols.DeploymentEnvs(0) {
		deploy = append(deploy, b)
	}
	alt := mustBuild(t, spec.NewBuilder("S").Init("v0").Ext("v0", "acc", "v1").Ext("v1", "del", "v0"))
	systems = append(systems,
		system{"fig18", protocols.CST(), []core.Environment{protocols.TransportB18()}},
		system{"deploy-robust", protocols.Service(), deploy},
		system{"robust-retry", alt, []core.Environment{retry("", ""), retry("b2", "b1")}})
	for _, sys := range systems {
		res, later, err := core.CheckSweepsReference(sys.a, sys.bs, core.Options{OmitVacuous: true})
		if err != nil {
			t.Errorf("%s: %v", sys.name, err)
			continue
		}
		// robust-retry converges in one sweep; every other system removes
		// states and sweeps again.
		if later != res.Stats.ProgressIterations-1 || later == 0 && sys.name != "robust-retry" {
			t.Errorf("%s: checked %d later sweeps of %d iterations", sys.name, later, res.Stats.ProgressIterations)
		}
	}

	const want = 20
	found := 0
	for seed := int64(1); seed <= 400 && found < want; seed++ {
		gen := protosmith.Generate(seed, protosmith.DefaultKnobs())
		b, err := compose.Many(gen.Components...)
		if err != nil {
			continue
		}
		res, later, err := core.CheckSweepsReference(gen.Service, []core.Environment{b},
			core.Options{OmitVacuous: true, MaxStates: 1 << 16})
		if err != nil {
			t.Errorf("protosmith seed %d: %v", seed, err)
			continue
		}
		if res != nil && later > 0 {
			found++
		}
	}
	if found < want {
		t.Errorf("only %d protosmith systems in 400 seeds take two sweeps, want %d", found, want)
	}
}
