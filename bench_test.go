// Benchmark harness for the reproduction: one benchmark per paper artifact
// (figures 7–18 and the §7 complexity claims), plus baseline comparisons
// and the deployment runtime. EXPERIMENTS.md records the measured shapes
// against the paper's qualitative claims. Run with:
//
//	go test -bench=. -benchmem .
package protoquot

import (
	"context"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"syscall"
	"testing"
	"time"

	"protoquot/internal/baseline"
	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// --- E2/E3: protocol systems provide their services (figures 7, 8) ---

func BenchmarkFigure7ABSystemVerify(b *testing.B) {
	svc := protocols.Service()
	for i := 0; i < b.N; i++ {
		sys := protocols.ABSystem()
		if err := sat.Satisfies(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8NSSystemVerify(b *testing.B) {
	svc := protocols.AtLeastOnceService()
	for i := 0; i < b.N; i++ {
		sys := protocols.NSSystem()
		if err := sat.Satisfies(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Figure 12, safety phase of the symmetric configuration ---

func BenchmarkFigure12SafetyPhase(b *testing.B) {
	svc, bsym := protocols.Service(), protocols.SymmetricB()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, bsym, core.Options{SafetyOnly: true, OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.SafetyStates
	}
	b.ReportMetric(float64(states), "states")
}

// --- E7: Figure 9/12 full derivation — the paper's negative result ---

func BenchmarkFigure12FullQuotient(b *testing.B) {
	svc, bsym := protocols.Service(), protocols.SymmetricB()
	for i := 0; i < b.N; i++ {
		_, err := core.Derive(svc, bsym, core.Options{OmitVacuous: true})
		var nq *core.NoQuotientError
		if !errors.As(err, &nq) {
			b.Fatalf("expected no quotient, got %v", err)
		}
	}
}

// --- E8: weakened service admits a converter in the same configuration ---

func BenchmarkWeakenedServiceQuotient(b *testing.B) {
	svc, bsym := protocols.AtLeastOnceService(), protocols.SymmetricB()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, bsym, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.FinalStates
	}
	b.ReportMetric(float64(states), "states")
}

// --- E9: Figures 13/14, the co-located configuration ---

func BenchmarkFigure14Quotient(b *testing.B) {
	svc, bco := protocols.Service(), protocols.ColocatedB()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, bco, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.FinalStates
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkFigure14Prune(b *testing.B) {
	svc, bco := protocols.Service(), protocols.ColocatedB()
	res, err := core.Derive(svc, bco, core.Options{OmitVacuous: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		pruned, err := core.Prune(svc, bco, res.Converter)
		if err != nil {
			b.Fatal(err)
		}
		states = pruned.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkPruneChain3 prunes the chain(3) converter, the largest prune the
// serve benchmark's families ask of quotd on a miss.
func BenchmarkPruneChain3(b *testing.B) {
	f, err := specgen.ParseFamily("chain(3)")
	if err != nil {
		b.Fatal(err)
	}
	env, err := compose.Many(f.Components...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Derive(f.Service, env, core.Options{OmitVacuous: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		pruned, err := core.Prune(f.Service, env, res.Converter)
		if err != nil {
			b.Fatal(err)
		}
		states = pruned.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkPruneServeFamilies prunes each serve benchmark family's
// converter over the demand-driven composition it was derived over, as a
// quotd miss does, and reports per family the time and bytes of one
// PruneEnvs call and how many of its candidate checks fell back to a full
// walk of the composite.
func BenchmarkPruneServeFamilies(b *testing.B) {
	for _, fn := range []string{"chain(2)", "chain(3)", "chaindrop(2)", "chaindrop(3)", "ring(2)"} {
		f, err := specgen.ParseFamily(fn)
		if err != nil {
			b.Fatal(err)
		}
		env, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		envs := []core.Environment{env}
		res, err := core.DeriveEnvsContext(context.Background(), f.Service, envs, core.Options{OmitVacuous: true, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fn, func(b *testing.B) {
			b.ReportAllocs()
			var counts core.PruneCounts
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, counts, err = core.PruneEnvsCounted(f.Service, envs, res.Converter); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N), "µs/op")
			b.ReportMetric(float64(counts.Walks), "walks/op")
		})
	}
}

// --- E10: Section 6 transport configurations (figures 16–18) ---

func BenchmarkFigure16PassThroughCheck(b *testing.B) {
	weak := protocols.CSTConcat()
	for i := 0; i < b.N; i++ {
		sys, err := compose.Many(protocols.TransportA(), protocols.NetA(false),
			protocols.PassThrough(), protocols.NetB(), protocols.TransportB())
		if err != nil {
			b.Fatal(err)
		}
		if err := sat.Satisfies(sys, weak); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure17TransportQuotient(b *testing.B) {
	svc, env := protocols.CST(), protocols.TransportB17()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure18TransportQuotient(b *testing.B) {
	svc, env := protocols.CST(), protocols.TransportB18()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: §7 complexity claims — safety phase exponential in the number
// of components, progress phase polynomial in the safety-phase output.
// The lane family composes n independent request/response lanes: |S_B| =
// 4^n. Compare SafetyPhase and FullQuotient growth; their difference is
// the progress phase.

func benchLanes(b *testing.B, n int, safetyOnly bool) {
	svc, env := protocols.LaneService(n), protocols.LaneSystem(n)
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, env, core.Options{OmitVacuous: true, SafetyOnly: safetyOnly})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.SafetyStates
	}
	b.ReportMetric(float64(states), "safety-states")
}

func BenchmarkScalingSafetyPhase(b *testing.B) {
	for n := 1; n <= 5; n++ {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) { benchLanes(b, n, true) })
	}
}

func BenchmarkScalingFullQuotient(b *testing.B) {
	for n := 1; n <= 5; n++ {
		b.Run(fmt.Sprintf("lanes=%d", n), func(b *testing.B) { benchLanes(b, n, false) })
	}
}

// --- E12: baseline comparison — Okumura's bottom-up seed method is fast
// but needs an a posteriori global check; the quotient method answers
// definitively.

func BenchmarkOkumuraBaseline(b *testing.B) {
	p1 := baseline.HideEvents(protocols.ABReceiver(), protocols.Del)
	q0 := baseline.HideEvents(protocols.NSSender(), protocols.Acc)
	seed := baseline.Seed{Rules: []baseline.SeedRule{
		{Name: "data", Producers: []spec.Event{"+d0", "+d1"}, Consumer: "-D"},
		{Name: "ack0", Producers: []spec.Event{"+A"}, Consumer: "-a0"},
		{Name: "ack1", Producers: []spec.Event{"+A"}, Consumer: "-a1"},
	}}
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Okumura(p1, q0, seed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOkumuraGlobalCheck(b *testing.B) {
	p1 := baseline.HideEvents(protocols.ABReceiver(), protocols.Del)
	q0 := baseline.HideEvents(protocols.NSSender(), protocols.Acc)
	seed := baseline.Seed{Rules: []baseline.SeedRule{
		{Name: "data", Producers: []spec.Event{"+d0", "+d1"}, Consumer: "-D"},
		{Name: "ack0", Producers: []spec.Event{"+A"}, Consumer: "-a0"},
		{Name: "ack1", Producers: []spec.Event{"+A"}, Consumer: "-a1"},
	}}
	cand, err := baseline.Okumura(p1, q0, seed)
	if err != nil {
		b.Fatal(err)
	}
	bsym, svc := protocols.SymmetricB(), protocols.Service()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := compose.MustMany(bsym, cand)
		if err := sat.Satisfies(sys, svc); err == nil {
			b.Fatal("global check unexpectedly passed")
		}
	}
}

func BenchmarkProjectionRelay(b *testing.B) {
	image := protocols.AtLeastOnceService()
	for i := 0; i < b.N; i++ {
		if err := baseline.CommonImage(protocols.NSSystem(), protocols.NSSystem(), image); err != nil {
			b.Fatal(err)
		}
		if _, err := baseline.Relay("R", []baseline.Mapping{
			{In: "+D", Out: "-D'"}, {In: "+A'", Out: "-A"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate benchmarks: composition, satisfaction, normalization ---

func BenchmarkComposeABSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = protocols.ABSystem()
	}
}

func BenchmarkSatSafetyABSystem(b *testing.B) {
	sys, svc := protocols.ABSystem(), protocols.Service()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sat.Safety(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSatProgressABSystem(b *testing.B) {
	sys, svc := protocols.ABSystem(), protocols.Service()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sat.Progress(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalizeSymmetricB(b *testing.B) {
	env := protocols.SymmetricB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Normalize()
	}
}

func BenchmarkMinimizeSymmetricB(b *testing.B) {
	env := protocols.SymmetricB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = env.Minimize()
	}
}

// --- Deployment: eventually-reliable derivation and runtime throughput ---

func BenchmarkEventuallyReliableQuotient(b *testing.B) {
	svc, env := protocols.Service(), protocols.EventuallyReliableNSB()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeThroughput runs the derived AB→NS converter between the
// AB sender and the NS receiver as a closed system (convrt.RunSystem): one
// op is one message accepted and delivered, over lossless links, with the
// converter, service and progress checks on ("checked") and off
// ("unchecked"). The ROADMAP target is checked throughput within 2× of
// unchecked.
func BenchmarkRuntimeThroughput(b *testing.B) {
	env := protocols.EventuallyReliableNSB()
	res, err := core.Derive(protocols.Service(), env, core.Options{OmitVacuous: true})
	if err != nil {
		b.Fatal(err)
	}
	conv, err := core.Prune(protocols.Service(), env, res.Converter)
	if err != nil {
		b.Fatal(err)
	}
	for _, check := range []bool{true, false} {
		name := "unchecked"
		if check {
			name = "checked"
		}
		b.Run(name, func(b *testing.B) {
			rep, err := convrt.RunSystem(convrt.SystemConfig{
				Service:  protocols.Service(),
				Entities: []*spec.Spec{protocols.ABSender(), conv, protocols.NSReceiver()},
				Duplexes: []convrt.Duplex{
					{Initiator: 0, Responder: 1, Timeout: protocols.TmoAB},
					{Initiator: 1, Responder: 2},
				},
				Accept: protocols.Acc, Deliver: protocols.Del,
				Messages: b.N, Seed: 1, Check: check,
			})
			if err != nil {
				b.Fatal(err)
			}
			if !rep.OK() {
				b.Fatalf("run failed: %+v (violation: %v)", rep, rep.Violation)
			}
			b.ReportMetric(float64(rep.Delivered)/rep.Elapsed.Seconds(), "msgs/s")
		})
	}
}

// --- Extension families: cross-generation and window conversions ---

// Converting between sequenced protocols of different moduli — the
// "several generations must coexist" mismatch of the paper's introduction.
func BenchmarkCrossSeqQuotient(b *testing.B) {
	for _, c := range []struct{ j, k int }{{2, 3}, {3, 2}, {3, 4}} {
		b.Run(fmt.Sprintf("%d-to-%d", c.j, c.k), func(b *testing.B) {
			env, err := protocols.CrossSeqB(c.j, c.k)
			if err != nil {
				b.Fatal(err)
			}
			svc := protocols.Service()
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
				if err != nil {
					b.Fatal(err)
				}
				states = res.Stats.FinalStates
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// Converting a go-back-N window sender to a one-at-a-time receiver: the
// converter must buffer and pace acknowledgements.
func BenchmarkWindowToNSQuotient(b *testing.B) {
	env, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(2)
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		states = res.Stats.FinalStates
	}
	b.ReportMetric(float64(states), "states")
}

// --- Derivation engine: parallel interned safety phase ---
//
// The BenchmarkDerive* family exercises the engine knobs that
// Result.Stats.Metrics reports: worker scaling of the level-synchronous
// safety phase and the pair-set interning hit rate. The derived converter
// is bit-identical for every worker count (asserted by golden_test.go), so
// these compare pure engine cost. Worker scaling needs hardware
// parallelism: with GOMAXPROCS=1 all counts collapse to the sequential
// cost (the shared recycling pool keeps multi-worker overhead near zero);
// on a multi-core box the safety-µs metric drops as workers are added.

// BenchmarkDeriveWindowWorkers derives the window-3 go-back-N to
// one-at-a-time conversion — the widest-frontier workload in the
// protocol library (peak frontier ≈ 60 states) — at 1, 2, and 4 workers,
// reporting the safety-phase wall time and the interning hit rate.
func BenchmarkDeriveWindowWorkers(b *testing.B) {
	env, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 3, Modulus: 4})
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(3)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var safety time.Duration
			var m core.Metrics
			for i := 0; i < b.N; i++ {
				res, err := core.Derive(svc, env, core.Options{OmitVacuous: true, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				m = res.Stats.Metrics
				safety += m.SafetyWall
			}
			b.ReportMetric(float64(safety.Microseconds())/float64(b.N), "safety-µs")
			b.ReportMetric(100*m.InternHitRate(), "intern-hit-%")
			b.ReportMetric(float64(m.PeakFrontier), "peak-frontier")
		})
	}
}

// BenchmarkDeriveFigure18Workers runs the paper's largest derivation
// (Figure 18 transport conversion) across worker counts.
func BenchmarkDeriveFigure18Workers(b *testing.B) {
	svc, env := protocols.CST(), protocols.TransportB18()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var safety time.Duration
			for i := 0; i < b.N; i++ {
				res, err := core.Derive(svc, env, core.Options{OmitVacuous: true, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				safety += res.Stats.Metrics.SafetyWall
			}
			b.ReportMetric(float64(safety.Microseconds())/float64(b.N), "safety-µs")
		})
	}
}

// BenchmarkDeriveCancellation measures the overhead the context plumbing
// adds to an uncancelled derivation (checked once per frontier level).
func BenchmarkDeriveCancellation(b *testing.B) {
	env, err := protocols.WindowToNSB(protocols.WindowConfig{Window: 2, Modulus: 3})
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < b.N; i++ {
		if _, err := core.DeriveContext(ctx, svc, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Satisfaction over the 31k-state lossy window system: the substrate's
// largest verification instance.
func BenchmarkSatSafetyLossyWindow(b *testing.B) {
	sys, err := protocols.WindowSystem(protocols.WindowConfig{Window: 2, Modulus: 3}, true)
	if err != nil {
		b.Fatal(err)
	}
	svc := protocols.WindowService(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sat.Safety(sys, svc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: design choices DESIGN.md calls out ---

// Keeping vs dropping vacuous states: maximality costs at most one extra
// state plus its transitions; OmitVacuous trades the maximality property
// for a tighter object.
func BenchmarkAblationVacuous(b *testing.B) {
	svc, env := protocols.Service(), protocols.ColocatedB()
	for _, omit := range []bool{false, true} {
		name := "keep"
		if omit {
			name = "omit"
		}
		b.Run(name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := core.Derive(svc, env, core.Options{OmitVacuous: omit})
				if err != nil {
					b.Fatal(err)
				}
				states = res.Stats.FinalStates
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// Minimizing B (strong bisimulation) before deriving: reduces the tracked
// pair space when the composition has redundant states.
func BenchmarkAblationMinimizeFirst(b *testing.B) {
	svc := protocols.Service()
	b.Run("raw", func(b *testing.B) {
		env := protocols.ColocatedB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("minimized", func(b *testing.B) {
		env := protocols.ColocatedB().Minimize()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Derive(svc, env, core.Options{OmitVacuous: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// τ-compressing the environment before deriving: semantics-preserving
// (tested in internal/core) and measurably cheaper on rendezvous-heavy
// compositions.
func BenchmarkAblationCompressTau(b *testing.B) {
	svc := protocols.Service()
	b.Run("raw", func(b *testing.B) {
		env := protocols.SymmetricB()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = core.Derive(svc, env, core.Options{OmitVacuous: true, SafetyOnly: true})
		}
	})
	b.Run("compressed", func(b *testing.B) {
		env := protocols.SymmetricB().CompressTau()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = core.Derive(svc, env, core.Options{OmitVacuous: true, SafetyOnly: true})
		}
	})
}

// Robust derivation against k environment variants scales the tracked pair
// sets roughly linearly in k.
func BenchmarkAblationRobustVariants(b *testing.B) {
	svc := protocols.Service()
	for _, k := range []int{0, 1, 2} {
		envs := protocols.DeploymentEnvs(k)
		b.Run(fmt.Sprintf("variants=%d", len(envs)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DeriveRobust(svc, envs, core.Options{OmitVacuous: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The eventually-reliable model vs the plain fair-loss model: the state
// space doubles but the derived converter collapses to the canonical relay.
func BenchmarkAblationChannelModel(b *testing.B) {
	svc := protocols.Service()
	b.Run("fair-loss", func(b *testing.B) {
		env := protocols.ReliableNSB()
		var states int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
			if err != nil {
				b.Fatal(err)
			}
			states = res.Stats.FinalStates
		}
		b.ReportMetric(float64(states), "states")
	})
	b.Run("eventually-reliable", func(b *testing.B) {
		env := protocols.EventuallyReliableNSB()
		var states int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Derive(svc, env, core.Options{OmitVacuous: true})
			if err != nil {
				b.Fatal(err)
			}
			states = res.Stats.FinalStates
		}
		b.ReportMetric(float64(states), "states")
	})
}

// --- PR: fused index-space composition and the memoized progress phase ---
//
// Each specgen family runs through the two pipelines: eager string-keyed
// composition feeding Derive ("spec engine"), and the demand-driven
// composition whose exploration the safety phase drives ("lazy engine").
// BENCH_pr3.json and BENCH_pr4.json hold the same comparison as frozen
// history; these benchmarks keep it visible to `go test -bench`.

func benchFamilySpecEngine(b *testing.B, f specgen.Family) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := compose.Many(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Derive(f.Service, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFamilyLazyEngine also reports the last iteration's environment
// expansion time (spent inside the safety phase), its safety and progress
// phase walls, and the progress phase's slot masks computed (rebuilds) and
// converter states scanned (scans) per derivation, so a family with
// removals shows what its later sweeps recompute.
func benchFamilyLazyEngine(b *testing.B, f specgen.Family) {
	b.ReportAllocs()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		env, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.DeriveEnv(f.Service, env, core.Options{OmitVacuous: true})
		if err != nil {
			b.Fatal(err)
		}
		m = res.Stats.Metrics
	}
	b.ReportMetric(float64(m.EnvExpansionNs)/1e6, "expand-ms")
	b.ReportMetric(float64(m.SafetyWall.Nanoseconds())/1e6, "safety-ms")
	b.ReportMetric(float64(m.ProgressWall.Nanoseconds())/1e6, "progress-ms")
	b.ReportMetric(float64(m.ReadySetRebuilds), "rebuilds")
	b.ReportMetric(float64(m.ProgressScans), "scans")
}

func BenchmarkDeriveChainSpecEngine(b *testing.B)     { benchFamilySpecEngine(b, specgen.Chain(5)) }
func BenchmarkDeriveChainLazyEngine(b *testing.B)     { benchFamilyLazyEngine(b, specgen.Chain(5)) }
func BenchmarkDeriveChainDropSpecEngine(b *testing.B) { benchFamilySpecEngine(b, specgen.ChainDrop(4)) }
func BenchmarkDeriveChainDropLazyEngine(b *testing.B) { benchFamilyLazyEngine(b, specgen.ChainDrop(4)) }

// Frontier instances: demand-driven engine only — the eager pipelines
// materialize the full product, which a -benchtime 1x smoke cannot afford.
func BenchmarkDeriveChainFrontierLazyEngine(b *testing.B) {
	benchFamilyLazyEngine(b, specgen.Chain(8))
}
func BenchmarkDeriveChainDropFrontierLazyEngine(b *testing.B) {
	benchFamilyLazyEngine(b, specgen.ChainDrop(7))
}
func BenchmarkDeriveRingFrontierLazyEngine(b *testing.B) {
	benchFamilyLazyEngine(b, specgen.Ring(6))
}

// The frontier rows EXPERIMENTS.md reports: chaindrop(8), the derive-deep
// family (393,216 composite states), chain(9) (1,048,576) and chain(10)
// (4,194,304). Their names keep them out of `make benchsmoke`; run one with
// `go test -run '^$' -bench FrontierChain10 -benchtime 1x .`.
func BenchmarkFrontierChainDrop8(b *testing.B) { benchFrontier(b, specgen.ChainDrop(8), frontierOpts) }
func BenchmarkFrontierChain9(b *testing.B)     { benchFrontier(b, specgen.Chain(9), frontierOpts) }
func BenchmarkFrontierChain10(b *testing.B)    { benchFrontier(b, specgen.Chain(10), frontierOpts) }

// frontierOpts are the options of the single-worker frontier rows.
var frontierOpts = core.Options{OmitVacuous: true}

// BenchmarkFrontierWorkers is the per-phase Workers 1/2 row: chaindrop(8),
// ring(6) and chain(9) at each worker count. Options.Workers parallelizes
// the safety phase only, so progress-ms should not move with it. On a
// machine with fewer cores than workers no row is a scaling claim. Run it
// with `go test -run '^$' -bench FrontierWorkers -benchtime 1x .`.
func BenchmarkFrontierWorkers(b *testing.B) {
	for _, f := range []specgen.Family{specgen.ChainDrop(8), specgen.Ring(6), specgen.Chain(9)} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", f.Name, workers), func(b *testing.B) {
				benchFrontier(b, f, core.Options{OmitVacuous: true, Workers: workers})
			})
		}
	}
}

// benchFrontier derives f over its lazy composition with opts once per
// iteration. Beside the last derivation's wall time from composition to
// result (derive-ms), expansion time and phase walls, it reports what that
// derivation allocated (derive-MiB), the process's peak RSS so far
// (peak-RSS-MiB), and, from Metrics, the bytes per discovered composite
// state of each structure: row records, row arenas, state identity (keys
// and intern index), pair sets and the progress store.
func benchFrontier(b *testing.B, f specgen.Family, opts core.Options) {
	var m core.Metrics
	var alloc uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		start := time.Now()
		env, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.DeriveEnv(f.Service, env, opts)
		if err != nil {
			b.Fatal(err)
		}
		wall = time.Since(start)
		goruntime.ReadMemStats(&after)
		alloc = after.TotalAlloc - before.TotalAlloc
		m = res.Stats.Metrics
	}
	b.ReportMetric(float64(wall.Nanoseconds())/1e6, "derive-ms")
	b.ReportMetric(float64(m.EnvExpansionNs)/1e6, "expand-ms")
	b.ReportMetric(float64(m.SafetyWall.Nanoseconds())/1e6, "safety-ms")
	b.ReportMetric(float64(m.ProgressWall.Nanoseconds())/1e6, "progress-ms")
	b.ReportMetric(float64(alloc)/(1<<20), "derive-MiB")
	b.ReportMetric(peakRSSMiB(), "peak-RSS-MiB")
	states := float64(m.EnvStatesTotal)
	for _, st := range []struct {
		name  string
		bytes int64
	}{
		{"records", m.RowRecordBytes},
		{"arenas", m.ArenaBytes},
		{"intern", m.InternBytes},
		{"pairs", m.PairArenaBytes},
		{"progress", m.ProgressBytes},
	} {
		b.ReportMetric(float64(st.bytes)/states, st.name+"-B/state")
	}
}

// BenchmarkLazyExpand saturates the composite products of ring(6)
// (147,456 states, hashed intern tier) and chaindrop(8) (393,216 states,
// dense tier) through Lazy.Rows, in id order, with no deriver attached, so
// it measures expansion alone: it reports the wall time (ns/state) and the
// process CPU time, garbage collection included (cpu-ns/state), per
// expanded state. `make benchsmoke` runs it once.
func BenchmarkLazyExpand(b *testing.B) {
	for _, f := range []specgen.Family{specgen.Ring(6), specgen.ChainDrop(8)} {
		b.Run(f.Name, func(b *testing.B) {
			states := 0
			cpu0 := processCPU()
			for i := 0; i < b.N; i++ {
				env, err := compose.LazyMany(f.Components...)
				if err != nil {
					b.Fatal(err)
				}
				for st := 0; st < env.NumStates(); st++ {
					env.Rows(spec.State(st))
				}
				n, _, _ := env.ExpansionStats()
				states += n
			}
			cpu := processCPU() - cpu0
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(states), "ns/state")
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(states), "cpu-ns/state")
		})
	}
}

// processCPU returns this process's user plus system CPU time so far, from
// getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns this process's peak resident set size so far, from
// getrusage.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if goruntime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20) // bytes
	}
	return float64(ru.Maxrss) / (1 << 10) // KiB
}

// The allocation-regression smokes: a demand-driven derivation must stay
// under a pinned heap budget. Each ceiling is ~1.5× the measured cost when
// it was set, so ordinary drift passes and a lost arena-reuse or
// growth-policy regression — the class of bug that once cost +190 MB on
// chain(9) — fails the benchsmoke gate instead of landing silently.
// chain(7) (23.5 MiB measured, pinned at 35 MiB) has nine huge converter
// states; ring(5) (74.0 MiB measured; its 110 MiB pin, ~1.49×, was set
// when it cost ~84 MiB and is only ever tightened) has 5,152 small ones, so
// between them they cover both shapes of progress sweep, and ring(5) also
// emits a 5,152-state converter. Each run reports its cost as derive-MiB.

func BenchmarkDeriveAllocBudgetChain7(b *testing.B) {
	benchAllocBudget(b, specgen.Chain(7), 35<<20)
}

func BenchmarkDeriveAllocBudgetRing5(b *testing.B) {
	benchAllocBudget(b, specgen.Ring(5), 110<<20)
}

// benchAllocBudget derives f once per iteration and fails when a derivation
// allocates more than allocCeiling bytes. The process-wide Sys check is a
// gross leak backstop; it is process-global (earlier benchmarks in the same
// run contribute), hence the slack.
func benchAllocBudget(b *testing.B, f specgen.Family, allocCeiling uint64) {
	const sysCeiling = 2 << 30
	b.ReportAllocs()
	var got uint64
	for i := 0; i < b.N; i++ {
		env, err := compose.LazyMany(f.Components...)
		if err != nil {
			b.Fatal(err)
		}
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		if _, err := core.DeriveEnv(f.Service, env, core.Options{OmitVacuous: true}); err != nil {
			b.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got > allocCeiling {
			b.Fatalf("%s derivation allocated %d MB, budget is %d MB",
				f.Name, got>>20, allocCeiling>>20)
		}
		if after.Sys > sysCeiling {
			b.Fatalf("process Sys grew to %d MB, ceiling is %d MB", after.Sys>>20, sysCeiling>>20)
		}
	}
	b.ReportMetric(float64(got)/(1<<20), "derive-MiB")
}

// BenchmarkDerivePruneMissAllocBudget gates what one quotd cache miss
// allocates, layer by layer, on each family the serve benchmark asks for:
// parsing one component from its text, deriving over the lazy composition
// (compose.LazyMany plus core.DeriveEnvsContext), and pruning over the same
// composition (core.PruneEnvs). The prune is measured twice. Cold, with no
// kept checker (core.ReleasePruneStorage first), as the first prune of a
// process pays it, or one that finds the kept checker in use. Warm, right
// after, on the checker storage the cold prune left behind, as a serving
// quotd pays it. Each ceiling is ~1.5× the layer's measured cost when it
// was set, except the cold prune's, which are the ceilings set before
// checker storage was kept and still hold. Before parse and derive scratch
// was sized to the input, parse took ~69 KB per spec and derive 1.25–2.0
// MB per family, so a return of fixed-size scratch fails here.
func BenchmarkDerivePruneMissAllocBudget(b *testing.B) {
	// Measured when set (bytes): parse 3,096 (ring(2) 5,880); derive
	// 93k / 163k / 128k / 263k / 205k; cold prune 123k / 498k / 123k /
	// 498k / 117k (91k / 364k / 91k / 364k / 87k before the checker kept
	// τ* and configurations for its candidates); warm prune 6,488 /
	// 6,840 / 6,512 / 6,864 / 43,376.
	budgets := []struct {
		family                     string
		parse, derive, cold, prune uint64 // KiB
	}{
		{"chain(2)", 5, 137, 140, 10},
		{"chain(3)", 5, 240, 550, 11},
		{"chaindrop(2)", 5, 187, 140, 10},
		{"chaindrop(3)", 5, 386, 550, 11},
		{"ring(2)", 9, 301, 130, 64},
	}
	for _, bud := range budgets {
		f, err := specgen.ParseFamily(bud.family)
		if err != nil {
			b.Fatal(err)
		}
		text := dsl.String(f.Components[0])
		b.Run(bud.family, func(b *testing.B) {
			var parse, derive, cold, prune uint64
			for i := 0; i < b.N; i++ {
				var m1, m2, m3, m4 goruntime.MemStats
				goruntime.GC()
				parse = minAlloc(5, func() {
					if _, err := dsl.ParseString(text); err != nil {
						b.Fatal(err)
					}
				})
				goruntime.ReadMemStats(&m1)
				env, err := compose.LazyMany(f.Components...)
				if err != nil {
					b.Fatal(err)
				}
				envs := []core.Environment{env}
				res, err := core.DeriveEnvsContext(context.Background(), f.Service, envs, core.Options{OmitVacuous: true, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				goruntime.ReadMemStats(&m2)
				core.ReleasePruneStorage()
				if _, err := core.PruneEnvs(f.Service, envs, res.Converter); err != nil {
					b.Fatal(err) // cold: no kept checker
				}
				goruntime.ReadMemStats(&m3)
				if _, err := core.PruneEnvs(f.Service, envs, res.Converter); err != nil {
					b.Fatal(err) // warm: the first prune's checker, kept
				}
				goruntime.ReadMemStats(&m4)
				derive, cold, prune = m2.TotalAlloc-m1.TotalAlloc, m3.TotalAlloc-m2.TotalAlloc, m4.TotalAlloc-m3.TotalAlloc
				for _, l := range []struct {
					layer       string
					got, budget uint64
				}{{"parse", parse, bud.parse << 10}, {"derive", derive, bud.derive << 10},
					{"cold prune", cold, bud.cold << 10}, {"prune", prune, bud.prune << 10}} {
					if l.got > l.budget {
						b.Errorf("%s: %s allocated %d bytes, budget is %d", bud.family, l.layer, l.got, l.budget)
					}
				}
			}
			b.ReportMetric(float64(parse), "parse-B")
			b.ReportMetric(float64(derive), "derive-B")
			b.ReportMetric(float64(cold), "cold-prune-B")
			b.ReportMetric(float64(prune), "prune-B")
		})
	}
}

// minAlloc returns the fewest bytes f allocated over n runs, each between
// its own pair of ReadMemStats calls. TotalAlloc is process-wide, so one
// bracket also counts what other goroutines allocate meanwhile; on a layer
// of a few kilobytes that can read more than its budget, and the minimum
// over several runs reads f's own cost.
func minAlloc(n int, f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range n {
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		f()
		goruntime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// Composition alone, materialized as an eager *spec.Spec: compose.Many
// saturates the demand-driven product and builds the Spec. Ring components
// share events pairwise around a cycle, the worst case for a pairwise
// fold's intermediate products, which Many never builds.
func BenchmarkComposeRingEager(b *testing.B) {
	f := specgen.Ring(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compose.Many(f.Components...); err != nil {
			b.Fatal(err)
		}
	}
}
