package convrt

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"protoquot/internal/core"
	"protoquot/internal/protocols"
	rt "protoquot/internal/runtime"
	"protoquot/internal/spec"
)

func compileLoop(t testing.TB) (*Table, *spec.Spec) {
	t.Helper()
	s, err := spec.NewBuilder("ab-loop").
		State("s0").State("s1").State("s2").
		Init("s0").
		Ext("s0", "+a", "s1").
		Ext("s1", "-b", "s0").
		Ext("s1", "+a", "s2").
		Ext("s2", "-b", "s0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return tab, s
}

func TestRunPerfectWire(t *testing.T) {
	tab, ref := compileLoop(t)
	rep, err := Run(context.Background(), Config{
		Table: tab, Reference: ref,
		Sessions: 50, StepsPerSession: 200, Workers: 4,
		Seed: 1, ConformEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsCompleted != 50 || rep.SessionsFailed != 0 || rep.Canceled != 0 {
		t.Fatalf("sessions: completed=%d failed=%d canceled=%d, want 50/0/0",
			rep.SessionsCompleted, rep.SessionsFailed, rep.Canceled)
	}
	if rep.Steps != 50*200 {
		t.Fatalf("steps = %d, want %d", rep.Steps, 50*200)
	}
	if rep.Violations != 0 {
		t.Fatalf("violations = %d: %+v", rep.Violations, rep.ViolationDetails)
	}
	if rep.Audits == 0 {
		t.Fatal("conformance audits never ran")
	}
	// A perfect wire never discards: every offer executes.
	if rep.Stale != 0 || rep.Dropped+rep.Corrupted+rep.Duplicated+rep.Reordered+rep.Delayed != 0 {
		t.Fatalf("perfect wire saw faults: %+v", rep.Metrics)
	}
	if rep.Proposed != rep.Steps {
		t.Fatalf("proposed = %d, want %d (no retransmission on a perfect wire)", rep.Proposed, rep.Steps)
	}
	if rep.MsgsPerSec <= 0 {
		t.Fatalf("MsgsPerSec = %v", rep.MsgsPerSec)
	}
	if rep.P99StepNs < rep.P50StepNs || rep.P50StepNs <= 0 {
		t.Fatalf("latency quantiles p50=%d p99=%d", rep.P50StepNs, rep.P99StepNs)
	}
}

func TestRunUnderFaults(t *testing.T) {
	tab, ref := compileLoop(t)
	faults, err := rt.ParseFaults("loss=0.1,dup=0.1,reorder=0.1,corrupt=0.05,delay=20us")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Table: tab, Reference: ref,
		Sessions: 40, StepsPerSession: 150, Workers: 4, Window: 4,
		Faults: faults, Seed: 7, ConformEvery: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsCompleted != 40 {
		t.Fatalf("completed = %d/40 (failed=%d starved=%d): %+v",
			rep.SessionsCompleted, rep.SessionsFailed, rep.Starved, rep.ViolationDetails)
	}
	if rep.Violations != 0 {
		t.Fatalf("violations = %d: %+v", rep.Violations, rep.ViolationDetails)
	}
	// Every configured fault class must have fired at these rates and
	// volumes — the load harness exercises what it claims to.
	if rep.Dropped == 0 || rep.Corrupted == 0 || rep.Duplicated == 0 || rep.Reordered == 0 || rep.Delayed == 0 {
		t.Fatalf("fault classes silent: %+v", rep.Metrics)
	}
	// Loss forces retransmission; duplication and gaps force stale
	// discards.
	if rep.Proposed <= rep.Steps {
		t.Fatalf("proposed = %d, steps = %d: lossy wire should over-offer", rep.Proposed, rep.Steps)
	}
	if rep.Stale == 0 {
		t.Fatal("no stale discards under dup+reorder")
	}
}

// TestRunDeterministicAcrossWorkers pins the reproducibility contract:
// counters are a pure function of (seed, config), independent of worker
// count and scheduling, because every session owns its stream.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	tab, ref := compileLoop(t)
	faults, err := rt.ParseFaults("loss=0.15,dup=0.1,reorder=0.2")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Metrics {
		rep, err := Run(context.Background(), Config{
			Table: tab, Reference: ref,
			Sessions: 30, StepsPerSession: 100, Workers: workers,
			Faults: faults, Seed: 42, ConformEvery: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := rep.Metrics
		// Latency is timing-dependent by nature.
		m.P50StepNs, m.P99StepNs = 0, 0
		return m
	}
	a, b, c := run(1), run(4), run(4)
	if a != b || b != c {
		t.Fatalf("metrics differ across runs:\n1 worker:  %+v\n4 workers: %+v\n4 workers: %+v", a, b, c)
	}
}

// TestLiveMetricsUnderRace runs four workers through delay faults while
// they share one immutable table, then checks the metrics the report
// merges from the per-worker counters once the workers return. Meaningful
// under -race: the table, the reference and the merge are the only state
// the workers share. The merged counters must show the fleet completed
// cleanly and match a single-worker run of the same seed.
func TestLiveMetricsUnderRace(t *testing.T) {
	tab, ref := compileLoop(t)
	faults, err := rt.ParseFaults("loss=0.05,dup=0.05,delay=50us")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Metrics {
		rep, err := Run(context.Background(), Config{
			Table: tab, Reference: ref,
			Sessions: 64, StepsPerSession: 400, Workers: workers,
			Faults: faults, Seed: 11, ConformEvery: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.SessionsCompleted != 64 || rep.Violations != 0 {
			t.Fatalf("%d workers: completed=%d violations=%d: %+v", workers, rep.SessionsCompleted, rep.Violations, rep.ViolationDetails)
		}
		m := rep.Metrics
		if m.Steps == 0 || m.Delayed == 0 || m.Audits == 0 || m.P99StepNs < m.P50StepNs {
			t.Fatalf("%d workers: implausible merged metrics: %+v", workers, m)
		}
		m.P50StepNs, m.P99StepNs = 0, 0
		return m
	}
	if a, b := run(4), run(1); a != b {
		t.Fatalf("merged metrics differ:\n4 workers: %+v\n1 worker:  %+v", a, b)
	}
}

// TestRunDetectsMiscompiledTable hand-corrupts a compiled table's successor
// and checks the online safety conformance path latches it.
func TestRunDetectsMiscompiledTable(t *testing.T) {
	tab, ref := compileLoop(t)
	// Redirect s1 --(-b)--> s0 to s2: the executed trace diverges from the
	// specification at the following event.
	ev := tab.EventID("-b")
	tab.next[1*tab.numEvents+ev] = 2
	tab.finish()
	rep, err := Run(context.Background(), Config{
		Table: tab, Reference: ref,
		Sessions: 4, StepsPerSession: 100, Workers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 || rep.SessionsFailed == 0 {
		t.Fatalf("miscompiled table not caught: %+v", rep.Metrics)
	}
	if len(rep.ViolationDetails) == 0 {
		t.Fatal("no violation details recorded")
	}
	v := rep.ViolationDetails[0]
	if v.Kind != "safety" {
		t.Fatalf("violation kind %q, want safety", v.Kind)
	}
	// The table reaches s2 while the reference is back at s0, where only
	// +a is enabled.
	if want := []spec.Event{"+a"}; !slices.Equal(v.Enabled, want) {
		t.Fatalf("violation Enabled = %v, want the reference's %v", v.Enabled, want)
	}
}

// TestRunDetectsRestrictiveTable drops a transition from the table. The
// session never offers the missing event (it drives from the table), so
// only the sampled enabled-set audit can see the divergence.
func TestRunDetectsRestrictiveTable(t *testing.T) {
	tab, ref := compileLoop(t)
	// Remove s1 --(+a)--> s2; s1 keeps -b, so sessions still make progress.
	ev := tab.EventID("+a")
	tab.next[1*tab.numEvents+ev] = NoState
	tab.finish()
	rep, err := Run(context.Background(), Config{
		Table: tab, Reference: ref,
		Sessions: 4, StepsPerSession: 100, Workers: 2, Seed: 3, ConformEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatalf("restrictive table not caught by enabled-set audit: %+v", rep.Metrics)
	}
	found := false
	for _, v := range rep.ViolationDetails {
		if v.Kind == "enabled-set" {
			found = true
			if len(v.Enabled) <= len(v.TableEnabled) {
				t.Fatalf("audit detail inverted: spec %v vs table %v", v.Enabled, v.TableEnabled)
			}
		}
	}
	if !found {
		t.Fatalf("no enabled-set violation in %+v", rep.ViolationDetails)
	}
	if want := []spec.Event{"+a", "-b"}; !slices.Equal(rep.ViolationDetails[0].Enabled, want) {
		t.Fatalf("violation Enabled = %v, want the reference's %v", rep.ViolationDetails[0].Enabled, want)
	}
}

func TestRunCancellation(t *testing.T) {
	tab, ref := compileLoop(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Config{
		Table: tab, Reference: ref,
		Sessions: 8, StepsPerSession: 1 << 20, Workers: 2, Seed: 1,
	})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if rep == nil {
		t.Fatal("canceled run must still report partial metrics")
	}
	if rep.Canceled == 0 {
		t.Fatalf("canceled = %d, want > 0", rep.Canceled)
	}
}

// TestRunWithoutReference pins pure-throughput mode: a nil Reference with
// a positive ConformEvery must run to completion with conformance fully
// off (no monitor, no audits) rather than dereferencing a nil monitor.
func TestRunWithoutReference(t *testing.T) {
	tab, _ := compileLoop(t)
	faults, err := rt.ParseFaults("loss=0.1,dup=0.1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Table:           tab,
		Sessions:        32,
		StepsPerSession: 100,
		Workers:         4,
		Seed:            11,
		ConformEvery:    8,
		Faults:          faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SessionsCompleted != 32 || rep.SessionsFailed != 0 {
		t.Fatalf("completed=%d failed=%d, want 32/0", rep.SessionsCompleted, rep.SessionsFailed)
	}
	if rep.Audits != 0 || rep.Violations != 0 {
		t.Errorf("audits=%d violations=%d, want 0/0 without a reference", rep.Audits, rep.Violations)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("nil table accepted")
	}
	empty, err := spec.NewBuilder("empty").State("s0").Init("s0").Build()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compile(empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Table: tab}); err == nil {
		t.Fatal("zero-transition table accepted")
	}
	if _, err := NewRunner(Config{Table: mustCompileLoop(t)}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []rt.FaultModel{{Loss: math.NaN()}, {Dup: -0.1}, {Reorder: 1.5}, {Corrupt: math.Inf(1)}} {
		if _, err := NewRunner(Config{Table: mustCompileLoop(t), Faults: f}); err == nil {
			t.Errorf("fault model %+v accepted", f)
		}
	}
	r, _ := NewRunner(Config{Table: mustCompileLoop(t)})
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("second Run on one Runner accepted")
	}
}

func mustCompileLoop(t *testing.T) *Table {
	t.Helper()
	tab, _ := compileLoop(t)
	return tab
}

// TestSessionPumpDoesNotAllocate pins the acceptance criterion: the
// steady-state execution path — deliver, table step, latency observe,
// fresh offer burst — performs zero allocations per step once a session is
// initialized. TestSessionPumpCheckedDoesNotAllocate extends it to the
// conformance monitor.
func TestSessionPumpDoesNotAllocate(t *testing.T) {
	tab, _ := compileLoop(t)
	m := &workerMetrics{vioMu: &sync.Mutex{}, vios: &[]Violation{}, vioCap_: 1}
	var s Session
	s.init(0, tab, nil, 99, 4, 1<<30, 0)
	var now int64
	allocs := testing.AllocsPerRun(2000, func() {
		now += int64(time.Millisecond)
		if !s.pump(now, m) {
			t.Fatal("pump made no progress on a perfect wire")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state pump allocated %.1f per run, want 0", allocs)
	}
	if s.stepsDone == 0 || s.failed {
		t.Fatalf("session did not run: steps=%d failed=%v", s.stepsDone, s.failed)
	}
}

// TestSessionPumpWithFaultsDoesNotAllocate extends the zero-allocation
// contract to the fault-injection path (drop/dup/reorder draws, ring
// pushes) — everything except delay, whose wake path sleeps.
func TestSessionPumpWithFaultsDoesNotAllocate(t *testing.T) {
	s := pumpFaultyWire(t, false)
	if s.stepsDone == 0 {
		t.Fatal("session made no steps")
	}
}

// TestSessionPumpCheckedDoesNotAllocate is the faulty-wire pump with the
// conformance monitor attached and an enabled-set audit after every step:
// checking, too, allocates nothing.
func TestSessionPumpCheckedDoesNotAllocate(t *testing.T) {
	s := pumpFaultyWire(t, true)
	if s.stepsDone == 0 || s.failed {
		t.Fatalf("session did not run clean: steps=%d failed=%v", s.stepsDone, s.failed)
	}
}

// pumpFaultyWire asserts that pumping one session over a faulty wire
// allocates nothing, and returns the session for inspection. A checked
// session carries the monitor and audits after every step.
func pumpFaultyWire(t *testing.T, checked bool) *Session {
	t.Helper()
	tab, mon, conformEvery := pumpSetup(t, checked, 1)
	faults, err := rt.ParseFaults("loss=0.2,dup=0.2,reorder=0.2,corrupt=0.1")
	if err != nil {
		t.Fatal(err)
	}
	m := &workerMetrics{vioMu: &sync.Mutex{}, vios: &[]Violation{}, vioCap_: 1}
	s := &Session{}
	s.init(0, tab, mon, 123, 4, 1<<30, conformEvery)
	s.faults = newFaultSched(faults)
	var now int64
	allocs := testing.AllocsPerRun(2000, func() {
		now += int64(time.Millisecond)
		s.pump(now, m)
	})
	if allocs != 0 {
		t.Fatalf("faulty-wire pump allocated %.1f per run, want 0", allocs)
	}
	if conformEvery > 0 && m.Audits == 0 {
		t.Fatal("no enabled-set audit ran")
	}
	return s
}

func BenchmarkTableStep(b *testing.B) {
	tab, _ := compileLoop(b)
	st := tab.Init()
	var rng uint64 = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evs := tab.Enabled(st)
		rng = rng*6364136223846793005 + 1442695040888963407
		st, _ = tab.Step(st, evs[rng>>33%uint64(len(evs))])
	}
}

func BenchmarkSessionPump(b *testing.B) { benchmarkPump(b, false) }

// BenchmarkSessionPumpChecked is BenchmarkSessionPump with the conformance
// monitor on and the default cmd/convrt audit period.
func BenchmarkSessionPumpChecked(b *testing.B) { benchmarkPump(b, true) }

// pumpSetup compiles the loop table and, for a checked session, its
// conformance monitor with the given audit period.
func pumpSetup(t testing.TB, checked bool, conformEvery int) (*Table, *monitor, int) {
	t.Helper()
	tab, ref := compileLoop(t)
	if !checked {
		return tab, nil, 0
	}
	mon, err := newMonitor(ref, tab.Events())
	if err != nil {
		t.Fatal(err)
	}
	return tab, mon, conformEvery
}

func benchmarkPump(b *testing.B, checked bool) {
	tab, mon, conformEvery := pumpSetup(b, checked, 64)
	m := &workerMetrics{vioMu: &sync.Mutex{}, vios: &[]Violation{}, vioCap_: 1}
	var s Session
	s.init(0, tab, mon, 99, 4, 1<<30, conformEvery)
	b.ReportAllocs()
	var now int64
	for i := 0; i < b.N; i++ {
		now += int64(time.Millisecond)
		s.pump(now, m)
	}
	if s.failed {
		b.Fatal("session failed")
	}
}

// TestFleetCountersPinned pins every counter of three fleets, at 1 and 2
// workers: how the pump counts, draws and indexes its ring may change,
// what a fleet does may not. The first fleet is make convrt-smoke's (the
// paper's Figure 14 converter, 1000 × 300, seed 1); the second adds burst
// losses and delay; the third runs a table with a three-way choice and a
// terminal state, so the modulo pick and resets are covered too.
func TestFleetCountersPinned(t *testing.T) {
	b := protocols.ColocatedB()
	res, err := core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := core.Prune(protocols.Service(), b, res.Converter)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := spec.NewBuilder("fan").
		State("s0").State("s1").State("s2").State("s3").
		Init("s0").
		Ext("s0", "a", "s1").Ext("s0", "b", "s2").Ext("s0", "c", "s3").
		Ext("s1", "d", "s0").
		Ext("s2", "e", "s3").Ext("s2", "f", "s0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		ref             *spec.Spec
		faults          string
		sessions, steps int
		seed            int64
		conformEvery    int
		want            Metrics
	}{
		{"convrt-smoke", paper, "loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02", 1000, 300, 1, 64, Metrics{
			Steps: 300000, Proposed: 372388, Stale: 62304,
			Dropped: 18733, Corrupted: 7193, Duplicated: 17396, Reordered: 12733,
			Audits: 4000, SessionsCompleted: 1000,
		}},
		{"burst-delay", paper, "loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02,burst=3,delay=5us", 200, 300, 1, 64, Metrics{
			Steps: 60000, Proposed: 78008, Stale: 12221,
			Dropped: 7664, Corrupted: 1334, Duplicated: 3534, Reordered: 2473, Delayed: 69000,
			Audits: 800, SessionsCompleted: 200,
		}},
		{"fan-burst", fan, "loss=0.1,dup=0.1,reorder=0.1,corrupt=0.05,burst=4", 64, 500, 5, 16, Metrics{
			Steps: 32000, Proposed: 49667, Stale: 8115,
			Dropped: 11193, Corrupted: 1844, Duplicated: 3546, Reordered: 2053,
			Resets: 9548, Audits: 1984, SessionsCompleted: 64,
		}},
	} {
		tab, err := Compile(c.ref)
		if err != nil {
			t.Fatal(err)
		}
		faults, err := rt.ParseFaults(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			rep, err := Run(context.Background(), Config{
				Table: tab, Reference: c.ref,
				Sessions: c.sessions, StepsPerSession: c.steps, Workers: workers, Window: 4,
				Faults: faults, Seed: c.seed, ConformEvery: c.conformEvery,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Metrics
			got.P50StepNs, got.P99StepNs = 0, 0
			if got != c.want {
				t.Errorf("%s, %d workers:\ngot  %+v\nwant %+v", c.name, workers, got, c.want)
			}
		}
	}
}

// TestSplitmixSeedsIndependent checks that neighbouring seeds give unrelated
// session streams: unmixed, session id's stream at seed s+1 was its stream
// at seed s one draw on, so consecutive seeds ran nearly the same fault
// schedule.
func TestSplitmixSeedsIndependent(t *testing.T) {
	const draws = 64
	for seed := int64(-2); seed < 40; seed++ {
		for _, id := range []uint64{0, 1, 7, 1000} {
			a, b := newSplitmix(seed, id), newSplitmix(seed+1, id)
			a.next()
			shared := 0
			for i := 0; i < draws; i++ {
				if a.next() == b.next() {
					shared++
				}
			}
			if shared > 0 {
				t.Fatalf("session %d: seed %d's stream is seed %d's one draw on (%d of %d draws shared)", id, seed+1, seed, shared, draws)
			}
		}
	}
}

// TestThresholdMatchesFloatDraw checks that the integer threshold decides
// every draw exactly as the float comparison it replaced, at both draws
// around each threshold and over a million seeded draws.
func TestThresholdMatchesFloatDraw(t *testing.T) {
	float := func(x uint64, p float64) bool { return float64(x>>11)/(1<<53) < p }
	ps := []float64{0, 0x1p-53, 0.05, 0.5, 1 - 0x1p-53, 1, 0.02, 1e-300}
	s := Session{rng: 1}
	for _, p := range ps {
		th := threshold(p)
		if want := uint64(math.Ceil(p * (1 << 53))); th != want {
			t.Fatalf("threshold(%g) = %d, want %d", p, th, want)
		}
		var edges []uint64
		if th > 0 {
			edges = append(edges, th-1)
		}
		if th < 1<<53 {
			edges = append(edges, th)
		}
		for _, k := range edges {
			for _, low := range []uint64{0, 1<<11 - 1} {
				x := k<<11 | low
				if got, want := x>>11 < th, float(x, p); got != want {
					t.Errorf("p=%g x>>11=%d: threshold says %v, float says %v", p, k, got, want)
				}
			}
		}
		for i := 0; i < 1_000_000; i++ {
			x := s.next64()
			if got, want := x>>11 < th, float(x, p); got != want {
				t.Fatalf("p=%g x=%#x: threshold says %v, float says %v", p, x, got, want)
			}
		}
	}
}

// TestHistogramQuantilesWithinBucketError checks the wait histogram's
// p50/p99 against the exact sorted quantiles of the same samples: each
// must lie within 1/16 of the exact value.
func TestHistogramQuantilesWithinBucketError(t *testing.T) {
	s := Session{rng: 7}
	for _, spread := range []uint{4, 12, 24, 40} {
		var h histogram
		samples := make([]int64, 100_000)
		for i := range samples {
			// Log-uniform durations in [1, 2^spread) ns.
			r := s.next64()
			e := r % uint64(spread)
			v := int64(1<<e | r>>8&(1<<e-1))
			samples[i] = v
			h.observe(v, 1)
		}
		slices.Sort(samples)
		p50, p99 := quantiles([]*histogram{&h})
		for _, q := range []struct {
			name string
			got  int64
			rank float64
		}{{"p50", p50, 0.50}, {"p99", p99, 0.99}} {
			exact := samples[int(q.rank*float64(len(samples)-1))]
			if diff := q.got - exact; diff*16 > exact || -diff*16 > exact {
				t.Errorf("spread 2^%d: %s = %d, exact %d: off by more than 1/16", spread, q.name, q.got, exact)
			}
		}
	}
	if p50, p99 := quantiles([]*histogram{{}}); p50 != 0 || p99 != 0 {
		t.Errorf("empty histogram quantiles = %d, %d, want 0, 0", p50, p99)
	}
	for b := 0; b < histBuckets-histSub; b++ {
		if got := bucketOf(bucketMid(b)); got != b {
			t.Fatalf("bucketOf(bucketMid(%d)) = %d", b, got)
		}
	}
}
