package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// derive workloads re-execute themselves as a child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	// Under -race every child would otherwise sleep a second at exit.
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

// Every workload at a tiny size — small families, a small keyspace and
// cache, a small fleet — timed for tinySeconds. Run untraced and traced,
// each must check out clean and emit exactly the metrics BENCHMARK.json
// names.
var tinyWorkloads = []workload{
	{"derive-chaindrop", func(e *runEnv) (*outcome, error) { return runDerive(e, "chaindrop(3)") }},
	{"derive-ring", func(e *runEnv) (*outcome, error) { return runDerive(e, "ring(2)") }},
	{"serve", func(e *runEnv) (*outcome, error) {
		return runServe(e, serveConfig{families: []string{"chain(2)", "chaindrop(2)", "ring(1)"}, variants: 2,
			cacheEntries: 4, poolWorkers: 2, clients: 2, zipfS: 1.1, warmup: 10, setups: 2})
	}},
	{"operate", func(e *runEnv) (*outcome, error) {
		return runOperate(e, operateConfig{sessions: 20, steps: 50, faults: operateFaults.faults,
			conformEvery: 8, setups: 2})
	}},
}

const tinySeconds = 300 * time.Millisecond

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestTinyWorkloads(t *testing.T) {
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				env := &runEnv{seed: 7, seconds: tinySeconds, stderr: io.Discard}
				want := bf.EndToEnd
				if traced {
					env.tr = newTracer()
					want = bf.PerLayer
				}
				spansPath := filepath.Join(t.TempDir(), "spans.json")
				out, res, _, err := measure(w.run, env, spansPath)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("failed checks: %v", out.problems)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s: value %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, got.Value)
					}
				}
				if traced {
					checkSpanFile(t, spansPath)
				}
			})
		}
	}
}

// checkSpanFile re-reads the written spans: non-negative self times and
// children inside their parents.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run wrote no spans")
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %d", id, self)
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		file []benchMetric
		code []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark emits %d", c.kind, len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
			if !metricName.MatchString(m.Name) || m.Unit == "" {
				t.Errorf("%s: bad name or unit: %q %q", c.kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s: better is %q", c.kind, m.Name, m.Better)
			}
		}
	}
	setup := 0.0
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s: bound %v is outside (0, 0.25] or above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

// The tiny derivations reproduce the pinned golden fixtures, which were
// recorded from the pre-optimization engine, and the hashes pinned here.
func TestTinyConvertersMatchGoldens(t *testing.T) {
	for _, name := range []string{"chain(2)", "chain(3)", "chaindrop(2)", "chaindrop(3)", "ring(1)", "ring(2)"} {
		sys, err := familySystem(name)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := deriveStage(nil, 0, 0, sys)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		got := fmt.Sprintf(
			"exists: %v\nerr: \nsafety_states: %d\nsafety_transitions: %d\npair_set_total: %d\nprogress_iterations: %d\nremoved_states: %d\nfinal_states: %d\nfinal_transitions: %d\nconverter:\n%s",
			res.Exists, s.SafetyStates, s.SafetyTransitions, s.PairSetTotal, s.ProgressIterations,
			s.RemovedStates, s.FinalStates, s.FinalTransitions, res.Converter.Format())
		want, err := os.ReadFile(filepath.Join("..", "testdata", "golden", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s diverged from its golden fixture:\n%s", name, got)
		}
		if err := derivedPins[name].check(&childReport{Hash: res.Converter.Hash(), SafetyStates: s.SafetyStates,
			FinalStates: s.FinalStates, RemovedStates: s.RemovedStates}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSpanChecks(t *testing.T) {
	tree := []span{
		{Name: "root", Trace: 1, ID: 1, Start: 0, End: 100},
		{Name: "a", Trace: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", Trace: 1, ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", Trace: 1, ID: 4, Parent: 2, Start: 10, End: 40},
	}
	if err := checkSpans(tree); err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tree)
	for id, want := range map[int64]int64{1: 50, 2: 0, 3: 30, 4: 30} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	bad := append(tree[:3:3], span{Name: "late", Trace: 1, ID: 5, Parent: 2, Start: 20, End: 50})
	if err := checkSpans(bad); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	lower := benchMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		after []float64
		want  string
	}{
		{[]float64{101, 100, 102, 99, 100, 101}, "pass"},
		{[]float64{120, 121, 119, 120, 122, 118}, "fail"},
		{[]float64{80, 120, 100, 140, 60, 100}, "unresolved"},
		{[]float64{50, 51, 49, 50, 52, 48}, "pass"},
	} {
		if _, v := verdict(lower, steady, c.after); v != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.after, v, c.want)
		}
	}
}
