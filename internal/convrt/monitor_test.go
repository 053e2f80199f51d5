package convrt

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"protoquot/internal/dsl"
	"protoquot/internal/spec"
)

// monitorEquiv determinizes s over its own alphabet and walks the monitor
// and a spec.TraceTracker in lockstep along a seeded random walk. At every
// step the two must agree on every event's acceptance and on the enabled
// set, both as table ids and as the names the failure path reports; the
// walk mostly takes enabled events, sometimes arbitrary ones, so refusals
// are compared too. A deterministic s must determinize to exactly its
// reachable states.
func monitorEquiv(t *testing.T, s *spec.Spec, steps int, seed int64) {
	t.Helper()
	alpha := s.Alphabet()
	mon, err := newMonitor(s, alpha)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if s.Deterministic() && mon.numStates() != len(s.Reachable()) {
		t.Fatalf("%s: deterministic reference has %d reachable states, monitor %d",
			s.Name(), len(s.Reachable()), mon.numStates())
	}
	tr := s.Track()
	cur := int32(0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		want := tr.Enabled()
		ids := mon.enabled(cur)
		names := make([]spec.Event, len(ids))
		for j, ev := range ids {
			names[j] = alpha[ev]
		}
		if !slices.Equal(names, want) || !slices.Equal(mon.enabledNames(cur), want) || mon.outside[cur] {
			t.Fatalf("%s step %d: monitor enables %v (names %v, outside %v), tracker %v",
				s.Name(), i, names, mon.enabledNames(cur), mon.outside[cur], want)
		}
		for ev, e := range alpha {
			if accepts := mon.step(cur, int32(ev)) != NoState; accepts != slices.Contains(want, e) {
				t.Fatalf("%s step %d: monitor accepts %q = %v, tracker enables %v", s.Name(), i, e, accepts, want)
			}
		}
		if len(want) == 0 {
			cur = 0
			tr.Reset()
			continue
		}
		e := want[rng.Intn(len(want))]
		if rng.Intn(4) == 0 {
			e = alpha[rng.Intn(len(alpha))]
		}
		nxt := mon.step(cur, int32(slices.Index(alpha, e)))
		if ok := tr.Step(e); ok != (nxt != NoState) {
			t.Fatalf("%s step %d: %q accepted by tracker %v, by monitor %v", s.Name(), i, e, ok, nxt != NoState)
		}
		if nxt != NoState {
			cur = nxt
		}
	}
}

// TestMonitorMatchesTrackerFixtures runs monitorEquiv over every committed
// specs/ fixture, including the raw protocol machines Compile rejects: any
// specification may be a Config.Reference, and those are the ones with
// internal moves and nondeterminism for the subset construction to resolve.
// (checkDifferential runs it over the paper systems and protosmith
// converters.)
func TestMonitorMatchesTrackerFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	ineligible := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dsl.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, s := range ss {
			if !eligible(s) {
				ineligible++
			}
			t.Run(filepath.Base(f)+":"+s.Name(), func(t *testing.T) {
				monitorEquiv(t, s, 300, 0xC0FFEE)
			})
		}
	}
	if ineligible == 0 {
		t.Fatal("no fixture has internal moves or nondeterminism: corpus rotted")
	}
}

// TestRunDetectsReferenceEventOutsideTable gives the sessions a reference
// that enables an event the table's alphabet lacks. No executed event can
// reveal it; the enabled-set audit must.
func TestRunDetectsReferenceEventOutsideTable(t *testing.T) {
	tab, _ := compileLoop(t)
	ref, err := spec.NewBuilder("ab-loop-plus-c").
		State("s0").State("s1").State("s2").
		Init("s0").
		Ext("s0", "+a", "s1").
		Ext("s0", "+c", "s0").
		Ext("s1", "-b", "s0").
		Ext("s1", "+a", "s2").
		Ext("s2", "-b", "s0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		Table: tab, Reference: ref,
		Sessions: 4, StepsPerSession: 100, Workers: 2, Seed: 3, ConformEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 || len(rep.ViolationDetails) == 0 {
		t.Fatalf("reference event outside the table not caught: %+v", rep.Metrics)
	}
	v := rep.ViolationDetails[0]
	if v.Kind != "enabled-set" || v.State != "s0" ||
		!slices.Equal(v.Enabled, []spec.Event{"+a", "+c"}) ||
		!slices.Equal(v.TableEnabled, []spec.Event{"+a"}) {
		t.Fatalf("violation = %+v, want enabled-set at s0: spec [+a +c] vs table [+a]", v)
	}
}

// nthFromLast is the classic subset-construction worst case: traces over
// {a, b} whose n-th event from the end is a, as an (n+1)-state
// nondeterministic machine whose determinization has 2^n states.
func nthFromLast(t *testing.T, n int) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder(fmt.Sprintf("nth-from-last-%d", n)).Init("q0").
		Ext("q0", "a", "q0").Ext("q0", "b", "q0").Ext("q0", "a", "q1")
	for i := 1; i < n; i++ {
		from, to := fmt.Sprintf("q%d", i), fmt.Sprintf("q%d", i+1)
		b.Ext(from, "a", to).Ext(from, "b", to)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMonitorStateCap drives the determinization bound: under the default
// cap the n-th-from-last reference determinizes to exactly 2^n states, and
// under a lowered cap NewRunner refuses it with an error naming the
// reference and the cap.
func TestMonitorStateCap(t *testing.T) {
	const n = 8
	ref := nthFromLast(t, n)
	mon, err := newMonitor(ref, ref.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	if mon.numStates() != 1<<n {
		t.Fatalf("monitor has %d states, want 2^%d", mon.numStates(), n)
	}
	loop, err := spec.NewBuilder("ab-any").Init("s0").Ext("s0", "a", "s0").Ext("s0", "b", "s0").Build()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Compile(loop)
	if err != nil {
		t.Fatal(err)
	}
	saved := maxMonitorStates
	maxMonitorStates = 1<<n - 1
	defer func() { maxMonitorStates = saved }()
	_, err = NewRunner(Config{Table: tab, Reference: ref})
	if err == nil {
		t.Fatalf("NewRunner accepted a %d-state determinization under a cap of %d", 1<<n, maxMonitorStates)
	}
	for _, want := range []string{ref.Name(), fmt.Sprint(maxMonitorStates)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}
