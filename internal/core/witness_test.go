package core

import (
	"errors"
	"fmt"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// TestWitnessTracesPinned pins the exact counterexample of safety and
// progress failures: the run of B that a NoQuotientError carries. It covers
// a single spec, two robust variants (where the failing variant is not the
// first seed) and a demand-driven composition (where the search crosses
// B's internal moves), at workers 1 and 2.
func TestWitnessTracesPinned(t *testing.T) {
	// A one-lane chain whose receiver never delivers: the converter can take
	// frames but B never emits del, so every run stalls.
	chain := specgen.Chain(1)
	stalled := append([]*spec.Spec(nil), chain.Components...)
	stalled[len(stalled)-1] = build(t, spec.NewBuilder("rcv").Event("del").
		Init("r0").Ext("r0", "+y", "r1"))

	// Two acceptances, then one delivery: progress first fails two events
	// deep, at v2, where only del is acceptable.
	twoThenOne := build(t, spec.NewBuilder("S2").
		Init("v0").Ext("v0", "acc", "v1").Ext("v1", "acc", "v2").Ext("v2", "del", "v0"))

	cases := []struct {
		name  string
		phase string
		want  string
		run   func(Options) (*Result, error)
	}{
		{"spec-safety", "safety", "bad", func(o Options) (*Result, error) {
			b := spec.NewBuilder("B")
			b.Init("b0").Ext("b0", "bad", "b1").Ext("b1", "acc", "b2").Ext("b0", "x", "b0")
			a := build(t, spec.NewBuilder("S").Init("v0").Ext("v0", "acc", "v1").Event("bad"))
			return Derive(a, build(t, b), o)
		}},
		{"spec-progress", "progress", "acc", func(o Options) (*Result, error) {
			bDoomed := build(t, spec.NewBuilder("B").Event("del").
				Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2"))
			return Derive(altService(t), bDoomed, o)
		}},
		{"robust-safety", "safety", "acc del del", func(o Options) (*Result, error) {
			// The second variant delivers twice on its own after a silent move.
			dup := build(t, spec.NewBuilder("B2").Event("x").
				Init("b0").Ext("b0", "acc", "b1").Int("b1", "b2").
				Ext("b2", "del", "b3").Ext("b3", "del", "b0"))
			return DeriveRobust(altService(t), []*spec.Spec{relayB(t), dup}, o)
		}},
		{"robust-progress", "progress", "acc acc", func(o Options) (*Result, error) {
			// The second variant wedges after relaying.
			ok := build(t, spec.NewBuilder("B1").
				Init("b0").Ext("b0", "acc", "b1").Ext("b1", "acc", "b2").
				Ext("b2", "x", "b3").Ext("b3", "del", "b0"))
			wedged := build(t, spec.NewBuilder("B2").Event("del").
				Init("b0").Ext("b0", "acc", "b1").Ext("b1", "acc", "b2").
				Ext("b2", "x", "b3"))
			return DeriveRobust(twoThenOne, []*spec.Spec{ok, wedged}, o)
		}},
		{"lazy-safety", "safety", "acc acc", func(o Options) (*Result, error) {
			env, err := compose.LazyMany(chain.Components...)
			if err != nil {
				return nil, err
			}
			return DeriveEnv(altService(t), env, o)
		}},
		{"lazy-progress", "progress", "acc acc", func(o Options) (*Result, error) {
			env, err := compose.LazyMany(stalled...)
			if err != nil {
				return nil, err
			}
			return DeriveEnv(twoThenOne, env, o)
		}},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2} {
			_, err := c.run(Options{Workers: w})
			var nq *NoQuotientError
			if !errors.As(err, &nq) {
				t.Fatalf("%s workers=%d: want NoQuotientError, got %v", c.name, w, err)
			}
			got := fmt.Sprint(nq.Witness())
			if nq.Phase() != c.phase || got != "["+c.want+"]" {
				t.Errorf("%s workers=%d: phase %s trace %s, pinned %s [%s]",
					c.name, w, nq.Phase(), got, c.phase, c.want)
			}
		}
	}
}
