package core_test

import (
	"testing"

	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/spec"
)

// wrappedEnv hides a spec behind the bare Environment surface: it is
// neither a *spec.Spec nor a *compose.Lazy, so the deriver knows nothing of
// how its rows were built.
type wrappedEnv struct{ core.Environment }

// envPin is the part of a derivation that the environment's row surface
// feeds: the converter, the phase counters, and the environment accounting.
type envPin struct {
	hash                         string
	safety, removed, iterations  int
	rebuilds, invalidated, scans int
	envExpanded, envTotal        int
}

// TestEnvCountersPinned pins the converter and the row-fed counters of
// derivations whose environments are not demand-driven: a plain spec, the
// DeploymentEnvs(0) robust pair, the robust-retry pair of
// TestProgressSweepAcrossWorkers, and the plain spec behind a wrapper type.
// The values are those of the engine that copied these environments into
// its own eager tables; serving them as integer rows must not move them.
func TestEnvCountersPinned(t *testing.T) {
	alt := mustBuild(t, spec.NewBuilder("S").Init("v0").Ext("v0", "acc", "v1").Ext("v1", "del", "v0"))
	retry := func(from, to string) *spec.Spec {
		bb := spec.NewBuilder("B").Init("b0")
		bb.Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
		bb.Ext("b1", "y", "b0").Ext("b2", "y", "b2")
		if from != "" {
			bb.Int(from, to)
		}
		return mustBuild(t, bb)
	}
	envs := func(bs ...*spec.Spec) []core.Environment {
		out := make([]core.Environment, len(bs))
		for i, b := range bs {
			out[i] = b
		}
		return out
	}
	b18 := protocols.TransportB18()
	fig18 := envPin{
		"c1fa63cf0d736443488a53f40901a7b834abd9e8dbb9bf1fb4d96aab953a8477",
		420, 254, 3, 5324, 154, 456, 10200, 10200}
	systems := []struct {
		name string
		a    *spec.Spec
		bs   []core.Environment
		want envPin
	}{
		{"fig18", protocols.CST(), envs(b18), fig18},
		{"deploy-robust", protocols.Service(), envs(protocols.DeploymentEnvs(0)...), envPin{
			"c8040ca9852fd546adbf6fa0c82d348b3eba3530f62f3e67ab2d71ed7562f7b9",
			63, 39, 3, 917, 19, 72, 1392, 1392}},
		{"robust-retry", alt, envs(retry("", ""), retry("b2", "b1")), envPin{
			"c973315ffc1ab01eec6e3f986bb8d7674fcb260d7232f147eaadb43309debf70",
			2, 0, 1, 10, 0, 2, 6, 6}},
		{"fig18-wrapped", protocols.CST(), []core.Environment{wrappedEnv{b18}}, fig18},
	}
	for _, sys := range systems {
		for _, w := range []int{1, 2} {
			res, err := core.DeriveEnvsContext(t.Context(), sys.a, sys.bs, core.Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sys.name, w, err)
			}
			s, m := res.Stats, res.Stats.Metrics
			got := envPin{
				hash:   res.Converter.Hash(),
				safety: s.SafetyStates, removed: s.RemovedStates, iterations: s.ProgressIterations,
				rebuilds: m.ReadySetRebuilds, invalidated: m.TauInvalidated, scans: m.ProgressScans,
				envExpanded: m.EnvStatesExpanded, envTotal: m.EnvStatesTotal,
			}
			if got != sys.want {
				t.Errorf("%s workers=%d: got %#v, pinned %#v", sys.name, w, got, sys.want)
			}
		}
	}
}
