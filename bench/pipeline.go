package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// The pipeline stages below are the benchmark's calls into each layer, in
// the order quotd runs them on a cache miss (server.executeDerivation):
// parse and key the request, derive over the demand-driven composition,
// prune, compile the table, render the envelope. Each stage records one span
// when traced; the untraced run calls the same code with a nil tracer.

// deriveOptions are the engine options every workload derives with. One
// worker, because the benchmark machine has two shared cores and the engine
// is bit-identical at every worker count; no vacuous state, as the golden
// fixtures.
var deriveOptions = core.Options{OmitVacuous: true, Workers: 1}

// system is one conversion problem: a service and the components whose
// composition is the environment.
type system struct {
	name  string
	a     *spec.Spec
	comps []*spec.Spec
}

func familySystem(name string) (system, error) {
	f, err := specgen.ParseFamily(name)
	if err != nil {
		return system{}, err
	}
	return system{name: f.Name, a: f.Service, comps: f.Components}, nil
}

// fig14System is the paper's Figure 13 configuration, whose pruned quotient
// is the Figure 14 converter: AB sender and channel, colocated NS receiver.
func fig14System() system {
	return system{name: "fig14", a: protocols.Service(), comps: protocols.ColocatedBComponents()}
}

// request renders sys as the body of POST /v1/derive.
func request(sys system, opts api.DeriveOptions) *api.DeriveRequest {
	req := &api.DeriveRequest{Service: api.SpecSource{Inline: dsl.String(sys.a)}, Options: opts}
	for _, c := range sys.comps {
		req.Components = append(req.Components, api.SpecSource{Inline: dsl.String(c)})
	}
	return req
}

// keyStage parses every inline spec of req and computes its content
// address, as quotd does before it looks at its cache.
func keyStage(tr *tracer, trace, parent int64, name string, req *api.DeriveRequest) (string, system, error) {
	t0 := time.Now()
	sys := system{name: name}
	var err error
	if sys.a, err = dsl.ParseString(req.Service.Inline); err != nil {
		return "", sys, fmt.Errorf("%s: service: %w", name, err)
	}
	for i, src := range req.Components {
		c, err := dsl.ParseString(src.Inline)
		if err != nil {
			return "", sys, fmt.Errorf("%s: component %d: %w", name, i, err)
		}
		sys.comps = append(sys.comps, c)
	}
	key := api.CacheKey(sys.a, nil, sys.comps, req.Options)
	tr.add(0, trace, parent, "api.key", t0, time.Now(), nil)
	return key, sys, nil
}

// deriveStage composes sys lazily and derives its quotient. ns is the wall
// time of both calls: the derive workloads' timed operation.
func deriveStage(tr *tracer, trace, parent int64, sys system) (res *core.Result, ns int64, err error) {
	var m0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	x, err := compose.LazyMany(sys.comps...)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: compose: %w", sys.name, err)
	}
	t1 := time.Now()
	res, err = core.DeriveEnvContext(context.Background(), sys.a, x, deriveOptions)
	t2 := time.Now()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: derive: %w", sys.name, err)
	}
	if tr != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		tr.add(0, trace, parent, "compose.lazy_build", t0, t1, nil)
		traceDerive(tr, trace, parent, t1, t2, res.Stats, m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs)
	}
	return res, t2.Sub(t0).Nanoseconds(), nil
}

// traceDerive records the core.derive span and places its phase spans from
// the walls the engine reports: safety first (with environment expansion,
// which happens on demand inside it, as its child), then progress, and the
// rest of the call — converter emission — as core.emit.
func traceDerive(tr *tracer, trace, parent int64, start, end time.Time, st core.Stats, alloc, mallocs uint64) {
	m := st.Metrics
	id := tr.id()
	safetyEnd := start.Add(m.SafetyWall)
	sid := tr.add(0, trace, id, "core.safety", start, safetyEnd, nil)
	tr.add(0, trace, sid, "compose.expand", start, start.Add(min(time.Duration(m.EnvExpansionNs), m.SafetyWall)), nil)
	progressEnd := safetyEnd.Add(m.ProgressWall)
	tr.add(0, trace, id, "core.progress", safetyEnd, progressEnd, nil)
	tr.add(0, trace, id, "core.emit", progressEnd, end, nil)
	tau := 0.0
	if n := m.TauCacheHits + m.ReadySetRebuilds; n > 0 {
		tau = float64(m.TauCacheHits) / float64(n)
	}
	tr.add(id, trace, parent, "core.derive", start, end, map[string]float64{
		"env_states_expanded": float64(m.EnvStatesExpanded),
		"arena_bytes":         float64(m.ArenaBytes),
		"safety_states":       float64(st.SafetyStates),
		"intern_hit_rate":     m.InternHitRate(),
		"closure_memo_hits":   float64(m.ClosureMemoHits),
		"pair_arena_bytes":    float64(m.PairArenaBytes),
		"alloc_bytes":         float64(alloc),
		"mallocs":             float64(mallocs),
		"progress_iterations": float64(st.ProgressIterations),
		"removed_states":      float64(st.RemovedStates),
		"ready_set_rebuilds":  float64(m.ReadySetRebuilds),
		"tau_cache_hit_rate":  tau,
		"tau_invalidated":     float64(m.TauInvalidated),
	})
}

// pruneStage is quotd's prune step: compose the environment eagerly and
// greedily remove useless converter behaviour, re-verifying each removal.
func pruneStage(tr *tracer, trace, parent int64, sys system, conv *spec.Spec) (*spec.Spec, error) {
	t0 := time.Now()
	b, err := compose.Many(sys.comps...)
	if err != nil {
		return nil, fmt.Errorf("%s: compose for prune: %w", sys.name, err)
	}
	pruned, err := core.Prune(sys.a, b, conv)
	if err != nil {
		return nil, fmt.Errorf("%s: prune: %w", sys.name, err)
	}
	tr.add(0, trace, parent, "core.prune", t0, time.Now(), nil)
	return pruned, nil
}

// compileStage compiles conv into the convrt-table/v1 artifact.
func compileStage(tr *tracer, trace, parent int64, conv *spec.Spec) ([]byte, error) {
	t0 := time.Now()
	table, err := convrt.CompileEncoded(conv)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", conv.Name(), err)
	}
	tr.add(0, trace, parent, "convrt.compile", t0, time.Now(), nil)
	return table, nil
}

// renderStage builds and serializes the response envelope, table included.
func renderStage(tr *tracer, trace, parent int64, key string, res *core.Result, conv *spec.Spec, table []byte) error {
	t0 := time.Now()
	env := api.ResultEnvelope(key, res, conv, nil)
	env.Table = string(table)
	if _, err := json.Marshal(env); err != nil {
		return fmt.Errorf("render %s: %w", conv.Name(), err)
	}
	tr.add(0, trace, parent, "api.render", t0, time.Now(), nil)
	return nil
}

// missPath replays quotd's miss path for req library-side under one root
// span and returns the pruned converter and its compiled table, decoded as
// the check that the artifact round-trips.
func missPath(tr *tracer, trace int64, root, name string, req *api.DeriveRequest) (*spec.Spec, *convrt.Table, error) {
	id := tr.id()
	t0 := time.Now()
	defer func() { tr.add(id, trace, 0, root, t0, time.Now(), nil) }()
	key, sys, err := keyStage(tr, trace, id, name, req)
	if err != nil {
		return nil, nil, err
	}
	res, _, err := deriveStage(tr, trace, id, sys)
	if err != nil {
		return nil, nil, err
	}
	conv, err := pruneStage(tr, trace, id, sys, res.Converter)
	if err != nil {
		return nil, nil, err
	}
	enc, err := compileStage(tr, trace, id, conv)
	if err != nil {
		return nil, nil, err
	}
	if err := renderStage(tr, trace, id, key, res, conv, enc); err != nil {
		return nil, nil, err
	}
	table, err := convrt.Decode(enc)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: table does not decode: %w", name, err)
	}
	return conv, table, nil
}

// stepSink keeps the step loop's result live so the loop is not optimized
// away.
var stepSink int32

// stepLoop walks t for steps seeded random steps, Table.Step on an enabled
// event each time, restarting from the initial state at a dead end.
func stepLoop(tr *tracer, trace, parent int64, t *convrt.Table, seed int64, steps int) {
	rng := uint64(seed)*0x9E3779B97F4A7C15 + 1
	st := t.Init()
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		en := t.Enabled(st)
		if len(en) == 0 {
			st = t.Init()
			continue
		}
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		st, _ = t.Step(st, en[rng%uint64(len(en))])
	}
	tr.add(0, trace, parent, "convrt.step_loop", t0, time.Now(), map[string]float64{"steps": float64(steps)})
	stepSink = st
}
