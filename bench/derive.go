package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"protoquot/internal/api"
	"protoquot/internal/convrt"
)

// deriveRequestOptions key a derive workload's request: the options
// deriveOptions derives with, as a client would ask for them.
var deriveRequestOptions = api.DeriveOptions{OmitVacuous: true}

// stepLoopSteps is the length of every traced Table.Step loop.
const stepLoopSteps = 1 << 21

// The derive workloads' families are one size below the frontier:
// chaindrop(9) fits only three derivations into a run, and their median
// spread twice as far from run to run as the median of the dozen
// chaindrop(8) derivations that fit; ring(7) spread no more than ring(6)
// but needs five times the memory on a shared machine.
const (
	deriveDeep = "chaindrop(8)"
	deriveWide = "ring(6)"
)

// childEnv carries a childRequest to a re-executed copy of the benchmark.
const childEnv = "PROTOQUOT_BENCH_CHILD"

// childTimeout bounds one child derivation; the largest family takes ~2 s.
const childTimeout = 120 * time.Second

type childRequest struct {
	Family  string `json:"family"`
	SpawnNs int64  `json:"spawn_ns"` // wall clock just before the parent started the child
	Trace   int64  `json:"trace"`    // trace id; 0 runs untraced
	Seed    int64  `json:"seed"`
}

type childReport struct {
	SetupNs       int64   `json:"setup_ns"`
	DeriveNs      int64   `json:"derive_ns"`
	RSSMB         float64 `json:"rss_mb"` // peak RSS right after the derivation
	Hash          string  `json:"hash"`
	SafetyStates  int     `json:"safety_states"`
	FinalStates   int     `json:"final_states"`
	RemovedStates int     `json:"removed_states"`
	Spans         []span  `json:"spans,omitempty"`
}

// runDerive derives family in fresh child processes, one derivation each,
// until the run's time is spent.
func runDerive(env *runEnv, family string) (*outcome, error) {
	pin, ok := derivedPins[family]
	if !ok {
		return nil, fmt.Errorf("no pinned converter for %s", family)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var rss []float64
	var lastWall time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && time.Since(start)+lastWall > env.seconds {
			break
		}
		calibrate(out, 1)
		// A traced run alternates traced and untraced children; the pair
		// gives trace.overhead_frac.
		traced := env.tr != nil && i%2 == 0
		t0 := time.Now()
		rep, err := spawnChild(env, self, family, traced)
		lastWall = time.Since(t0)
		out.attempted++
		if err == nil {
			err = pin.check(rep)
		}
		if err != nil {
			out.fail("%s child %d: %v", family, i, err)
			continue
		}
		if traced {
			out.tracedMS = append(out.tracedMS, float64(rep.DeriveNs)/1e6)
			continue
		}
		out.setupS = append(out.setupS, float64(rep.SetupNs)/1e9)
		out.latencyMS = append(out.latencyMS, float64(rep.DeriveNs)/1e6)
		rss = append(rss, rep.RSSMB)
	}
	calibrate(out, 3)
	out.rssMB = median(rss)
	if m := median(out.latencyMS); m > 0 {
		out.opsPerS = 1000 / m
	}
	if env.tr != nil {
		out.layer = layerMetrics(env.tr.snapshot())
		out.bypass(serverMetrics, fleetMetrics)
	}
	return out, nil
}

// spawnChild runs one derivation in a fresh copy of this binary, so that its
// peak RSS and its start-up belong to that derivation alone.
func spawnChild(env *runEnv, self, family string, traced bool) (*childReport, error) {
	req := childRequest{Family: family, Seed: env.seed}
	var parent int64
	if traced {
		req.Trace = env.tr.id()
		parent = env.tr.id()
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, env.stderr
	t0 := time.Now()
	req.SpawnNs = t0.UnixNano()
	enc, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
	err = cmd.Run()
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	if traced {
		env.tr.add(parent, req.Trace, 0, "derive.child", t0, t1, nil)
		env.tr.merge(rep.Spans, parent)
	}
	return &rep, nil
}

// runChild is the child side of spawnChild: derive once, read the peak RSS
// before anything else allocates, then (traced) replay the rest of the
// deploy path on the result and report.
func runChild(reqJSON string) (*childReport, error) {
	var req childRequest
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		return nil, fmt.Errorf("bad %s: %w", childEnv, err)
	}
	sys, err := familySystem(req.Family)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if req.Trace != 0 {
		tr = newTracer()
	}
	rep := &childReport{SetupNs: time.Now().UnixNano() - req.SpawnNs}
	res, ns, err := deriveStage(tr, req.Trace, 0, sys)
	if err != nil {
		return nil, err
	}
	rep.DeriveNs = ns
	rep.RSSMB = maxRSSMB()
	conv := res.Converter
	rep.Hash = conv.Hash()
	rep.SafetyStates = res.Stats.SafetyStates
	rep.FinalStates = res.Stats.FinalStates
	rep.RemovedStates = res.Stats.RemovedStates
	if tr != nil {
		key, _, err := keyStage(tr, req.Trace, 0, sys.name, request(sys, deriveRequestOptions))
		if err != nil {
			return nil, err
		}
		enc, err := compileStage(tr, req.Trace, 0, conv)
		if err != nil {
			return nil, err
		}
		if err := renderStage(tr, req.Trace, 0, key, res, conv, enc); err != nil {
			return nil, err
		}
		table, err := convrt.Decode(enc)
		if err != nil {
			return nil, fmt.Errorf("%s: table does not decode: %w", sys.name, err)
		}
		stepLoop(tr, req.Trace, 0, table, req.Seed, stepLoopSteps)
		rep.Spans = tr.snapshot()
	}
	return rep, nil
}
