package main

import (
	"context"
	"fmt"
	"time"

	"protoquot/internal/convrt"
	rt "protoquot/internal/runtime"
	"protoquot/internal/spec"
)

// operateConfig is the operate workload: the paper's Figure 14 converter,
// derived, pruned and compiled at set-up, then run by convrt as a fleet of
// sessions over a faulty bounded-FIFO wire, one fleet per repetition.
type operateConfig struct {
	sessions, steps int
	faults          string
	conformEvery    int
	setups          int
}

var operateFaults = operateConfig{
	sessions:     2000,
	steps:        2500,
	faults:       "loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02",
	conformEvery: 64,
	setups:       5,
}

// Repetition kinds of a traced operate run: the untraced/traced pair gives
// trace.overhead_frac, the unchecked fleet the cost of conformance.
const (
	repChecked = iota
	repTraced
	repUnchecked
)

func runOperate(env *runEnv, cfg operateConfig) (*outcome, error) {
	faults, err := rt.ParseFaults(cfg.faults)
	if err != nil {
		return nil, err
	}
	sys := fig14System()
	req := request(sys, serveOptions(0))
	out := &outcome{}
	calibrate(out, 3)
	var conv *spec.Spec
	var table *convrt.Table
	for s := 0; s < cfg.setups; s++ {
		t0 := time.Now()
		out.attempted++
		if conv, table, err = missPath(env.tr, env.tr.id(), "operate.setup", sys.name, req); err != nil {
			return nil, err
		}
		if err := checkPruned(sys.name, conv); err != nil {
			out.fail("set-up %d: %v", s, err)
		}
		out.setupS = append(out.setupS, env.initS+time.Since(t0).Seconds())
	}
	stepLoop(env.tr, env.tr.id(), 0, table, env.seed, stepLoopSteps)

	var checked, unchecked []float64
	var steps, proposed, stale, audits, violations, tracedReps float64
	kinds := 1 // a traced run cycles through all three repetition kinds
	if env.tr != nil {
		kinds = 3
	}
	var lastWall time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		if i >= kinds && time.Since(start)+lastWall > env.seconds {
			break
		}
		calibrate(out, 1)
		kind := i % kinds
		t0 := time.Now()
		c := convrt.Config{
			Table:           table,
			Reference:       conv,
			Sessions:        cfg.sessions,
			StepsPerSession: cfg.steps,
			Workers:         1, // one scheduler: two shared cores make more too noisy to compare
			Faults:          faults,
			Seed:            env.seed<<20 + int64(i),
			ConformEvery:    cfg.conformEvery,
		}
		if kind == repUnchecked {
			c.Reference = nil
		}
		runner, err := convrt.NewRunner(c)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rep, err := runner.Run(context.Background())
		t2 := time.Now()
		lastWall = t2.Sub(t0)
		if err != nil {
			return nil, err
		}
		out.attempted += cfg.sessions
		if lost := rep.SessionsFailed + rep.Canceled; lost > 0 || rep.Violations > 0 || rep.SessionsCompleted != int64(cfg.sessions) {
			out.failed += int(max(lost, 1))
			out.problems = append(out.problems, fmt.Sprintf("fleet %d: completed %d/%d, failed %d, canceled %d, violations %d",
				i, rep.SessionsCompleted, cfg.sessions, rep.SessionsFailed, rep.Canceled, rep.Violations))
		}
		ms := float64(rep.Elapsed.Nanoseconds()) / 1e6
		switch kind {
		case repChecked:
			out.latencyMS = append(out.latencyMS, ms)
			checked = append(checked, rep.MsgsPerSec)
		case repTraced:
			out.tracedMS = append(out.tracedMS, ms)
			checked = append(checked, rep.MsgsPerSec)
		case repUnchecked:
			unchecked = append(unchecked, rep.MsgsPerSec)
		}
		if kind != repChecked {
			env.tr.add(0, env.tr.id(), 0, "convrt.run", t1, t2, map[string]float64{
				"steps": float64(rep.Steps), "proposed": float64(rep.Proposed), "stale": float64(rep.Stale),
				"audits": float64(rep.Audits), "violations": float64(rep.Violations),
			})
		}
		if kind == repTraced {
			tracedReps++
			steps += float64(rep.Steps)
			proposed += float64(rep.Proposed)
			stale += float64(rep.Stale)
			audits += float64(rep.Audits)
			violations += float64(rep.Violations)
		}
	}
	calibrate(out, 3)
	out.rssMB = maxRSSMB()
	out.opsPerS = median(checked)
	if env.tr == nil {
		return out, nil
	}
	out.layer = layerMetrics(env.tr.snapshot())
	out.bypass(serverMetrics)
	if tracedReps > 0 {
		out.layer["convrt.useful_ratio"] = steps / proposed
		out.layer["convrt.stale"] = stale / tracedReps
		out.layer["convrt.audits"] = audits / tracedReps
		out.layer["convrt.violations"] = violations / tracedReps
	}
	if len(unchecked) > 0 {
		out.layer["convrt.unchecked_msgs_per_s"] = median(unchecked)
		out.layer["convrt.conform_overhead"] = median(unchecked) / median(checked)
	}
	return out, nil
}
