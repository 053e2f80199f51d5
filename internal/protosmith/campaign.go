package protosmith

import (
	"fmt"
	"sort"
	"strings"
)

// Campaign is one deterministic differential-fuzzing run: Count systems at
// consecutive seeds starting from Seed, each generated under Knobs and
// cross-checked under Check. Identical campaigns produce identical reports,
// byte for byte.
type Campaign struct {
	Seed  int64
	Count int
	Knobs Knobs
	Check CheckOptions
	// ShrinkFailures reduces every diverging system to a locally minimal
	// one (preserving the divergence leg) before reporting it.
	ShrinkFailures bool
	// FixtureDir, when nonempty, receives a ready-to-commit regression
	// fixture per failure.
	FixtureDir string
	// Progress, when non-nil, is called after every system with the
	// running counts (checked, diverged).
	Progress func(done, failed int)
}

// Failure records one diverging system.
type Failure struct {
	// Seed generated the original system (also the fixture's name).
	Seed int64
	// Divergence is the cross-check that failed on the original system.
	Divergence *Divergence
	// System is the reported reproducer — shrunk when the campaign asked
	// for it, otherwise the original.
	System *System
	// FixturePath is where the reproducer was written, if anywhere.
	FixturePath string
}

// Report aggregates a campaign.
type Report struct {
	Systems    int
	Verdicts   map[string]int
	EngineRuns int
	// OracleProgress counts systems the raw-edge progress oracle accepted;
	// OracleSafetyProbes counts hereditary-safety trace comparisons;
	// BaselineProbes counts bottom-up candidates driven through the global
	// check, of which BaselineConfirmed independently proved existence.
	OracleProgress     int
	OracleSafetyProbes int
	BaselineProbes     int
	BaselineConfirmed  int
	// Pruned counts systems whose pruned converter passed the prune leg.
	Pruned   int
	Failures []Failure
}

// Run executes the campaign.
func (c Campaign) Run() *Report {
	rep := &Report{Verdicts: make(map[string]int)}
	for i := 0; i < c.Count; i++ {
		seed := c.Seed + int64(i)
		sys := Generate(seed, c.Knobs)
		cr := Check(sys, c.Check)
		rep.Systems++
		rep.EngineRuns += cr.EngineRuns
		if cr.OracleProgress {
			rep.OracleProgress++
		}
		rep.OracleSafetyProbes += cr.OracleSafetyProbes
		rep.BaselineProbes += cr.BaselineProbes
		if cr.BaselineConfirmed {
			rep.BaselineConfirmed++
		}
		if cr.Pruned {
			rep.Pruned++
		}
		if cr.Divergence == nil {
			rep.Verdicts[cr.Verdict]++
		} else {
			rep.Failures = append(rep.Failures, c.failure(seed, sys, cr))
		}
		if c.Progress != nil {
			c.Progress(rep.Systems, len(rep.Failures))
		}
	}
	return rep
}

func (c Campaign) failure(seed int64, sys *System, cr *CheckReport) Failure {
	f := Failure{Seed: seed, Divergence: cr.Divergence, System: sys}
	if c.ShrinkFailures && cr.Divergence.Leg != "wellformed" {
		leg := cr.Divergence.Leg
		f.System = Shrink(sys, func(cand *System) bool {
			r := Check(cand, c.Check)
			return r.Divergence != nil && r.Divergence.Leg == leg
		})
	}
	if c.FixtureDir != "" {
		note := fmt.Sprintf("divergence on %s\n%s", cr.Divergence.Leg, cr.Divergence.Detail)
		if path, err := WriteFixture(c.FixtureDir, f.System, note); err == nil {
			f.FixturePath = path
		}
	}
	return f
}

// String renders the report deterministically (sorted verdicts, failures in
// seed order — which is how they were found).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protosmith: %d systems, %d engine runs", r.Systems, r.EngineRuns)
	keys := make([]string, 0, len(r.Verdicts))
	for k := range r.Verdicts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\n  %-20s %d", k, r.Verdicts[k])
	}
	fmt.Fprintf(&b, "\n  oracle: progress accepted on %d systems, %d hereditary-safety probes", r.OracleProgress, r.OracleSafetyProbes)
	fmt.Fprintf(&b, "\n  baseline: %d candidates checked, %d independently confirmed existence", r.BaselineProbes, r.BaselineConfirmed)
	fmt.Fprintf(&b, "\n  prune: %d pruned converters re-checked", r.Pruned)
	if len(r.Failures) == 0 {
		fmt.Fprintf(&b, "\n  divergences: none")
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  DIVERGENCE seed=%d leg=%s (%s)", f.Seed, f.Divergence.Leg, f.System)
		if f.FixturePath != "" {
			fmt.Fprintf(&b, "\n    fixture: %s", f.FixturePath)
		}
		fmt.Fprintf(&b, "\n    %s", strings.ReplaceAll(f.Divergence.Detail, "\n", "\n    "))
	}
	return b.String()
}
