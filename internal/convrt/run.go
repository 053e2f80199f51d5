package convrt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rt "protoquot/internal/runtime"
	"protoquot/internal/spec"
)

// Config describes one load run: which compiled converter to execute, how
// many sessions, how hostile the wire is, and how much conformance
// checking to attach.
type Config struct {
	// Table is the compiled converter every session executes. Required.
	Table *Table
	// Reference, when non-nil, turns on online conformance checking.
	// NewRunner determinizes it once into a monitor table over Table's
	// event ids, failing when that takes more than 2^20 states; every
	// session then advances each executed event through the monitor,
	// and a refusal latches a conformance violation. It should be the
	// specification Table was compiled from (or one trace-equivalent to
	// it); Table.Spec() reconstructs one when only the table artifact is at
	// hand.
	Reference *spec.Spec
	// Sessions is the number of concurrent sessions; default 1.
	Sessions int
	// StepsPerSession is how many events each session must execute to
	// complete; default 256.
	StepsPerSession int
	// Workers is the number of scheduler goroutines sessions are sharded
	// across; default GOMAXPROCS.
	Workers int
	// Window is the in-flight offer bound per session (the FIFO depth);
	// default 4. Reordering and duplication need window ≥ 2 for room.
	Window int
	// Faults is the wire's fault model (zero = a perfect wire).
	Faults rt.FaultModel
	// Seed makes the whole run — every session's walk and fault schedule —
	// reproducible.
	Seed int64
	// ConformEvery audits the full enabled set (table vs monitor) every n
	// executed steps per session; 0 disables the audit, and it only runs
	// when Reference is set. The per-event safety check is always on with
	// a Reference.
	ConformEvery int
	// MaxViolations bounds the retained violation details; default 8.
	MaxViolations int
}

func (c Config) withDefaults() (Config, error) {
	if c.Table == nil {
		return c, fmt.Errorf("convrt: Config.Table is required")
	}
	if c.Table.NumTransitions() == 0 {
		return c, fmt.Errorf("convrt: table %q has no transitions; sessions could never step", c.Table.Name())
	}
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.StepsPerSession <= 0 {
		c.StepsPerSession = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Sessions {
		c.Workers = c.Sessions
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 8
	}
	return c, checkFaults("Config.Faults", c.Faults)
}

// checkFaults rejects a fault model whose probabilities are not in [0,1],
// which newFaultSched needs; field names the model in the error.
func checkFaults(field string, m rt.FaultModel) error {
	for _, p := range []struct {
		name string
		p    float64
	}{{"Loss", m.Loss}, {"Dup", m.Dup}, {"Reorder", m.Reorder}, {"Corrupt", m.Corrupt}} {
		if !(p.p >= 0 && p.p <= 1) { // also rejects NaN
			return fmt.Errorf("convrt: %s.%s = %v is not a probability in [0,1]", field, p.name, p.p)
		}
	}
	return nil
}

// Report is the outcome of a completed run.
type Report struct {
	Metrics
	// Sessions is the configured session count; Completed + Failed +
	// Canceled partition it at run end.
	Sessions int
	// Canceled counts sessions still unfinished when the context ended.
	Canceled int64
	// ServiceP50Ns/ServiceP99Ns are quantiles of the service time per
	// executed step, kept apart from the queue wait in P50StepNs/P99StepNs:
	// each worker sweep contributes its wall time divided by the steps it
	// executed, weighted by those steps. They sit on the Report, not in
	// Metrics, because they are timing-dependent and Metrics' counters are
	// a pure function of (seed, config).
	ServiceP50Ns int64
	ServiceP99Ns int64
	// Violations holds the first few latched violation details.
	ViolationDetails []Violation
	// Elapsed is the run's wall time; MsgsPerSec is Steps/Elapsed.
	Elapsed    time.Duration
	MsgsPerSec float64
}

// Runner executes a Config. Construct with NewRunner, call Run once.
type Runner struct {
	cfg     Config
	workers []*workerMetrics
	shards  [][]Session
	vioMu   sync.Mutex
	vios    []Violation
	started atomic.Bool
}

// NewRunner validates cfg, builds the conformance monitor, and prepares
// sessions (allocation happens here, not on the run path).
func NewRunner(cfg Config) (*Runner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var mon *monitor
	if cfg.Reference != nil {
		if mon, err = newMonitor(cfg.Reference, cfg.Table.Events()); err != nil {
			return nil, err
		}
	}
	r := &Runner{cfg: cfg}
	r.workers = make([]*workerMetrics, cfg.Workers)
	r.shards = make([][]Session, cfg.Workers)
	for w := range r.shards {
		// Contiguous shards: session ids [w*per, …) so ownership is static
		// and every session struct is touched by exactly one goroutine.
		lo, hi := shardRange(cfg.Sessions, cfg.Workers, w)
		r.shards[w] = make([]Session, hi-lo)
		m := &workerMetrics{vioMu: &r.vioMu, vios: &r.vios, vioCap_: cfg.MaxViolations}
		r.workers[w] = m
		for i := range r.shards[w] {
			s := &r.shards[w][i]
			s.init(int32(lo+i), cfg.Table, mon, cfg.Seed, cfg.Window,
				cfg.StepsPerSession, cfg.ConformEvery)
			s.faults = newFaultSched(cfg.Faults)
		}
	}
	return r, nil
}

// shardRange splits n sessions as evenly as possible across k workers.
func shardRange(n, k, w int) (lo, hi int) {
	base, rem := n/k, n%k
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// quantiles merges one histogram per worker.
func (r *Runner) quantiles(of func(*workerMetrics) *histogram) (p50, p99 int64) {
	hs := make([]*histogram, len(r.workers))
	for i, m := range r.workers {
		hs[i] = of(m)
	}
	return quantiles(hs)
}

// Run drives every session to completion (or ctx cancellation) and returns
// the report. It may be called once per Runner.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if r.started.Swap(true) {
		return nil, fmt.Errorf("convrt: Runner.Run called twice")
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := range r.shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.runShard(ctx, r.shards[w], r.workers[w])
		}(w)
	}
	wg.Wait()

	rep := &Report{Sessions: r.cfg.Sessions, Elapsed: time.Since(start)}
	for _, m := range r.workers {
		rep.add(&m.Metrics)
	}
	rep.P50StepNs, rep.P99StepNs = r.quantiles(func(m *workerMetrics) *histogram { return &m.wait })
	rep.ServiceP50Ns, rep.ServiceP99Ns = r.quantiles(func(m *workerMetrics) *histogram { return &m.svc })
	rep.Canceled = int64(r.cfg.Sessions) - rep.SessionsCompleted - rep.SessionsFailed
	r.vioMu.Lock()
	rep.ViolationDetails = append([]Violation(nil), r.vios...)
	r.vioMu.Unlock()
	if sec := rep.Elapsed.Seconds(); sec > 0 {
		rep.MsgsPerSec = float64(rep.Steps) / sec
	}
	return rep, ctx.Err()
}

// runShard is one worker's scheduler loop: sweep the shard's sessions,
// pumping each; when a full sweep makes no progress, either everything is
// done, or the earliest delayed message tells us how long to sleep. The
// ctx check and the clock read sit once per sweep, not per message.
func (r *Runner) runShard(ctx context.Context, shard []Session, m *workerMetrics) {
	var clock sweepClock
	remaining := len(shard)
	for remaining > 0 {
		if ctx.Err() != nil {
			return
		}
		now := nowNs()
		clock.tick(m, now)
		progress := false
		var wakeAt int64
		remaining = 0
		for i := range shard {
			s := &shard[i]
			if s.done {
				continue
			}
			if s.pump(now, m) {
				progress = true
			}
			if !s.done {
				remaining++
				if b := s.blockedUntil(now); b > 0 && (wakeAt == 0 || b < wakeAt) {
					wakeAt = b
				}
			}
		}
		if remaining > 0 && !progress {
			if wakeAt > 0 {
				// Every runnable session is waiting out a delay fault.
				d := time.Duration(wakeAt - nowNs())
				if d > 0 {
					sleepCtx(ctx, d)
				}
				continue
			}
			// No session progressed, none is delayed: the engine's progress
			// invariant (drained pipeline ⇒ a fresh offer) is broken. Fail
			// the stragglers rather than spin — this is a bug trap, and the
			// smoke gate's zero-lost-sessions assertion will surface it.
			for i := range shard {
				s := &shard[i]
				if !s.done {
					s.failed = true
					s.done = true
					m.SessionsFailed++
					m.Starved++
				}
			}
			return
		}
	}
	clock.tick(m, nowNs())
}

// sweepClock turns the per-sweep clock samples into service-time
// observations: each sweep's wall time, up to the next sweep's sample,
// divided by the steps it executed and weighted by them. A sweep that
// executed nothing (one ending in a delay sleep, say) records nothing.
type sweepClock struct{ startNs, startSteps int64 }

func (c *sweepClock) tick(m *workerMetrics, now int64) {
	if k := m.Steps - c.startSteps; k > 0 {
		m.svc.observe((now-c.startNs)/k, k)
	}
	c.startNs, c.startSteps = now, m.Steps
}

// sleepCtx sleeps d or until ctx is done, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Run is the one-shot convenience wrapper: NewRunner + Run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}
