package core

import (
	"testing"

	"protoquot/internal/spec"
)

// assertWorkerInvariance derives with 1, 2, 4, and 7 workers and asserts
// every run produces the identical converter (state names and edges via
// Format) and identical derivation statistics.
func assertWorkerInvariance(t *testing.T, a *spec.Spec, bs []*spec.Spec, opts Options) {
	t.Helper()
	type outcome struct {
		text   string
		stats  Stats
		exists bool
		errs   string
	}
	var base *outcome
	for _, w := range []int{1, 2, 4, 7} {
		o := opts
		o.Workers = w
		res, err := DeriveRobust(a, bs, o)
		cur := &outcome{}
		if err != nil {
			cur.errs = err.Error()
		}
		if res != nil {
			cur.exists = res.Exists
			cur.stats = res.Stats
			cur.stats.Metrics = Metrics{} // wall times legitimately differ
			if res.Converter != nil {
				cur.text = res.Converter.Format()
			}
		}
		if base == nil {
			base = cur
			continue
		}
		if cur.errs != base.errs {
			t.Errorf("workers=%d: error %q, workers=1: %q", w, cur.errs, base.errs)
		}
		if cur.exists != base.exists || cur.stats != base.stats {
			t.Errorf("workers=%d: stats %+v differ from workers=1: %+v", w, cur.stats, base.stats)
		}
		if cur.text != base.text {
			t.Errorf("workers=%d: converter differs from workers=1:\n%s\n--- vs ---\n%s", w, cur.text, base.text)
		}
	}
}

func TestParallelBitIdenticalRelay(t *testing.T) {
	assertWorkerInvariance(t, altService(t), []*spec.Spec{relayB(t)}, Options{})
}

func TestParallelBitIdenticalIterativeProgress(t *testing.T) {
	b := spec.NewBuilder("B")
	b.Init("b0").Ext("b0", "acc", "b1")
	b.Ext("b1", "x", "b2").Ext("b2", "del", "b0")
	b.Ext("b1", "y", "b3").Ext("b3", "z", "b4")
	assertWorkerInvariance(t, altService(t), []*spec.Spec{build(t, b)}, Options{})
	assertWorkerInvariance(t, altService(t), []*spec.Spec{build(t, b)}, Options{OmitVacuous: true})
	assertWorkerInvariance(t, altService(t), []*spec.Spec{build(t, b)}, Options{SafetyOnly: true})
}

func TestParallelBitIdenticalNoQuotient(t *testing.T) {
	// Progress-phase nonexistence must be reported identically in parallel.
	b := build(t, spec.NewBuilder("B").Event("del").
		Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2"))
	_, err := Derive(altService(t), b, Options{})
	if nq, ok := err.(*NoQuotientError); !ok || nq.Phase() != "progress" {
		t.Fatalf("fixture should fail in the progress phase, got %v", err)
	}
	assertWorkerInvariance(t, altService(t), []*spec.Spec{b}, Options{})
}

func TestParallelBitIdenticalRobust(t *testing.T) {
	// Two environment variants: with and without a lossy shortcut.
	mk := func(lossy bool) *spec.Spec {
		b := spec.NewBuilder("B")
		b.Init("b0").Ext("b0", "acc", "b1").Ext("b1", "x", "b2").Ext("b2", "del", "b0")
		b.Ext("b1", "y", "b0").Ext("b2", "y", "b2")
		if lossy {
			b.Int("b1", "b0")
		}
		return build(t, b)
	}
	assertWorkerInvariance(t, altService(t), []*spec.Spec{mk(false), mk(true)}, Options{})
}

// TestFanOutVisitsEachIndexOnce checks the safety phase's fan-out helper:
// every index in [0, n) is visited exactly once, and every worker id is
// below min(workers, n), so per-worker state indexed by it is never shared.
func TestFanOutVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, workers := range []int{1, 2, 4, 8} {
			visits := make([]int32, n)
			ids := make([]int32, n)
			fanOut(n, workers, func(i, w int) {
				visits[i]++ // each i is handed out once, so no two goroutines share a slot
				ids[i] = int32(w)
			})
			for i := range visits {
				if visits[i] != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, visits[i])
				}
				if int(ids[i]) >= min(workers, n) {
					t.Errorf("n=%d workers=%d: index %d ran on worker %d", n, workers, i, ids[i])
				}
			}
		}
	}
}
