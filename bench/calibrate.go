package main

import (
	"runtime"
	"time"
)

// The machines this benchmark runs on are shared: over minutes their speed
// drifts by ±15%, moving every workload together. Each run therefore times
// a fixed integer kernel — code the repository cannot change — at quiet
// moments of the run (around set-up and the timed phase, and between
// derivations or fleets, never concurrently with measured work), and scales
// its time metrics to the speed at which that kernel takes calibrationRefMs.
// A change that slows the repository's code still shows in full; a machine
// that is slower during a run does not. The raw median kernel time is kept in
// -out records, so unscaled values can be recovered.

// calibrationIters sizes one kernel pass at about calibrationRefMs.
const calibrationIters = 6_000_000

// calibrationRefMs is the median pass time on the reference machine, a
// 2-core Intel Xeon container.
const calibrationRefMs = 36.0

var calibrationSink uint64

// calibrate times passes kernel passes into out; the run uses the median of
// all of them. It collects garbage first, so no background marking from
// the measured work competes with the kernel.
func calibrate(out *outcome, passes int) {
	runtime.GC()
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		x, s := uint64(88172645463325252), uint64(0)
		for j := 0; j < calibrationIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&1 == 0 {
				s += x
			} else {
				s ^= x >> 3
			}
		}
		calibrationSink = s
		out.calibrationMS = append(out.calibrationMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
}

// speedFactor is calibrationRefMs over the run's median pass: below 1 when
// the machine ran slower than the reference.
func speedFactor(out *outcome) float64 {
	if m := median(out.calibrationMS); m > 0 {
		return calibrationRefMs / m
	}
	return 1
}

// scaled converts a measured value to reference-machine speed by its unit:
// times shrink and rates grow on a slow machine; sizes, counts and
// fractions are left alone.
func scaled(v float64, unit string, factor float64) float64 {
	switch unit {
	case "s", "ms", "ns":
		return v * factor
	case "op/s", "msg/s":
		return v / factor
	}
	return v
}
