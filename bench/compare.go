package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads an -out file and groups its untraced results by
// workload, then metric.
func loadRecords(path string) (map[string]map[string][]float64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byWorkload := make(map[string]map[string][]float64)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if byWorkload[rec.Workload] == nil {
			byWorkload[rec.Workload] = make(map[string][]float64)
			order = append(order, rec.Workload)
		}
		for name, m := range rec.Result.Metrics {
			byWorkload[rec.Workload][name] = append(byWorkload[rec.Workload][name], m.Value)
		}
	}
	return byWorkload, order, sc.Err()
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// verdict compares the runs of a change (b) with those of its parent (a)
// for one metric: "fail" when b's median is worse than a's by more than the
// bound, "unresolved" when either side spreads wider than the bound (unless
// every run of b beats every run of a), else "pass".
func verdict(m benchMetric, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = (mb - ma) / ma
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher" && y <= x) || (m.Better != "higher" && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return delta, "pass"
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return delta, "unresolved"
	case worse > m.Bound:
		return delta, "fail"
	}
	return delta, "pass"
}

// runCompare prints, per workload and end-to-end metric, both medians, the
// change, both spreads and the verdict. It exits 1 when any metric fails.
func runCompare(benchPath, before, after string, stdout, stderr io.Writer) int {
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, order, err := loadRecords(before)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, _, err := loadRecords(after)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-15s %-15s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "before", "after", "delta", "spread_a", "spread_b", "bound", "verdict")
	failed := 0
	for _, w := range order {
		if b[w] == nil {
			fmt.Fprintf(stdout, "%-15s missing from %s\n", w, after)
			failed++
			continue
		}
		for _, m := range bf.EndToEnd {
			xa, xb := a[w][m.Name], b[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(stdout, "%-15s %-15s missing\n", w, m.Name)
				failed++
				continue
			}
			delta, v := verdict(m, xa, xb)
			if v == "fail" {
				failed++
			}
			fmt.Fprintf(stdout, "%-15s %-15s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d/%d)\n",
				w, m.Name, median(xa), median(xb), 100*delta, 100*spread(xa), 100*spread(xb), 100*m.Bound, v, len(xa), len(xb))
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
