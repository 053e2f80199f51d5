// Command bench is the repository benchmark. It runs four workloads over
// the public surfaces of protoquot — the derivation engine (derive-deep,
// derive-wide), the quotd service (serve-zipf) and the converter runtime
// (operate-faults) — checks every output, and prints each metric by name
// and unit, ending with one JSON result line per workload.
//
//	bench [-workload list] [-seed n] [-seconds n] [-trace 0|1] [-out file]
//	bench -compare [-benchmark BENCHMARK.json] before.jsonl after.jsonl
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) keeps spans around every call it makes into a layer, writes
// them under -spans, and reports the per-layer metrics instead. README.md
// explains the workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// spansDir receives the traced runs' span files.
const spansDir = ".bench_build/spans"

// processStart is as close to process start as Go code can observe; every
// in-process set-up time counts from it.
var processStart = time.Now()

func main() {
	if req := os.Getenv(childEnv); req != "" {
		rep, err := runChild(req)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runEnv is what a workload needs from the command line.
type runEnv struct {
	seed    int64
	seconds time.Duration // how long the timed phase runs
	initS   float64       // process start until the first workload began
	tr      *tracer       // nil: untraced run
	stderr  io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	problems          []string
	setupS            []float64 // one per set-up
	latencyMS         []float64 // one per untraced operation
	tracedMS          []float64 // one per traced operation (traced runs)
	calibrationMS     []float64 // kernel passes (calibrate.go)
	opsPerS, rssMB    float64
	layer             map[string]float64 // per-layer metrics (traced runs)
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// bypass reports 0 for the layer metrics of layers the workload never
// enters.
func (o *outcome) bypass(groups ...[]string) {
	for _, g := range groups {
		for _, name := range g {
			o.layer[name] = 0
		}
	}
}

type workload struct {
	name string
	run  func(*runEnv) (*outcome, error)
}

var workloads = []workload{
	{"derive-deep", func(e *runEnv) (*outcome, error) { return runDerive(e, deriveDeep) }},
	{"derive-wide", func(e *runEnv) (*outcome, error) { return runDerive(e, deriveWide) }},
	{"serve-zipf", func(e *runEnv) (*outcome, error) { return runServe(e, serveZipf) }},
	{"operate-faults", func(e *runEnv) (*outcome, error) { return runOperate(e, operateFaults) }},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees. Every workload
// reports all of them; its operation is one derivation (derive-*), one
// request (serve-zipf) or one fleet of sessions (operate-faults).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"ops_per_s", "op/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that never enters a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"compose.lazy_build_ms", "ms"},
	{"compose.expand_s", "s"},
	{"compose.states_expanded", "count"},
	{"compose.arena_mb", "MB"},
	{"core.safety_s", "s"},
	{"core.safety_self_s", "s"},
	{"core.safety_states", "count"},
	{"core.intern_hit_rate", "fraction"},
	{"core.closure_memo_hits", "count"},
	{"core.pair_arena_mb", "MB"},
	{"core.alloc_mb", "MB"},
	{"core.mallocs", "count"},
	{"core.progress_s", "s"},
	{"core.progress_iterations", "count"},
	{"core.removed_states", "count"},
	{"core.ready_set_rebuilds", "count"},
	{"core.tau_cache_hit_rate", "fraction"},
	{"core.tau_invalidated", "count"},
	{"core.emit_s", "s"},
	{"core.derive_ms_per_miss", "ms"},
	{"core.prune_ms_per_miss", "ms"},
	{"convrt.compile_ms_per_miss", "ms"},
	{"api.key_ms", "ms"},
	{"api.render_ms", "ms"},
	{"server.hit_ratio", "fraction"},
	{"server.derives", "count"},
	{"server.coalesced", "count"},
	{"server.evictions", "count"},
	{"server.rejected", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.latency_p99_ms", "ms"},
	{"convrt.step_ns", "ns"},
	{"convrt.unchecked_msgs_per_s", "msg/s"},
	{"convrt.conform_overhead", "ratio"},
	{"convrt.useful_ratio", "fraction"},
	{"convrt.stale", "count"},
	{"convrt.audits", "count"},
	{"convrt.violations", "count"},
	{"trace.overhead_frac", "fraction"},
}

var (
	serverMetrics = []string{"server.hit_ratio", "server.derives", "server.coalesced", "server.evictions",
		"server.rejected", "server.hit_p50_ms", "server.miss_p50_ms", "server.latency_p99_ms"}
	fleetMetrics = []string{"convrt.unchecked_msgs_per_s", "convrt.conform_overhead", "convrt.useful_ratio",
		"convrt.stale", "convrt.audits", "convrt.violations"}
)

// metric and result form the machine-readable result: the last line of
// stdout.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a result with the run's context.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Trace    bool           `json:"trace"`
	Machine  machine        `json:"machine"`
	Samples  map[string]int `json:"samples"`
	// CalibrationMS is the run's median calibration pass; the time metrics
	// were scaled by calibrationRefMs / CalibrationMS.
	CalibrationMS float64 `json:"calibration_ms"`
	Result        result  `json:"result"`
}

type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	initS := time.Since(processStart).Seconds()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names     = fs.String("workload", "all", "comma-separated workloads to run, or all")
		seed      = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds   = fs.Int("seconds", 20, "length of each workload's timed phase, in seconds")
		traceFlag = fs.Int("trace", 0, "1: traced run — keep spans, report per-layer metrics")
		outPath   = fs.String("out", "", "append one JSON record per workload run to this file")
		compare   = fs.Bool("compare", false, "compare two -out files: bench -compare before after")
		benchPath = fs.String("benchmark", "BENCHMARK.json", "benchmark description holding the bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(*benchPath, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fs.Usage()
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	mach := describeMachine()
	header, _ := json.Marshal(mach)
	fmt.Fprintf(stdout, "# machine %s\n", header)
	code := 0
	for _, w := range selected {
		env := &runEnv{seed: *seed, seconds: time.Duration(*seconds) * time.Second, initS: initS, stderr: stderr}
		if *traceFlag == 1 {
			env.tr = newTracer()
		}
		fmt.Fprintf(stdout, "# workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *traceFlag)
		out, res, samples, err := measure(w.run, env, filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, p := range out.problems {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, p)
		}
		printMetrics(stdout, w.name, res, samples)
		fmt.Fprintf(stdout, "%s calibration_ms %.6g ms (times scaled by %.4f)\n", w.name, median(out.calibrationMS), speedFactor(out))
		if *outPath != "" {
			rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: env.tr != nil,
				Machine: mach, Samples: samples, CalibrationMS: median(out.calibrationMS), Result: res}
			if err := appendRecord(*outPath, rec); err != nil {
				fmt.Fprintf(stderr, "bench: -out: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []workload
next:
	for _, name := range strings.Split(list, ",") {
		for _, w := range workloads {
			if w.name == strings.TrimSpace(name) {
				out = append(out, w)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}

// measure runs one workload and summarizes what it measured; a traced run
// also writes its spans to spansPath.
func measure(run func(*runEnv) (*outcome, error), env *runEnv, spansPath string) (*outcome, result, map[string]int, error) {
	out, err := run(env)
	if err == nil && env.tr != nil {
		err = finishTrace(env.tr, out, spansPath)
	}
	if err != nil {
		return nil, result{}, nil, err
	}
	res, samples, err := summarize(out, env.tr != nil)
	return out, res, samples, err
}

// finishTrace checks the span tree, adds the tracing overhead to the layer
// metrics and writes the spans out.
func finishTrace(tr *tracer, out *outcome, path string) error {
	spans := tr.snapshot()
	if err := checkSpans(spans); err != nil {
		return fmt.Errorf("malformed trace: %w", err)
	}
	out.layer["trace.overhead_frac"] = 0
	if u, t := median(out.latencyMS), median(out.tracedMS); u > 0 && t > 0 {
		out.layer["trace.overhead_frac"] = t/u - 1
	}
	return writeSpans(path, spans)
}

// summarize turns an outcome into the result line: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one, with times
// scaled to the reference machine's speed.
func summarize(out *outcome, traced bool) (result, map[string]int, error) {
	factor := speedFactor(out)
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	samples := map[string]int{"setup": len(out.setupS), "ops": len(out.latencyMS), "traced_ops": len(out.tracedMS)}
	if traced {
		for _, m := range perLayer {
			v, ok := out.layer[m.name]
			if !ok {
				return res, nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{scaled(v, m.unit, factor), m.unit}
		}
		return res, samples, nil
	}
	values := map[string]float64{
		"setup_s":        median(out.setupS),
		"latency_p50_ms": median(out.latencyMS),
		"ops_per_s":      out.opsPerS,
		"peak_rss_mb":    out.rssMB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{scaled(values[m.name], m.unit, factor), m.unit}
	}
	return res, samples, nil
}

func printMetrics(w io.Writer, name string, res result, samples map[string]int) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s\n", name, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%s error_rate %.6g fraction (%d failed of %d attempted; %d set-ups, %d timed ops, %d traced ops)\n",
		name, float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted,
		samples["setup"], samples["ops"], samples["traced_ops"])
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func describeMachine() machine {
	m := machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "-dirty"
		}
	}
	return m
}

// median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank q-quantile of xs, 0 when empty. With
// fewer than 1/(1-q) samples it is the maximum.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[min(max(i, 0), len(s)-1)]
}
