// Command quotient derives a protocol converter from specification files.
//
// Usage:
//
//	quotient -service S.spec -env B.spec [-env B2.spec ...] [flags]
//
// The service file must contain exactly one specification in the text
// format of internal/dsl (see `specviz -help` for the grammar); each -env
// file contributes one environment variant (several variants trigger
// robust derivation). The derived converter is written to stdout or -o in
// the same format.
//
// Flags:
//
//	-service file     service specification A (required)
//	-env file         environment specification B (repeatable, ≥1 required)
//	-o file           write the converter here instead of stdout
//	-dot file         also write a Graphviz rendering of the converter
//	-gen file         also write standalone Go source implementing the converter
//	-gen-pkg name     package name for -gen output (default "converter")
//	-prune            greedily remove useless converter behavior
//	-minimize         bisimulation-minimize the converter before output
//	-minimize-env     bisimulation-minimize each environment before deriving
//	                  (language-preserving pre-reduction; converter state
//	                  names reflect the minimized environments)
//	-safety-only      stop after the safety phase (paper Figure 12 artifact)
//	-omit-vacuous     drop converter states no environment behavior can reach
//	-max-states n     abort if the safety phase exceeds n states
//	-normalize        determinize the service if it is not in normal form
//	-json             emit the quotd response envelope (internal/api
//	                  DeriveResponse JSON) instead of bare converter text:
//	                  content-address key, exists, converter, stats — byte
//	                  compatible with POST /v1/derive, with the per-request
//	                  service fields (request_id, cached, coalesced) zero.
//	                  Definitive nonexistence emits the envelope and exits 2;
//	                  usage and I/O failures stay plain text on stderr.
//	-verify           re-verify B‖C against A after derivation
//	-workers n        safety-phase worker goroutines (result is identical
//	                  for every n; 0 or 1 = sequential)
//	-stats            print derivation statistics and engine metrics to stderr
//	-v                narrate the derivation phases to stderr
//	-cpuprofile file  write a CPU profile of the run
//	-memprofile file  write a heap profile taken after the derivation
//	-derivetimeout d  abort the derivation after duration d (e.g. 30s)
//
// Exit status: 0 on success, 1 on usage or I/O errors, 2 when no converter
// exists (the definitive top-down answer).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"protoquot"
	"protoquot/internal/api"
	"protoquot/internal/codegen"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/render"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

// run implements the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("quotient", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		servicePath = fs.String("service", "", "service specification file (required)")
		envPaths    multiFlag
		outPath     = fs.String("o", "", "output file for the converter (default stdout)")
		dotPath     = fs.String("dot", "", "also write a Graphviz rendering here")
		genPath     = fs.String("gen", "", "also write standalone Go source for the converter here")
		genPkg      = fs.String("gen-pkg", "converter", "package name for -gen output")
		prune       = fs.Bool("prune", false, "greedily remove useless converter behavior")
		minimize    = fs.Bool("minimize", false, "bisimulation-minimize the converter before output")
		minimizeEnv = fs.Bool("minimize-env", false, "bisimulation-minimize each environment before deriving (language-preserving; state names reflect the quotient)")
		safetyOnly  = fs.Bool("safety-only", false, "stop after the safety phase")
		omitVacuous = fs.Bool("omit-vacuous", false, "drop unreachable-for-B converter states")
		maxStates   = fs.Int("max-states", 0, "abort if the safety phase exceeds this many states (0 = unlimited)")
		compress    = fs.Bool("compress", false, "τ-compress each environment before deriving (semantics-preserving)")
		normalize   = fs.Bool("normalize", false, "determinize the service if not in normal form")
		jsonOut     = fs.Bool("json", false, "emit the quotd DeriveResponse envelope instead of bare converter text")
		verify      = fs.Bool("verify", false, "re-verify the result against every environment")
		workers     = fs.Int("workers", 0, "safety-phase worker goroutines (0 or 1 = sequential; result identical for every count)")
		stats       = fs.Bool("stats", false, "print derivation statistics and engine metrics to stderr")
		verbose     = fs.Bool("v", false, "narrate the derivation phases to stderr")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile (taken after derivation) to this file")
		deriveTO    = fs.Duration("derivetimeout", 0, "abort the derivation after this duration (0 = no limit)")
	)
	fs.Var(&envPaths, "env", "environment specification file (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *servicePath == "" || len(envPaths) == 0 {
		fmt.Fprintln(stderr, "quotient: -service and at least one -env are required")
		fs.Usage()
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		// Written on every exit path so a derivation killed by -derivetimeout
		// still leaves its heap profile behind.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "quotient: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize accurate allocation figures
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "quotient: %v\n", err)
			}
		}()
	}

	a, err := loadOne(*servicePath)
	if err != nil {
		fmt.Fprintf(stderr, "quotient: %v\n", err)
		return 1
	}
	if err := a.IsNormalForm(); err != nil {
		if !*normalize {
			fmt.Fprintf(stderr, "quotient: %v (rerun with -normalize to determinize)\n", err)
			return 1
		}
		a = a.Normalize()
	}
	var envs []*spec.Spec
	for _, p := range envPaths {
		b, err := loadOne(p)
		if err != nil {
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
		if *compress {
			b = b.CompressTau()
		}
		envs = append(envs, b)
	}

	opts := core.Options{
		OmitVacuous:        *omitVacuous,
		MaxStates:          *maxStates,
		SafetyOnly:         *safetyOnly,
		Workers:            *workers,
		MinimizeComponents: *minimizeEnv,
	}
	if *verbose {
		opts.Trace = core.LogAdapter(stderr)
	}
	// The content address of this derivation: the same key quotd would
	// compute for an equivalent POST /v1/derive (the worker count is not
	// part of it — the result is bit-identical for every count).
	key := api.CacheKey(a, envs, nil, api.DeriveOptions{
		OmitVacuous: *omitVacuous,
		SafetyOnly:  *safetyOnly,
		MaxStates:   *maxStates,
		MinimizeEnv: *minimizeEnv,
		Prune:       *prune,
		Minimize:    *minimize,
	})

	ctx := context.Background()
	if *deriveTO > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deriveTO)
		defer cancel()
	}
	deriveStart := time.Now()
	res, derr := core.DeriveRobustContext(ctx, a, envs, opts)
	if derr != nil {
		fmt.Fprintf(stderr, "quotient: %v\n", derr)
		var diag protoquot.Diagnostic
		if errors.As(derr, &diag) {
			// No converter exists — the definitive top-down answer.
			fmt.Fprintf(stderr, "quotient: nonexistence proved in the %s phase\n", diag.Phase())
			if w := diag.Witness(); len(w) > 0 {
				fmt.Fprintf(stderr, "quotient: witness trace: %s\n", sat.FormatTrace(w))
			}
			if *stats && res != nil {
				printStats(stderr, res.Stats)
			}
			if *jsonOut {
				if err := writeEnvelope(stdout, *outPath, key, res, nil, derr, deriveStart); err != nil {
					fmt.Fprintf(stderr, "quotient: %v\n", err)
					return 1
				}
			}
			return 2
		}
		return 1
	}
	c := res.Converter
	if *prune {
		c, err = core.PruneRobust(a, envs, c)
		if err != nil {
			fmt.Fprintf(stderr, "quotient: prune: %v\n", err)
			return 1
		}
	}
	if *minimize {
		c = c.Minimize()
	}
	if *verify && !*safetyOnly {
		if err := core.VerifyRobust(a, envs, c); err != nil {
			fmt.Fprintf(stderr, "quotient: verification failed: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "quotient: verified: B‖C satisfies A for every environment")
	}
	if *stats {
		printStats(stderr, res.Stats)
		if *prune {
			fmt.Fprintf(stderr, "after pruning: %d states, %d transitions\n",
				c.NumStates(), c.NumExternalTransitions())
		}
	}

	if *jsonOut {
		if err := writeEnvelope(stdout, *outPath, key, res, c, nil, deriveStart); err != nil {
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
	} else {
		out := stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintf(stderr, "quotient: %v\n", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		if err := dsl.Write(out, c); err != nil {
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := render.DOT(f, c, render.DOTOptions{}); err != nil {
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
	}
	if *genPath != "" {
		src, err := codegen.Generate(c, codegen.Config{
			Package: *genPkg,
			Comment: fmt.Sprintf("derived from service %s and environment(s) %s", *servicePath, envPaths.String()),
		})
		if err != nil {
			fmt.Fprintf(stderr, "quotient: %v (hint: -prune or -minimize yields a deterministic converter)\n", err)
			return 1
		}
		if err := os.WriteFile(*genPath, src, 0o644); err != nil {
			fmt.Fprintf(stderr, "quotient: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeEnvelope renders the shared quotd response envelope to -o or stdout.
// It is the -json output path for both outcomes a finished derivation can
// have: a converter (derr nil) and definitive nonexistence (derr a
// diagnostic). The per-request service fields stay zero — they only mean
// something inside the daemon.
func writeEnvelope(stdout io.Writer, outPath, key string, res *core.Result,
	c *spec.Spec, derr error, start time.Time) error {
	env := api.ResultEnvelope(key, res, c, derr)
	env.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath != "" {
		return os.WriteFile(outPath, data, 0o644)
	}
	_, err = stdout.Write(data)
	return err
}

func printStats(w io.Writer, s core.Stats) {
	fmt.Fprintf(w, "safety phase:   %d states, %d transitions, %d tracked pairs\n",
		s.SafetyStates, s.SafetyTransitions, s.PairSetTotal)
	fmt.Fprintf(w, "progress phase: %d iterations, %d states removed\n",
		s.ProgressIterations, s.RemovedStates)
	fmt.Fprintf(w, "converter:      %d states, %d transitions\n",
		s.FinalStates, s.FinalTransitions)
	m := s.Metrics
	fmt.Fprintf(w, "engine:         %d worker(s), safety %s (%d levels, peak frontier %d), progress %s (%d scans)\n",
		m.Workers, m.SafetyWall.Round(time.Microsecond), m.SafetyLevels, m.PeakFrontier,
		m.ProgressWall.Round(time.Microsecond), m.ProgressScans)
	fmt.Fprintf(w, "interning:      %d lookups, %d hits (%.1f%% hit rate)",
		m.InternLookups, m.InternHits, 100*m.InternHitRate())
	if m.PairArenaBytes > 0 {
		fmt.Fprintf(w, ", %s pair arenas", fmtBytes(m.PairArenaBytes))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "progress memo:  %d ready-set rebuilds, %d kept, %d invalidated",
		m.ReadySetRebuilds, m.TauCacheHits, m.TauInvalidated)
	if m.ProgressBytes > 0 {
		fmt.Fprintf(w, ", %s store", fmtBytes(m.ProgressBytes))
	}
	fmt.Fprintln(w)
	if m.EnvStatesTotal > 0 {
		fmt.Fprintf(w, "environment:    %d of %d states expanded", m.EnvStatesExpanded, m.EnvStatesTotal)
		if m.EnvExpansionNs > 0 {
			fmt.Fprintf(w, " (~%s expanding, sampled)", time.Duration(m.EnvExpansionNs).Round(time.Microsecond))
		}
		if m.ArenaBytes > 0 {
			fmt.Fprintf(w, ", %s row arenas (peak row %s)", fmtBytes(m.ArenaBytes), fmtBytes(m.PeakRowBytes))
		}
		fmt.Fprintln(w)
	}
}

// fmtBytes renders a byte count with a binary-unit suffix, one decimal.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func loadOne(path string) (*spec.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	specs, err := dsl.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(specs) != 1 {
		return nil, fmt.Errorf("%s: expected one specification, found %d", path, len(specs))
	}
	return specs[0], nil
}
