// Command convrt is the converter execution load harness: it compiles a
// derived converter to internal/convrt's table form and drives N concurrent
// sessions over a faulty bounded-FIFO wire, with per-session online
// conformance checking, reporting throughput, step-latency quantiles, fault
// counters, and conformance outcomes.
//
//	convrt [-sessions n] [-steps n] [-workers n] [-window n]
//	       [-faults loss=0.05,dup=0.1,reorder=0.05,corrupt=0.01,delay=1ms]
//	       [-seed s] [-conform-every n] [-no-conform] [-timeout d]
//	       [-assert-clean] [-emit-table file] [-json]
//	       [-converter file.spec | -family chain(2) | -table file.table]
//
// The converter under load defaults to the paper's Figure 14 system
// (AB→NS colocated, derived and pruned on startup); -converter loads one
// from .spec DSL, -family derives one from a specgen family instance, and
// -table loads a compiled-table artifact directly (the <key>.table class
// quotd serves), reconstructing its conformance reference from the table.
//
// -assert-clean exits 2 unless every session completed with zero
// conformance violations and zero failed sessions — the smoke gate's
// contract. -json prints the report as one JSON document: msgs/sec, the
// p50/p99 enqueue→execute wait of a step (P50StepNs, P99StepNs) and, kept
// apart from it, the p50/p99 service time per executed step
// (ServiceP50Ns, ServiceP99Ns: each scheduler sweep's wall time over the
// steps it executed).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
	rt "protoquot/internal/runtime"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("convrt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sessions = fs.Int("sessions", 1000, "concurrent converter sessions")
		steps    = fs.Int("steps", 1000, "events each session must execute")
		workers  = fs.Int("workers", 0, "scheduler goroutines (0 = GOMAXPROCS)")
		window   = fs.Int("window", 4, "in-flight offer bound per session")
		faultsS  = fs.String("faults", "", "fault model, e.g. loss=0.05,dup=0.1,reorder=0.05,corrupt=0.01,delay=1ms,burst=3")
		seed     = fs.Int64("seed", 1, "seed reproducing every session walk and fault schedule")
		confEv   = fs.Int("conform-every", 64, "audit the full enabled set every n steps per session (0 = never)")
		noConf   = fs.Bool("no-conform", false, "disable online conformance checking entirely (pure throughput mode)")
		timeout  = fs.Duration("timeout", 0, "wall-clock cap for the whole run (0 = unlimited)")
		assert   = fs.Bool("assert-clean", false, "exit 2 unless all sessions completed with zero violations")
		emit     = fs.String("emit-table", "", "also write the compiled table artifact to this file and continue")
		jsonOut  = fs.Bool("json", false, "print the report as JSON instead of text")
		convPath = fs.String("converter", "", "load the converter from .spec DSL (must be deterministic, no internal transitions)")
		family   = fs.String("family", "", "derive the converter from a specgen family instance, e.g. chain(2)")
		tblPath  = fs.String("table", "", "load a compiled-table artifact (the quotd <key>.table class)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "convrt: unexpected arguments %v\n", fs.Args())
		return 2
	}

	table, ref, src, err := loadConverter(*convPath, *family, *tblPath)
	if err != nil {
		fmt.Fprintf(stderr, "convrt: %v\n", err)
		return 1
	}
	if *emit != "" {
		if err := os.WriteFile(*emit, convrt.Encode(table), 0o644); err != nil {
			fmt.Fprintf(stderr, "convrt: emit table: %v\n", err)
			return 1
		}
	}
	faults, err := rt.ParseFaults(*faultsS)
	if err != nil {
		fmt.Fprintf(stderr, "convrt: %v\n", err)
		return 2
	}
	if *noConf {
		ref = nil
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := convrt.Run(ctx, convrt.Config{
		Table:           table,
		Reference:       ref,
		Sessions:        *sessions,
		StepsPerSession: *steps,
		Workers:         *workers,
		Window:          *window,
		Faults:          faults,
		Seed:            *seed,
		ConformEvery:    *confEv,
	})
	if err != nil && rep == nil {
		fmt.Fprintf(stderr, "convrt: %v\n", err)
		return 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "convrt: run ended early: %v\n", err)
	}

	if *jsonOut {
		if err := writeJSONReport(stdout, src, table, rep, *seed, faults); err != nil {
			fmt.Fprintf(stderr, "convrt: %v\n", err)
			return 1
		}
	} else {
		printReport(stdout, src, table, rep, ref != nil)
	}
	if *assert {
		if rep.SessionsFailed > 0 || rep.Violations > 0 || rep.Canceled > 0 ||
			rep.SessionsCompleted != int64(*sessions) {
			fmt.Fprintf(stderr, "convrt: ASSERT FAILED: completed=%d/%d failed=%d canceled=%d violations=%d\n",
				rep.SessionsCompleted, *sessions, rep.SessionsFailed, rep.Canceled, rep.Violations)
			return 2
		}
	}
	return 0
}

// loadConverter resolves the converter under load from the mutually
// exclusive source flags, returning the compiled table, the conformance
// reference specification, and a human-readable source label.
func loadConverter(convPath, family, tblPath string) (*convrt.Table, *spec.Spec, string, error) {
	set := 0
	for _, s := range []string{convPath, family, tblPath} {
		if s != "" {
			set++
		}
	}
	if set > 1 {
		return nil, nil, "", fmt.Errorf("-converter, -family, and -table are mutually exclusive")
	}
	switch {
	case tblPath != "":
		data, err := os.ReadFile(tblPath)
		if err != nil {
			return nil, nil, "", err
		}
		table, err := convrt.Decode(data)
		if err != nil {
			return nil, nil, "", err
		}
		// The table is self-describing: reconstruct the reference from it,
		// so conformance still checks the execution path, against a monitor
		// the runner determinizes from the reference independently of
		// Compile.
		ref, err := table.Spec()
		if err != nil {
			return nil, nil, "", fmt.Errorf("reconstructing reference: %w", err)
		}
		return table, ref, "table:" + table.Name(), nil
	case convPath != "":
		data, err := os.ReadFile(convPath)
		if err != nil {
			return nil, nil, "", err
		}
		conv, err := dsl.ParseString(string(data))
		if err != nil {
			return nil, nil, "", err
		}
		table, err := convrt.Compile(conv)
		if err != nil {
			return nil, nil, "", err
		}
		return table, conv, "spec:" + conv.Name(), nil
	case family != "":
		fam, err := specgen.ParseFamily(family)
		if err != nil {
			return nil, nil, "", err
		}
		// quotd's path: derive over the lazy composition, then prune over
		// the same environment, reusing its expanded rows.
		x, err := compose.LazyMany(fam.Components...)
		if err != nil {
			return nil, nil, "", err
		}
		envs := []core.Environment{x}
		res, err := core.DeriveEnvsContext(context.Background(), fam.Service, envs, core.Options{OmitVacuous: true})
		if err != nil {
			return nil, nil, "", fmt.Errorf("deriving %s: %w", family, err)
		}
		conv, err := core.PruneEnvs(fam.Service, envs, res.Converter)
		if err != nil {
			return nil, nil, "", err
		}
		table, err := convrt.Compile(conv)
		if err != nil {
			return nil, nil, "", err
		}
		return table, conv, "family:" + family, nil
	default:
		// The paper's Figure 14 configuration: AB sender to NS receiver,
		// colocated converter, derived and pruned.
		b := protocols.ColocatedB()
		res, err := core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
		if err != nil {
			return nil, nil, "", err
		}
		conv, err := core.Prune(protocols.Service(), b, res.Converter)
		if err != nil {
			return nil, nil, "", err
		}
		table, err := convrt.Compile(conv)
		if err != nil {
			return nil, nil, "", err
		}
		return table, conv, "paper:ab-ns-colocated", nil
	}
}

func printReport(w io.Writer, src string, t *convrt.Table, rep *convrt.Report, conform bool) {
	fmt.Fprintf(w, "convrt: %s (%d states, %d events, %d transitions)\n",
		src, t.NumStates(), t.NumEvents(), t.NumTransitions())
	fmt.Fprintf(w, "sessions: %d total, %d completed, %d failed, %d canceled\n",
		rep.Sessions, rep.SessionsCompleted, rep.SessionsFailed, rep.Canceled)
	fmt.Fprintf(w, "steps: %d executed (%d proposed, %d stale) in %v — %.0f msgs/sec\n",
		rep.Steps, rep.Proposed, rep.Stale, rep.Elapsed.Round(time.Millisecond), rep.MsgsPerSec)
	fmt.Fprintf(w, "wait p50/p99 (enqueue→execute): %v / %v\n",
		time.Duration(rep.P50StepNs), time.Duration(rep.P99StepNs))
	fmt.Fprintf(w, "service p50/p99 (per-sweep mean per executed step): %v / %v\n",
		time.Duration(rep.ServiceP50Ns), time.Duration(rep.ServiceP99Ns))
	fmt.Fprintf(w, "faults: dropped=%d corrupted=%d duplicated=%d reordered=%d delayed=%d\n",
		rep.Dropped, rep.Corrupted, rep.Duplicated, rep.Reordered, rep.Delayed)
	fmt.Fprintf(w, "lifecycle: %d resets, %d starved\n", rep.Resets, rep.Starved)
	if conform {
		fmt.Fprintf(w, "conformance: %d audits, %d violations\n", rep.Audits, rep.Violations)
		for _, v := range rep.ViolationDetails {
			fmt.Fprintf(w, "  violation: session %d %s at state %s after %d steps (event %q; spec allows %v, table %v)\n",
				v.Session, v.Kind, v.State, v.Steps, v.Event, v.Enabled, v.TableEnabled)
		}
	} else {
		fmt.Fprintf(w, "conformance: disabled\n")
	}
}

// jsonReport is the machine-readable run report.
type jsonReport struct {
	Source      string         `json:"source"`
	States      int            `json:"states"`
	Events      int            `json:"events"`
	Transitions int            `json:"transitions"`
	Seed        int64          `json:"seed"`
	Faults      rt.FaultModel  `json:"faults"`
	Report      *convrt.Report `json:"report"`
}

func writeJSONReport(w io.Writer, src string, t *convrt.Table, rep *convrt.Report, seed int64, faults rt.FaultModel) error {
	data, err := json.MarshalIndent(jsonReport{
		Source: src, States: t.NumStates(), Events: t.NumEvents(),
		Transitions: t.NumTransitions(), Seed: seed, Faults: faults, Report: rep,
	}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
