// Command paperfigs regenerates every figure and result of the paper's
// evaluation into an output directory:
//
//	paperfigs [-out dir] [-skip-slow]
//
// For each figure it writes the machine in the text format (.spec) and as
// Graphviz (.dot); for each derivation experiment it runs the quotient
// algorithm and records the outcome. A summary of all qualitative results
// — which EXPERIMENTS.md mirrors — is written to <dir>/summary.txt and
// echoed to stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"protoquot"
	"protoquot/internal/compose"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
	"protoquot/internal/render"
	"protoquot/internal/sat"
	"protoquot/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outDir := fs.String("out", "paperfigs-out", "output directory")
	skipSlow := fs.Bool("skip-slow", false, "skip the slow symmetric-configuration derivations")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "paperfigs: %v\n", err)
		return 1
	}
	var sum strings.Builder
	if err := generate(&sum, *outDir, *skipSlow); err != nil {
		fmt.Fprintf(stderr, "paperfigs: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(*outDir, "summary.txt"), []byte(sum.String()), 0o644); err != nil {
		fmt.Fprintf(stderr, "paperfigs: %v\n", err)
		return 1
	}
	io.WriteString(stdout, sum.String())
	return 0
}

// writeSpec stores a machine as .spec and .dot files.
func writeSpec(dir, base string, s *spec.Spec) error {
	if err := os.WriteFile(filepath.Join(dir, base+".spec"), []byte(dsl.String(s)), 0o644); err != nil {
		return err
	}
	dot := render.DOTString(s, render.DOTOptions{HighlightSinks: true})
	return os.WriteFile(filepath.Join(dir, base+".dot"), []byte(dot), 0o644)
}

func generate(sum *strings.Builder, dir string, skipSlow bool) error {
	head := func(format string, a ...any) {
		fmt.Fprintf(sum, format+"\n", a...)
	}
	head("Reproduction of Calvert & Lam, SIGCOMM 1989 — generated %s", time.Now().Format(time.RFC3339))
	head("")

	// ---- E1: Figure 4 ----
	fig4 := protocols.Fig4()
	if err := writeSpec(dir, "fig04-internal-cycle", fig4); err != nil {
		return err
	}
	head("Figure 4  internal-cycle collapse: sink set acceptance = %v", fig4.TauStar(fig4.Init()))

	// ---- E2/E4/E5: Figures 7, 8, 10, 11 ----
	machines := []struct {
		base string
		s    *spec.Spec
		note string
	}{
		{"fig07-ab-sender", protocols.ABSender(), "AB sender A0"},
		{"fig07-ab-receiver", protocols.ABReceiver(), "AB receiver A1"},
		{"fig08-ns-sender", protocols.NSSender(), "NS sender N0"},
		{"fig08-ns-receiver", protocols.NSReceiver(), "NS receiver N1"},
		{"fig10-ab-channel", protocols.ABChannel(), "AB duplex channel"},
		{"fig10-ns-channel", protocols.NSChannel(), "NS duplex channel"},
		{"fig11-service", protocols.Service(), "exactly-once service S"},
		{"service-at-least-once", protocols.AtLeastOnceService(), "weakened (duplicate-tolerant) service W"},
	}
	for _, m := range machines {
		if err := writeSpec(dir, m.base, m.s); err != nil {
			return err
		}
		head("%-28s %-26s %3d states %3d ext %2d int",
			m.base, m.note, m.s.NumStates(), m.s.NumExternalTransitions(), m.s.NumInternalTransitions())
	}
	head("")

	// ---- Protocol-system verification (E2, E3) ----
	ab := protocols.ABSystem()
	ns := protocols.NSSystem()
	head("AB system: %d reachable states; satisfies S: %v; satisfies W: %v",
		ab.NumStates(), errIsNil(sat.Satisfies(ab, protocols.Service())),
		errIsNil(sat.Satisfies(ab, protocols.AtLeastOnceService())))
	head("NS system: %d reachable states; satisfies S: %v; satisfies W: %v",
		ns.NumStates(), errIsNil(sat.Satisfies(ns, protocols.Service())),
		errIsNil(sat.Satisfies(ns, protocols.AtLeastOnceService())))
	if v := diagnosticOf(sat.Satisfies(ns, protocols.Service())); v != nil {
		head("NS duplicate-delivery witness: %s", sat.FormatTrace(v.Witness()))
	}
	head("")

	// ---- E6/E7: the symmetric configuration (Figures 9, 12) ----
	if !skipSlow {
		bsym := protocols.SymmetricB()
		safety, err := core.Derive(protocols.Service(), bsym, core.Options{SafetyOnly: true, OmitVacuous: true})
		if err != nil {
			return fmt.Errorf("figure 12 safety derivation: %w", err)
		}
		if err := writeSpec(dir, "fig12-safety-converter", safety.Converter); err != nil {
			return err
		}
		head("Figure 12  safety-phase converter (symmetric config): %d states, %d transitions",
			safety.Stats.SafetyStates, safety.Stats.SafetyTransitions)

		full, ferr := core.Derive(protocols.Service(), bsym, core.Options{OmitVacuous: true})
		if d := diagnosticOf(ferr); d != nil && d.Phase() == "progress" {
			head("Section 5  full derivation: NO CONVERTER EXISTS (progress phase removed all %d states in %d iterations) — matches the paper",
				full.Stats.SafetyStates, full.Stats.ProgressIterations)
		} else {
			head("Section 5  full derivation: UNEXPECTED result (%v) — does NOT match the paper", ferr)
		}

		// ---- E8: weakened service admits a converter ----
		weak, werr := core.Derive(protocols.AtLeastOnceService(), bsym, core.Options{OmitVacuous: true})
		if werr != nil {
			head("Section 5  weakened service: UNEXPECTED failure (%v)", werr)
		} else {
			if err := writeSpec(dir, "weak-service-converter", weak.Converter); err != nil {
				return err
			}
			verified := errIsNil(core.Verify(protocols.AtLeastOnceService(), bsym, weak.Converter))
			head("Section 5  weakened service: converter EXISTS (%d states, verified: %v) — matches the paper",
				weak.Stats.FinalStates, verified)
		}
	} else {
		head("(symmetric-configuration derivations skipped)")
	}
	head("")

	// ---- E9: the co-located configuration (Figures 13, 14) ----
	bco := protocols.ColocatedB()
	co, err := core.Derive(protocols.Service(), bco, core.Options{OmitVacuous: true})
	if err != nil {
		return fmt.Errorf("figure 14 derivation: %w", err)
	}
	if err := writeSpec(dir, "fig14-colocated-converter", co.Converter); err != nil {
		return err
	}
	pruned, err := core.Prune(protocols.Service(), bco, co.Converter)
	if err != nil {
		return err
	}
	if err := writeSpec(dir, "fig14-colocated-converter-pruned", pruned); err != nil {
		return err
	}
	head("Figure 14  co-located converter: EXISTS, %d states maximal, %d after pruning; verified: %v",
		co.Stats.FinalStates, pruned.NumStates(),
		errIsNil(core.Verify(protocols.Service(), bco, co.Converter)))
	head("           superfluous (dotted-box) portion: %d states removed by automated pruning",
		co.Stats.FinalStates-pruned.NumStates())
	head("")

	// ---- E10: Section 6 transport configurations ----
	pt, err := compose.Many(protocols.TransportA(), protocols.NetA(false), protocols.PassThrough(),
		protocols.NetB(), protocols.TransportB())
	if err != nil {
		return err
	}
	head("Figure 16  pass-through: satisfies concatenated service: %v; satisfies strict CST: %v",
		errIsNil(sat.Satisfies(pt, protocols.CSTConcat())), errIsNil(sat.Satisfies(pt, protocols.CST())))
	if v := diagnosticOf(sat.Satisfies(pt, protocols.CST())); v != nil {
		head("           orderly-close violation witness: %s", sat.FormatTrace(v.Witness()))
	}
	t17, err := core.Derive(protocols.CST(), protocols.TransportB17(), core.Options{OmitVacuous: true})
	if err != nil {
		return fmt.Errorf("figure 17: %w", err)
	}
	if err := writeSpec(dir, "fig17-transport-converter", t17.Converter); err != nil {
		return err
	}
	head("Figure 17  transport converter (reliable networks): EXISTS, %d states", t17.Stats.FinalStates)
	t18, err := core.Derive(protocols.CST(), protocols.TransportB18(), core.Options{OmitVacuous: true})
	if err != nil {
		return fmt.Errorf("figure 18: %w", err)
	}
	if err := writeSpec(dir, "fig18-transport-converter", t18.Converter); err != nil {
		return err
	}
	head("Figure 18  transport converter (lossy internetwork, co-located): EXISTS, %d states", t18.Stats.FinalStates)
	head("")

	// ---- Deployment finding: eventually-reliable derivation ----
	er := protocols.EventuallyReliableNSB()
	erRes, err := core.Derive(protocols.Service(), er, core.Options{OmitVacuous: true})
	if err != nil {
		return fmt.Errorf("eventually-reliable derivation: %w", err)
	}
	erPruned, err := core.Prune(protocols.Service(), er, erRes.Converter)
	if err != nil {
		return err
	}
	if err := writeSpec(dir, "deploy-er-converter", erPruned); err != nil {
		return err
	}
	head("Deployment  eventually-reliable channel model: converter %d states maximal, %d pruned (the canonical relay)",
		erRes.Stats.FinalStates, erPruned.NumStates())
	return nil
}

func errIsNil(err error) bool { return err == nil }

// diagnosticOf extracts the shared Diagnostic interface from a
// satisfaction or derivation failure, or nil when the error is not one.
func diagnosticOf(err error) protoquot.Diagnostic {
	var d protoquot.Diagnostic
	if errors.As(err, &d) {
		return d
	}
	return nil
}
