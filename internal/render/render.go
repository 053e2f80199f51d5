// Package render produces Graphviz DOT and plain-text visualizations of
// specifications, used by the CLI tools to regenerate the paper's figures
// as graphs. Only the Go standard library is used; the DOT output is
// consumed by any external Graphviz installation.
package render

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"protoquot/internal/spec"
)

// DOTOptions tune the graph output.
type DOTOptions struct {
	// RankDir is Graphviz rankdir (default "LR").
	RankDir string
	// HighlightSinks draws sink-set states with a doubled border,
	// visualizing the paper's Figure 4 collapse.
	HighlightSinks bool
	// StateNames replaces synthetic state labels (c0, c1, …) with the
	// given mapping when present.
	StateNames map[string]string
}

// DOT writes the specification as a Graphviz digraph. Internal transitions
// are dashed and unlabeled, matching the paper's figure conventions.
func DOT(w io.Writer, s *spec.Spec, opts DOTOptions) error {
	rank := opts.RankDir
	if rank == "" {
		rank = "LR"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", s.Name())
	fmt.Fprintf(&b, "  rankdir=%s;\n", rank)
	fmt.Fprintf(&b, "  node [shape=circle, fontsize=11];\n")
	fmt.Fprintf(&b, "  __init [shape=point];\n")
	fmt.Fprintf(&b, "  __init -> %q;\n", s.StateName(s.Init()))
	for st := 0; st < s.NumStates(); st++ {
		name := s.StateName(spec.State(st))
		label := name
		if opts.StateNames != nil {
			if l, ok := opts.StateNames[name]; ok {
				label = l
			}
		}
		attrs := []string{fmt.Sprintf("label=%q", label)}
		if opts.HighlightSinks && s.Sink(spec.State(st)) && len(s.IntEdges(spec.State(st))) > 0 {
			attrs = append(attrs, "peripheries=2")
		}
		fmt.Fprintf(&b, "  %q [%s];\n", name, strings.Join(attrs, ", "))
	}
	for st := 0; st < s.NumStates(); st++ {
		from := s.StateName(spec.State(st))
		for _, ed := range s.ExtEdges(spec.State(st)) {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", from, s.StateName(ed.To), string(ed.Event))
		}
		for _, t := range s.IntEdges(spec.State(st)) {
			fmt.Fprintf(&b, "  %q -> %q [style=dashed];\n", from, s.StateName(t))
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// DOTString renders DOT to a string.
func DOTString(s *spec.Spec, opts DOTOptions) string {
	var sb strings.Builder
	_ = DOT(&sb, s, opts)
	return sb.String()
}

// Table writes a fixed-width adjacency table: one row per state, one column
// per event, plus a λ column. Suitable for terminals and golden files.
func Table(w io.Writer, s *spec.Spec) error {
	events := s.Alphabet()
	headers := []string{"state"}
	for _, e := range events {
		headers = append(headers, string(e))
	}
	headers = append(headers, "λ")

	rows := make([][]string, 0, s.NumStates())
	for st := 0; st < s.NumStates(); st++ {
		row := []string{s.StateName(spec.State(st))}
		if spec.State(st) == s.Init() {
			row[0] = "> " + row[0]
		}
		for _, e := range events {
			var tos []string
			for _, ed := range s.ExtEdges(spec.State(st)) {
				if ed.Event == e {
					tos = append(tos, s.StateName(ed.To))
				}
			}
			sort.Strings(tos)
			row = append(row, strings.Join(tos, ","))
		}
		var lams []string
		for _, t := range s.IntEdges(spec.State(st)) {
			lams = append(lams, s.StateName(t))
		}
		sort.Strings(lams)
		row = append(row, strings.Join(lams, ","))
		rows = append(rows, row)
	}

	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if l := len([]rune(cell)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.String())
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TableString renders the adjacency table to a string.
func TableString(s *spec.Spec) string {
	var sb strings.Builder
	_ = Table(&sb, s)
	return sb.String()
}
