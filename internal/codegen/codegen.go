// Package codegen emits standalone Go source for a derived converter: a
// dependency-free state machine with a Step method, ready to embed in an
// application without this library or its interpreter. The generated type
// is deliberately boring — a switch over (state, event) pairs — so it can
// be audited against the specification line by line.
package codegen

import (
	"fmt"
	"go/format"
	"go/token"
	"sort"
	"strings"
	"unicode"

	"protoquot/internal/spec"
)

// Config controls generation.
type Config struct {
	// Package is the package name of the generated file (default "converter").
	Package string
	// Type is the generated type's name (default derived from the spec name).
	Type string
	// Comment is an optional provenance note included in the file header.
	Comment string
}

// IdentError reports a Config field whose value, after defaults, is not a
// Go identifier.
type IdentError struct {
	Field string // "Package" or "Type"
	Value string
}

func (e *IdentError) Error() string {
	return fmt.Sprintf("codegen: %s %q is not a Go identifier", e.Field, e.Value)
}

// Generate renders Go source implementing s, which must be a converter-like
// specification: no internal transitions and deterministic (at most one
// successor per state and event). Quotient outputs satisfy both; for a
// nondeterministic spec, resolve the choices first (e.g. core.Prune, or
// (*spec.Spec).Normalize). The emitted API is
//
//	c := NewT()
//	c.Enabled()            // events possible in the current state
//	err := c.Step("+d0")   // advance; error if the event is not enabled
//	c.State()              // current state name
//	c.Reset()
//
// The source is returned gofmt-formatted. A Package or Type that is not a
// Go identifier is an *IdentError.
func Generate(s *spec.Spec, cfg Config) ([]byte, error) {
	if s.NumInternalTransitions() > 0 {
		return nil, fmt.Errorf("codegen: %s has internal transitions; generate from a converter, not a raw spec", s.Name())
	}
	if !s.DeterministicExternal() {
		return nil, fmt.Errorf("codegen: %s is nondeterministic; prune or normalize it first", s.Name())
	}
	if cfg.Package == "" {
		cfg.Package = "converter"
	}
	if cfg.Type == "" {
		cfg.Type = exportedIdent(s.Name(), "Converter")
	}
	if !token.IsIdentifier(cfg.Package) {
		return nil, &IdentError{Field: "Package", Value: cfg.Package}
	}
	if !token.IsIdentifier(cfg.Type) {
		return nil, &IdentError{Field: "Type", Value: cfg.Type}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated from specification %q; DO NOT EDIT.\n", s.Name())
	if cfg.Comment != "" {
		fmt.Fprintf(&b, "// %s\n", cfg.Comment)
	}
	fmt.Fprintf(&b, "\npackage %s\n\n", cfg.Package)
	fmt.Fprintf(&b, "import \"fmt\"\n\n")

	// State constants.
	fmt.Fprintf(&b, "// %sState enumerates the states of %s.\n", cfg.Type, s.Name())
	fmt.Fprintf(&b, "type %sState int\n\n", cfg.Type)
	fmt.Fprintf(&b, "const (\n")
	for st := 0; st < s.NumStates(); st++ {
		fmt.Fprintf(&b, "\t%s%s %sState = %d // %s\n",
			cfg.Type, stateIdent(st), cfg.Type, st, s.StateName(spec.State(st)))
	}
	fmt.Fprintf(&b, ")\n\n")

	// State names.
	fmt.Fprintf(&b, "var %sStateNames = [...]string{\n", lowerFirst(cfg.Type))
	for st := 0; st < s.NumStates(); st++ {
		fmt.Fprintf(&b, "\t%q,\n", s.StateName(spec.State(st)))
	}
	fmt.Fprintf(&b, "}\n\n")

	// The machine.
	fmt.Fprintf(&b, "// %s is the generated state machine. The zero value starts at the\n", cfg.Type)
	fmt.Fprintf(&b, "// initial state %q.\n", s.StateName(s.Init()))
	fmt.Fprintf(&b, "type %s struct {\n\tstate %sState\n\tinitialized bool\n}\n\n", cfg.Type, cfg.Type)
	fmt.Fprintf(&b, "// New%s returns a machine at the initial state.\n", cfg.Type)
	fmt.Fprintf(&b, "func New%s() *%s { m := &%s{}; m.Reset(); return m }\n\n", cfg.Type, cfg.Type, cfg.Type)
	fmt.Fprintf(&b, "// Reset returns the machine to the initial state.\n")
	fmt.Fprintf(&b, "func (m *%s) Reset() { m.state = %s%s; m.initialized = true }\n\n",
		cfg.Type, cfg.Type, stateIdent(int(s.Init())))
	fmt.Fprintf(&b, "// State returns the current state's name.\n")
	fmt.Fprintf(&b, "func (m *%s) State() string {\n\tm.ensure()\n\treturn %sStateNames[m.state]\n}\n\n",
		cfg.Type, lowerFirst(cfg.Type))
	fmt.Fprintf(&b, "func (m *%s) ensure() {\n\tif !m.initialized {\n\t\tm.Reset()\n\t}\n}\n\n", cfg.Type)

	// Enabled.
	fmt.Fprintf(&b, "// Enabled returns the events accepted in the current state, sorted.\n")
	fmt.Fprintf(&b, "func (m *%s) Enabled() []string {\n\tm.ensure()\n\tswitch m.state {\n", cfg.Type)
	for st := 0; st < s.NumStates(); st++ {
		edges := s.ExtEdges(spec.State(st))
		if len(edges) == 0 {
			continue
		}
		evs := make([]string, len(edges))
		for i, ed := range edges {
			evs[i] = fmt.Sprintf("%q", string(ed.Event))
		}
		sort.Strings(evs)
		fmt.Fprintf(&b, "\tcase %s%s:\n\t\treturn []string{%s}\n",
			cfg.Type, stateIdent(st), strings.Join(evs, ", "))
	}
	fmt.Fprintf(&b, "\t}\n\treturn nil\n}\n\n")

	// Step.
	fmt.Fprintf(&b, "// Step advances the machine by one event; it returns an error (and\n")
	fmt.Fprintf(&b, "// leaves the state unchanged) if the event is not enabled.\n")
	fmt.Fprintf(&b, "func (m *%s) Step(event string) error {\n\tm.ensure()\n\tswitch m.state {\n", cfg.Type)
	for st := 0; st < s.NumStates(); st++ {
		edges := s.ExtEdges(spec.State(st))
		if len(edges) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\tcase %s%s:\n\t\tswitch event {\n", cfg.Type, stateIdent(st))
		for _, ed := range edges {
			fmt.Fprintf(&b, "\t\tcase %q:\n\t\t\tm.state = %s%s\n\t\t\treturn nil\n",
				string(ed.Event), cfg.Type, stateIdent(int(ed.To)))
		}
		fmt.Fprintf(&b, "\t\t}\n")
	}
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "\treturn fmt.Errorf(\"%s: event %%q not enabled in state %%s\", event, m.State())\n}\n",
		cfg.Type)

	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("codegen: internal error formatting output: %w", err)
	}
	return src, nil
}

// stateIdent names the constant for state index st.
func stateIdent(st int) string { return fmt.Sprintf("State%d", st) }

// exportedIdent derives an exported Go identifier from a free-form spec
// name, falling back to def when nothing survives.
func exportedIdent(name, def string) string {
	var b strings.Builder
	up := true
	for _, r := range name {
		switch {
		case unicode.IsLetter(r) || (unicode.IsDigit(r) && b.Len() > 0):
			if up {
				r = unicode.ToUpper(r)
				up = false
			}
			b.WriteRune(r)
		default:
			up = true
		}
	}
	if b.Len() == 0 {
		return def
	}
	return b.String()
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	r := []rune(s)
	r[0] = unicode.ToLower(r[0])
	return string(r)
}
