// Package dsl provides a line-oriented text format and a JSON encoding for
// specifications, so machines and derived converters can be stored, diffed,
// and exchanged by the command-line tools.
//
// The text format is token-based — event names may contain any
// non-whitespace characters (the paper's "-d0"/"+d0" style included):
//
//	# comment
//	spec ABSender
//	init s0
//	event acc            # optional: declare events with no transitions
//	ext s0 acc s1        # external transition: from event to
//	ext s1 -d0 s2
//	int f0 f0l           # internal transition: from to
//
// Directive order is free except that "spec" must come first. Unknown
// directives are errors. A file may contain several specs; Parse returns
// them in order.
package dsl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"protoquot/internal/spec"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dsl: line %d: %s", e.Line, e.Msg)
}

// maxLine is the longest line Parse accepts; a longer one fails with
// bufio.ErrTooLong.
const maxLine = 4 << 20

// Parse reads every specification in the stream. The line buffer starts at
// the scanner's 4 KiB and doubles only for longer lines, so a small spec
// costs a small buffer.
func Parse(r io.Reader) ([]*spec.Spec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var out []*spec.Spec
	var b *spec.Builder
	line := 0
	flush := func() error {
		if b == nil {
			return nil
		}
		s, err := b.Build()
		if err != nil {
			return &ParseError{line, err.Error()}
		}
		out = append(out, s)
		b = nil
		return nil
	}
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "spec":
			if len(fields) != 2 {
				return nil, &ParseError{line, "spec needs exactly one name"}
			}
			if err := flush(); err != nil {
				return nil, err
			}
			b = spec.NewBuilder(fields[1])
		case "init":
			if b == nil {
				return nil, &ParseError{line, "init before spec"}
			}
			if len(fields) != 2 {
				return nil, &ParseError{line, "init needs exactly one state"}
			}
			b.Init(fields[1])
		case "event":
			if b == nil {
				return nil, &ParseError{line, "event before spec"}
			}
			if len(fields) < 2 {
				return nil, &ParseError{line, "event needs at least one name"}
			}
			for _, e := range fields[1:] {
				b.Event(spec.Event(e))
			}
		case "state":
			if b == nil {
				return nil, &ParseError{line, "state before spec"}
			}
			if len(fields) < 2 {
				return nil, &ParseError{line, "state needs at least one name"}
			}
			for _, s := range fields[1:] {
				b.State(s)
			}
		case "ext":
			if b == nil {
				return nil, &ParseError{line, "ext before spec"}
			}
			if len(fields) != 4 {
				return nil, &ParseError{line, "ext needs: from event to"}
			}
			b.Ext(fields[1], spec.Event(fields[2]), fields[3])
		case "int":
			if b == nil {
				return nil, &ParseError{line, "int before spec"}
			}
			if len(fields) != 3 {
				return nil, &ParseError{line, "int needs: from to"}
			}
			b.Int(fields[1], fields[2])
		default:
			return nil, &ParseError{line, fmt.Sprintf("unknown directive %q", fields[0])}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, &ParseError{line, "no specifications found"}
	}
	return out, nil
}

// ParseString parses a single specification from a string; it is an error
// if the string holds more than one.
func ParseString(s string) (*spec.Spec, error) {
	specs, err := Parse(strings.NewReader(s))
	if err != nil {
		return nil, err
	}
	if len(specs) != 1 {
		return nil, fmt.Errorf("dsl: expected one spec, found %d", len(specs))
	}
	return specs[0], nil
}

// Write serializes one specification in the text format, in a stable order
// suitable for diffing.
func Write(w io.Writer, s *spec.Spec) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "spec %s\n", s.Name())
	// Declare every state up front, in index order, so that parsing
	// reassigns identical indices and the round trip is the exact identity
	// (stable for diffing and golden files).
	names := make([]string, s.NumStates())
	for st := 0; st < s.NumStates(); st++ {
		names[st] = s.StateName(spec.State(st))
	}
	fmt.Fprintf(bw, "state %s\n", strings.Join(names, " "))
	fmt.Fprintf(bw, "init %s\n", s.StateName(s.Init()))
	// Declare events not used by any transition explicitly.
	used := map[spec.Event]bool{}
	for st := 0; st < s.NumStates(); st++ {
		for _, ed := range s.ExtEdges(spec.State(st)) {
			used[ed.Event] = true
		}
	}
	var unused []string
	for _, e := range s.Alphabet() {
		if !used[e] {
			unused = append(unused, string(e))
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		fmt.Fprintf(bw, "event %s\n", strings.Join(unused, " "))
	}
	for st := 0; st < s.NumStates(); st++ {
		for _, ed := range s.ExtEdges(spec.State(st)) {
			fmt.Fprintf(bw, "ext %s %s %s\n", s.StateName(spec.State(st)), ed.Event, s.StateName(ed.To))
		}
	}
	for st := 0; st < s.NumStates(); st++ {
		for _, to := range s.IntEdges(spec.State(st)) {
			fmt.Fprintf(bw, "int %s %s\n", s.StateName(spec.State(st)), s.StateName(to))
		}
	}
	return bw.Flush()
}

// String serializes a spec to the text format.
func String(s *spec.Spec) string {
	var sb strings.Builder
	_ = Write(&sb, s)
	return sb.String()
}

// jsonSpec is the JSON wire form.
type jsonSpec struct {
	Name   string      `json:"name"`
	Init   string      `json:"init"`
	Events []string    `json:"events"`
	States []string    `json:"states"`
	Ext    [][3]string `json:"ext"`
	Int    [][2]string `json:"int"`
}

// MarshalJSON encodes a spec as JSON.
func MarshalJSON(s *spec.Spec) ([]byte, error) {
	js := jsonSpec{Name: s.Name(), Init: s.StateName(s.Init())}
	for _, e := range s.Alphabet() {
		js.Events = append(js.Events, string(e))
	}
	for st := 0; st < s.NumStates(); st++ {
		js.States = append(js.States, s.StateName(spec.State(st)))
		for _, ed := range s.ExtEdges(spec.State(st)) {
			js.Ext = append(js.Ext, [3]string{s.StateName(spec.State(st)), string(ed.Event), s.StateName(ed.To)})
		}
		for _, to := range s.IntEdges(spec.State(st)) {
			js.Int = append(js.Int, [2]string{s.StateName(spec.State(st)), s.StateName(to)})
		}
	}
	return json.MarshalIndent(js, "", "  ")
}

// UnmarshalJSON decodes a spec from JSON.
func UnmarshalJSON(data []byte) (*spec.Spec, error) {
	var js jsonSpec
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("dsl: %w", err)
	}
	b := spec.NewBuilder(js.Name)
	for _, e := range js.Events {
		b.Event(spec.Event(e))
	}
	for _, st := range js.States {
		b.State(st)
	}
	if js.Init != "" {
		b.Init(js.Init)
	}
	for _, t := range js.Ext {
		b.Ext(t[0], spec.Event(t[1]), t[2])
	}
	for _, t := range js.Int {
		b.Int(t[0], t[1])
	}
	return b.Build()
}
