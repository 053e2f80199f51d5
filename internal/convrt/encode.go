package convrt

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"protoquot/internal/spec"
)

// encodeMagic is the first line of every encoded table; the version suffix
// changes whenever the layout does, so a decoder never misreads an
// incompatible artifact.
const encodeMagic = "convrt-table/v1"

// Encode renders the table in its wire form: a line-oriented, versioned,
// deterministic text encoding — the compiled-table artifact class quotd
// stores beside the .spec/.dot/.go renderings. The format is
//
//	convrt-table/v1
//	name <quoted>
//	states <n> events <m> init <i>
//	event <quoted>            × m, in id order
//	state <quoted>            × n, in index order
//	row <m cells>             × n, "." for not-enabled, else the successor
//
// Only name, shape, and the next table are encoded; the interning map and
// the CSR enabled index are derived on decode. Encoding the same table
// always yields the same bytes, so the artifact is content-stable.
func Encode(t *Table) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", encodeMagic)
	fmt.Fprintf(&b, "name %s\n", strconv.Quote(t.name))
	fmt.Fprintf(&b, "states %d events %d init %d\n", len(t.stateNames), len(t.events), t.init)
	for _, e := range t.events {
		fmt.Fprintf(&b, "event %s\n", strconv.Quote(string(e)))
	}
	for _, s := range t.stateNames {
		fmt.Fprintf(&b, "state %s\n", strconv.Quote(s))
	}
	for st := 0; st < len(t.stateNames); st++ {
		b.WriteString("row")
		row := t.next[st*int(t.numEvents) : (st+1)*int(t.numEvents)]
		for _, nxt := range row {
			if nxt == NoState {
				b.WriteString(" .")
			} else {
				fmt.Fprintf(&b, " %d", nxt)
			}
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// Decode parses the wire form back into a Table, validating every
// structural invariant before returning — a corrupt artifact yields an
// error, never a table that panics later.
func Decode(data []byte) (*Table, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	line := 0
	nextLine := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", fmt.Errorf("convrt: decode: %w", err)
			}
			return "", fmt.Errorf("convrt: decode: truncated after line %d", line)
		}
		line++
		return sc.Text(), nil
	}

	l, err := nextLine()
	if err != nil {
		return nil, err
	}
	if l != encodeMagic {
		return nil, fmt.Errorf("convrt: decode: bad magic %q (want %q)", l, encodeMagic)
	}
	l, err = nextLine()
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(l, "name ")
	if !ok {
		return nil, fmt.Errorf("convrt: decode line %d: want name", line)
	}
	name, err := strconv.Unquote(rest)
	if err != nil {
		return nil, fmt.Errorf("convrt: decode line %d: name: %w", line, err)
	}
	l, err = nextLine()
	if err != nil {
		return nil, err
	}
	var nStates, nEvents int
	var init int32
	if _, err := fmt.Sscanf(l, "states %d events %d init %d", &nStates, &nEvents, &init); err != nil {
		return nil, fmt.Errorf("convrt: decode line %d: shape: %w", line, err)
	}
	const maxDim = 1 << 24
	if nStates <= 0 || nEvents < 0 || nStates > maxDim || nEvents > maxDim {
		return nil, fmt.Errorf("convrt: decode line %d: implausible shape %d×%d", line, nStates, nEvents)
	}
	// The slices below are preallocated from the header, so a hostile header
	// must not be able to claim more than the input can hold: every event
	// and state line takes at least len(`event ""`)+1 bytes, and every row
	// at least len("row")+1 plus 2 bytes per cell. Both dimensions are at
	// most 2^24, so the product cannot overflow int64.
	minBytes := int64(nEvents)*9 + int64(nStates)*(9+4+2*int64(nEvents))
	if minBytes > int64(len(data)) {
		return nil, fmt.Errorf("convrt: decode line %d: shape %d×%d needs at least %d bytes, input has %d",
			line, nStates, nEvents, minBytes, len(data))
	}
	t := &Table{
		name:       name,
		init:       init,
		events:     make([]spec.Event, 0, nEvents),
		stateNames: make([]string, 0, nStates),
		numEvents:  int32(nEvents),
		next:       make([]int32, 0, nStates*nEvents),
	}
	for i := 0; i < nEvents; i++ {
		l, err = nextLine()
		if err != nil {
			return nil, err
		}
		rest, ok := strings.CutPrefix(l, "event ")
		if !ok {
			return nil, fmt.Errorf("convrt: decode line %d: want event", line)
		}
		e, err := strconv.Unquote(rest)
		if err != nil {
			return nil, fmt.Errorf("convrt: decode line %d: event: %w", line, err)
		}
		t.events = append(t.events, spec.Event(e))
	}
	for i := 0; i < nStates; i++ {
		l, err = nextLine()
		if err != nil {
			return nil, err
		}
		rest, ok := strings.CutPrefix(l, "state ")
		if !ok {
			return nil, fmt.Errorf("convrt: decode line %d: want state", line)
		}
		s, err := strconv.Unquote(rest)
		if err != nil {
			return nil, fmt.Errorf("convrt: decode line %d: state: %w", line, err)
		}
		t.stateNames = append(t.stateNames, s)
	}
	for st := 0; st < nStates; st++ {
		l, err = nextLine()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(l)
		if len(fields) != nEvents+1 || fields[0] != "row" {
			return nil, fmt.Errorf("convrt: decode line %d: want row with %d cells", line, nEvents)
		}
		for _, f := range fields[1:] {
			if f == "." {
				t.next = append(t.next, NoState)
				continue
			}
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("convrt: decode line %d: cell %q: %w", line, f, err)
			}
			t.next = append(t.next, int32(v))
		}
	}
	if sc.Scan() {
		return nil, fmt.Errorf("convrt: decode: trailing data after line %d", line)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	t.finish()
	return t, nil
}

// CompileEncoded is the one-call artifact producer: compile s and return
// the wire form. It is what the server uses to attach the table artifact
// to a derivation result.
func CompileEncoded(s *spec.Spec) ([]byte, error) {
	t, err := Compile(s)
	if err != nil {
		return nil, err
	}
	return Encode(t), nil
}
