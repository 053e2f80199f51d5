package sat

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"protoquot/internal/dsl"
	"protoquot/internal/spec"
)

// fixtureSpecs loads every machine of the committed specs/ fixtures, in
// file order.
func fixtureSpecs(t *testing.T) []*spec.Spec {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no specs/ fixtures found")
	}
	var out []*spec.Spec
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dsl.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, ss...)
	}
	return out
}

// TestSatisfiesFixturePairs pins Satisfies over every (B, A) pair of specs/
// fixtures, B = A included. Each outcome must equal the two-search
// composition Safety-then-Progress field for field — violation kind, trace,
// B state and detail, or the plain precondition error — and the rendered
// outcomes must match testdata/satisfies-fixtures.golden
// (PROTOQUOT_GOLDEN=update rewrites it).
func TestSatisfiesFixturePairs(t *testing.T) {
	specs := fixtureSpecs(t)
	var got strings.Builder
	violations := 0
	for _, a := range specs {
		for _, b := range specs {
			err := Satisfies(b, a)
			ref := Safety(b, a)
			if ref == nil {
				ref = Progress(b, a)
			}
			var v, rv *Violation
			isV, refV := errors.As(err, &v), errors.As(ref, &rv)
			switch {
			case (err == nil) != (ref == nil):
				t.Errorf("Satisfies(%s, %s) = %v, Safety+Progress = %v", b.Name(), a.Name(), err, ref)
			case isV != refV:
				t.Errorf("Satisfies(%s, %s): violation %v vs %v", b.Name(), a.Name(), isV, refV)
			case isV && !reflect.DeepEqual(*v, *rv):
				t.Errorf("Satisfies(%s, %s) violation %+v, Safety+Progress %+v", b.Name(), a.Name(), *v, *rv)
			case err != nil && err.Error() != ref.Error():
				t.Errorf("Satisfies(%s, %s) = %q, Safety+Progress = %q", b.Name(), a.Name(), err, ref)
			}
			outcome := "ok"
			if isV {
				violations++
				outcome = fmt.Sprintf("%s [%s] at %s: %s", v.Kind, FormatTrace(v.Trace), v.BState, v.Detail)
			} else if err != nil {
				outcome = err.Error()
			}
			fmt.Fprintf(&got, "%s ⊨ %s: %s\n", b.Name(), a.Name(), outcome)
		}
	}
	if violations == 0 {
		t.Error("no fixture pair produced a violation: corpus rotted")
	}
	path := filepath.Join("testdata", "satisfies-fixtures.golden")
	if os.Getenv("PROTOQUOT_GOLDEN") == "update" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (PROTOQUOT_GOLDEN=update writes it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("Satisfies outcomes drifted from %s\n--- got ---\n%s", path, got.String())
	}
}
