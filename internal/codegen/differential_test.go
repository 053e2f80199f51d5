package codegen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
	"protoquot/internal/protosmith"
	"protoquot/internal/spec"
	"protoquot/internal/specgen"
)

// typeCheckGenerated parses AND type-checks one generated file — parsing
// alone would admit duplicate top-level identifiers or duplicate switch
// cases.
func typeCheckGenerated(t *testing.T, filename string, src []byte) *ast.File {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check(f.Name.Name, fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("generated code does not type-check: %v\n%s", err, src)
	}
	return f
}

// extractedMachine is the machine recovered from generated source by
// walking its AST: the state-name array, the state reached by Reset, the
// nested switches of Step and the event lists of Enabled. States are
// indices, resolved through the emitted constants.
type extractedMachine struct {
	states  []string
	init    int
	next    map[int]map[string]int // state → event → target
	enabled map[int][]string       // state → Enabled() result
}

// extractMachine recovers the machine from generated source.
func extractMachine(t *testing.T, f *ast.File, typeName string) extractedMachine {
	t.Helper()
	out := extractedMachine{init: -1, next: map[int]map[string]int{}, enabled: map[int][]string{}}
	str := func(e ast.Expr) string {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("non-string literal %T", e)
		}
		v, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	consts := map[string]int{} // state constant → state index
	stateNames := lowerFirst(typeName) + "StateNames"
	ast.Inspect(f, func(n ast.Node) bool {
		gd, ok := n.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, sp := range gd.Specs {
			vs, ok := sp.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
				continue
			}
			switch {
			case gd.Tok == token.CONST:
				if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.INT {
					v, err := strconv.Atoi(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					consts[vs.Names[0].Name] = v
				}
			case vs.Names[0].Name == stateNames:
				for _, el := range vs.Values[0].(*ast.CompositeLit).Elts {
					out.states = append(out.states, str(el))
				}
			}
		}
		return false
	})
	state := func(e ast.Expr) int {
		id, ok := e.(*ast.Ident)
		if !ok {
			t.Fatalf("state expression %T is not a constant", e)
		}
		v, ok := consts[id.Name]
		if !ok {
			t.Fatalf("unknown state constant %s", id.Name)
		}
		return v
	}
	methods := map[string]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			methods[fd.Name.Name] = fd
		}
	}
	for _, name := range []string{"Reset", "Step", "Enabled"} {
		if methods[name] == nil {
			t.Fatalf("generated code has no %s method", name)
		}
	}
	// Reset: m.state = <init>; m.initialized = true.
	for _, stmt := range methods["Reset"].Body.List {
		if as, ok := stmt.(*ast.AssignStmt); ok {
			if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok && sel.Sel.Name == "state" {
				out.init = state(as.Rhs[0])
			}
		}
	}
	// outerCases yields each `case <state>:` of the method's switch on m.state.
	outerCases := func(fd *ast.FuncDecl, visit func(st int, body []ast.Stmt)) {
		for _, stmt := range fd.Body.List {
			sw, ok := stmt.(*ast.SwitchStmt)
			if !ok {
				continue
			}
			for _, cl := range sw.Body.List {
				cc := cl.(*ast.CaseClause)
				if len(cc.List) != 1 {
					t.Fatalf("%s: case with %d states", fd.Name.Name, len(cc.List))
				}
				visit(state(cc.List[0]), cc.Body)
			}
		}
	}
	// Step: case <state>: switch event { case "<ev>": m.state = <to>; return nil }.
	outerCases(methods["Step"], func(st int, body []ast.Stmt) {
		if out.next[st] != nil {
			t.Fatalf("Step: state %d has two cases", st)
		}
		out.next[st] = map[string]int{}
		for _, stmt := range body {
			inner, ok := stmt.(*ast.SwitchStmt)
			if !ok {
				continue
			}
			for _, icl := range inner.Body.List {
				icc := icl.(*ast.CaseClause)
				if len(icc.List) != 1 {
					t.Fatalf("Step: state %d: case with %d events", st, len(icc.List))
				}
				ev := str(icc.List[0])
				if _, dup := out.next[st][ev]; dup {
					t.Fatalf("Step: state %d: event %q has two cases", st, ev)
				}
				for _, bs := range icc.Body {
					if as, ok := bs.(*ast.AssignStmt); ok {
						out.next[st][ev] = state(as.Rhs[0])
					}
				}
				if _, ok := out.next[st][ev]; !ok {
					t.Fatalf("Step: state %d: event %q assigns no state", st, ev)
				}
			}
		}
	})
	// Enabled: case <state>: return []string{...}.
	outerCases(methods["Enabled"], func(st int, body []ast.Stmt) {
		ret := body[0].(*ast.ReturnStmt)
		for _, el := range ret.Results[0].(*ast.CompositeLit).Elts {
			out.enabled[st] = append(out.enabled[st], str(el))
		}
	})
	if out.states == nil || out.init < 0 {
		t.Fatalf("could not extract state names and initial state from generated source")
	}
	return out
}

// checkGeneratedTable generates source for s, type-checks it, and compares
// the recovered machine cell for cell against convrt.Compile: the generated
// Go and the runtime table are the same machine. (convrt's differential
// suite closes the loop to spec.TraceTracker.)
func checkGeneratedTable(t *testing.T, s *spec.Spec) {
	t.Helper()
	const typeName = "Gen"
	src, err := Generate(s, Config{Package: "gen", Type: typeName})
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	got := extractMachine(t, typeCheckGenerated(t, "gen.go", src), typeName)
	tab, err := convrt.Compile(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if len(got.states) != tab.NumStates() {
		t.Fatalf("%s: %d states, want %d", s.Name(), len(got.states), tab.NumStates())
	}
	if got.init != int(tab.Init()) {
		t.Fatalf("%s: init %d, want %d", s.Name(), got.init, tab.Init())
	}
	cells := 0
	for st := 0; st < tab.NumStates(); st++ {
		if got.states[st] != tab.StateName(int32(st)) {
			t.Fatalf("%s: state %d = %q, want %q", s.Name(), st, got.states[st], tab.StateName(int32(st)))
		}
		var want []string
		for ev := 0; ev < tab.NumEvents(); ev++ {
			name := string(tab.EventName(int32(ev)))
			to, ok := tab.Step(int32(st), int32(ev))
			cell, has := got.next[st][name]
			if ok != has || (ok && cell != int(to)) {
				t.Fatalf("%s: cell (%d,%q) = %d/%v, want %d/%v", s.Name(), st, name, cell, has, to, ok)
			}
			if ok {
				cells++
				want = append(want, name)
			}
		}
		sort.Strings(want)
		if fmt.Sprint(got.enabled[st]) != fmt.Sprint(want) {
			t.Fatalf("%s: Enabled in state %d = %q, want %q", s.Name(), st, got.enabled[st], want)
		}
	}
	total := 0
	for _, row := range got.next {
		total += len(row)
	}
	if total != cells || total != tab.NumTransitions() {
		t.Fatalf("%s: generated machine has %d transitions, table has %d", s.Name(), total, tab.NumTransitions())
	}
}

func TestGenerateTableColocated(t *testing.T) {
	pruned, src := generateColocated(t)
	checkGeneratedTable(t, pruned)

	// The emitted API surface, on the type-checked file.
	f := typeCheckGenerated(t, "abns.go", src)
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

// TestGenerateTableDifferentialCorpus is the generated-Go leg of the
// differential suite: every specs/ fixture that is converter-shaped, the
// paper systems, and 25 protosmith-derived converters all generate
// type-checking source whose machine equals the runtime table.
func TestGenerateTableDifferentialCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no specs/ fixtures found")
	}
	covered := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dsl.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, s := range ss {
			if s.NumInternalTransitions() > 0 || !s.DeterministicExternal() {
				continue
			}
			covered++
			s := s
			t.Run(filepath.Base(file)+":"+s.Name(), func(t *testing.T) {
				checkGeneratedTable(t, s)
			})
		}
	}
	if covered == 0 {
		t.Fatal("no eligible fixtures")
	}

	// Paper system beyond the colocated one covered above: chain(2).
	fam, err := specgen.ParseFamily("chain(2)")
	if err != nil {
		t.Fatal(err)
	}
	env, err := compose.Many(fam.Components...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Derive(fam.Service, env, core.Options{OmitVacuous: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("chain2", func(t *testing.T) { checkGeneratedTable(t, res.Converter) })
	t.Run("colocated-maximal", func(t *testing.T) {
		r, err := core.Derive(protocols.Service(), protocols.ColocatedB(), core.Options{OmitVacuous: true})
		if err != nil {
			t.Fatal(err)
		}
		checkGeneratedTable(t, r.Converter)
	})

	if testing.Short() {
		t.Skip("skipping protosmith sweep in -short mode")
	}
	const want = 25
	found := 0
	for seed := int64(0); seed < 400 && found < want; seed++ {
		sys := protosmith.Generate(seed, protosmith.DefaultKnobs())
		env, err := compose.Many(sys.Components...)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := core.Derive(sys.Service, env, core.Options{OmitVacuous: true, MaxStates: 1 << 16})
		if err != nil || !res.Exists {
			continue
		}
		found++
		t.Run(fmt.Sprintf("protosmith-seed%d", seed), func(t *testing.T) {
			checkGeneratedTable(t, res.Converter)
		})
	}
	if found < want {
		t.Fatalf("only %d derivable converters in 400 seeds, want %d", found, want)
	}
}

// TestEventIdentCollisions pins that event names which would mangle to the
// same Go identifier stay distinct: "+d0" and "-d0" (a converter alphabet
// pairs them by construction), "x.y", "x_y" and "xy", and names with no
// identifier characters at all. The backend emits events as quoted string
// literals, so every distinct name must survive as its own Step case.
func TestEventIdentCollisions(t *testing.T) {
	s := spec.NewBuilder("collide").
		Init("a").
		Ext("a", "+d0", "b").
		Ext("b", "-d0", "a"). // polarity pair of +d0
		Ext("a", "x.y", "a").
		Ext("a", "x_y", "a").
		Ext("a", "xy", "a").
		Ext("b", "***", "b").
		Ext("b", "###", "b").
		MustBuild()
	src, err := Generate(s, Config{Package: "c", Type: "C"})
	if err != nil {
		t.Fatal(err)
	}
	// Type-checking rejects duplicate constants and duplicate switch cases.
	got := extractMachine(t, typeCheckGenerated(t, "c.go", src), "C")
	for _, ev := range []string{"+d0", "x.y", "x_y", "xy"} {
		if _, ok := got.next[0][ev]; !ok {
			t.Errorf("state a: no Step case for %q in\n%s", ev, src)
		}
	}
	for _, ev := range []string{"-d0", "***", "###"} {
		if _, ok := got.next[1][ev]; !ok {
			t.Errorf("state b: no Step case for %q in\n%s", ev, src)
		}
	}

	// Determinism: regeneration is byte-identical.
	src2, err := Generate(s, Config{Package: "c", Type: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, src2) {
		t.Fatal("generation is not deterministic")
	}
	// And the machine still matches the runtime table exactly.
	checkGeneratedTable(t, s)
}
