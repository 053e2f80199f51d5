package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protoquot/internal/compose"
	"protoquot/internal/convrt"
	"protoquot/internal/core"
	"protoquot/internal/specgen"
)

func runHarness(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestDefaultPaperRunClean(t *testing.T) {
	code, out, errb := runHarness(t,
		"-sessions", "50", "-steps", "100", "-seed", "3", "-assert-clean")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "paper:ab-ns-colocated") {
		t.Errorf("missing source line: %s", out)
	}
	if !strings.Contains(out, "50 completed, 0 failed") {
		t.Errorf("missing clean session line: %s", out)
	}
	if !strings.Contains(out, "0 violations") {
		t.Errorf("missing conformance line: %s", out)
	}
	for _, line := range []string{"wait p50/p99 (enqueue→execute): ", "service p50/p99 (per-sweep mean per executed step): "} {
		if !strings.Contains(out, line) {
			t.Errorf("missing %q line: %s", line, out)
		}
	}
}

func TestFamilySourceAndFaults(t *testing.T) {
	code, out, errb := runHarness(t,
		"-family", "chain(2)", "-sessions", "20", "-steps", "100",
		"-faults", "loss=0.1,dup=0.1,reorder=0.1", "-seed", "5", "-assert-clean")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "family:chain(2)") {
		t.Errorf("missing family source: %s", out)
	}
	if strings.Contains(out, "dropped=0 ") {
		t.Errorf("loss configured but nothing dropped: %s", out)
	}
}

// TestEmitAndReloadTableArtifact round-trips the compiled-table artifact
// through -emit-table and -table: the second run executes the decoded
// artifact with a reference reconstructed from the table itself.
func TestEmitAndReloadTableArtifact(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "conv.table")
	code, _, errb := runHarness(t,
		"-sessions", "5", "-steps", "20", "-emit-table", p, "-assert-clean")
	if code != 0 {
		t.Fatalf("emit run: exit %d, stderr: %s", code, errb)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := convrt.Decode(data); err != nil {
		t.Fatalf("emitted table does not decode: %v", err)
	}
	code, out, errb := runHarness(t,
		"-table", p, "-sessions", "20", "-steps", "100", "-seed", "9", "-assert-clean")
	if code != 0 {
		t.Fatalf("table run: exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "table:") || !strings.Contains(out, "0 violations") {
		t.Errorf("table-source run wrong: %s", out)
	}
}

func TestConverterSpecSource(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "c.spec")
	text := "spec tiny\ninit a\next a x b\next b y a\n"
	if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runHarness(t,
		"-converter", p, "-sessions", "10", "-steps", "50", "-assert-clean")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "spec:tiny") {
		t.Errorf("missing spec source: %s", out)
	}
}

// TestFamilyTableMatchesEagerDerivation checks that -family, which derives
// and prunes over the lazy composition, emits exactly the table of the
// eager compose.Many + Derive + Prune pipeline.
func TestFamilyTableMatchesEagerDerivation(t *testing.T) {
	p := filepath.Join(t.TempDir(), "chain2.table")
	if code, _, errb := runHarness(t,
		"-family", "chain(2)", "-sessions", "1", "-steps", "1", "-emit-table", p); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
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
	conv, err := core.Prune(fam.Service, env, res.Converter)
	if err != nil {
		t.Fatal(err)
	}
	table, err := convrt.Compile(conv)
	if err != nil {
		t.Fatal(err)
	}
	if want := convrt.Encode(table); !bytes.Equal(got, want) {
		t.Errorf("-family table differs from the eager pipeline's:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestJSONReport(t *testing.T) {
	code, out, errb := runHarness(t, "-sessions", "10", "-steps", "50", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, out)
	}
	if rep.Report == nil || rep.Report.Steps != 10*50 {
		t.Fatalf("report wrong: %+v", rep)
	}
	if rep.Report.MsgsPerSec <= 0 || rep.Report.P99StepNs <= 0 {
		t.Fatalf("report carries no throughput or latency: %+v", rep.Report)
	}
	if rep.Report.ServiceP50Ns <= 0 || rep.Report.ServiceP99Ns < rep.Report.ServiceP50Ns {
		t.Fatalf("report carries no service time: %+v", rep.Report)
	}
	if !strings.Contains(out, `"ServiceP99Ns"`) {
		t.Errorf("JSON lacks ServiceP99Ns: %s", out)
	}
}

func TestBadInputs(t *testing.T) {
	if code, _, _ := runHarness(t, "-faults", "loss=nope"); code != 2 {
		t.Errorf("bad fault model: exit %d, want 2", code)
	}
	if code, _, _ := runHarness(t, "-family", "chain(2)", "-table", "x"); code != 1 {
		t.Errorf("conflicting sources: exit %d, want 1", code)
	}
	if code, _, _ := runHarness(t, "-table", filepath.Join(t.TempDir(), "missing")); code != 1 {
		t.Errorf("missing table file: exit %d, want 1", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.table")
	os.WriteFile(bad, []byte("not a table"), 0o644)
	if code, _, errb := runHarness(t, "-table", bad); code != 1 || !strings.Contains(errb, "magic") {
		t.Errorf("corrupt table: exit %d stderr %q, want 1 with decode error", code, errb)
	}
	if code, _, _ := runHarness(t, "positional"); code != 2 {
		t.Errorf("positional args: exit %d, want 2", code)
	}
}

// TestAssertCleanFailsOnCanceledRun drives the gate's failure path: a
// timeout that cancels sessions mid-run must flunk -assert-clean with
// exit 2.
func TestAssertCleanFailsOnCanceledRun(t *testing.T) {
	code, _, errb := runHarness(t,
		"-sessions", "64", "-steps", "10000000", "-timeout", "30ms",
		"-faults", "delay=1ms", "-assert-clean")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errb)
	}
	if !strings.Contains(errb, "ASSERT FAILED") {
		t.Errorf("missing assert diagnostic: %s", errb)
	}
}

func TestNoConformMode(t *testing.T) {
	code, out, errb := runHarness(t,
		"-sessions", "10", "-steps", "50", "-no-conform", "-assert-clean")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "conformance: disabled") {
		t.Errorf("conformance not reported disabled: %s", out)
	}
}
