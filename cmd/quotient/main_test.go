package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"protoquot/internal/dsl"
	"protoquot/internal/protocols"
)

// writeSpecFile serializes a spec into dir and returns its path.
func writeSpecFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const serviceText = `
spec S
init v0
ext v0 acc v1
ext v1 del v0
`

const worldText = `
spec B
init b0
ext b0 acc b1
ext b1 fwd b2
ext b2 del b0
`

func TestRunDerivesConverter(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	outFile := filepath.Join(dir, "c.spec")
	dotFile := filepath.Join(dir, "c.dot")

	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env, "-o", outFile,
		"-dot", dotFile, "-verify", "-stats", "-prune"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dsl.ParseString(string(data))
	if err != nil {
		t.Fatalf("output is not a valid spec: %v", err)
	}
	if !c.HasEvent("fwd") {
		t.Error("converter missing its event")
	}
	if !strings.Contains(errb.String(), "verified") {
		t.Errorf("expected verification note, got: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "safety phase") {
		t.Error("expected stats output")
	}
	dot, err := os.ReadFile(dotFile)
	if err != nil || !strings.Contains(string(dot), "digraph") {
		t.Errorf("dot output missing: %v", err)
	}
}

func TestRunStdout(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	var out, errb strings.Builder
	if code := run([]string{"-service", svc, "-env", env}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "spec C(") {
		t.Errorf("stdout missing converter:\n%s", out.String())
	}
}

func TestRunNoQuotientExitCode(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", `
spec B
init b0
ext b0 acc b1
ext b1 fwd b2
event del
`)
	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "no converter exists") {
		t.Errorf("stderr: %s", errb.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 1 {
		t.Error("missing flags should exit 1")
	}
	if code := run([]string{"-service", "/nonexistent", "-env", "/nonexistent"}, &out, &errb); code != 1 {
		t.Error("missing files should exit 1")
	}
	if code := run([]string{"-bogus"}, &out, &errb); code != 1 {
		t.Error("bad flag should exit 1")
	}
}

func TestRunNormalizeFlag(t *testing.T) {
	dir := t.TempDir()
	// Service with unfocused nondeterminism: needs -normalize.
	svc := writeSpecFile(t, dir, "s.spec", `
spec S
init v0
ext v0 acc v1
ext v0 acc v2
ext v1 del v0
ext v2 del v0
`)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	var out, errb strings.Builder
	if code := run([]string{"-service", svc, "-env", env}, &out, &errb); code != 1 {
		t.Error("non-normal-form service without -normalize should fail")
	}
	if !strings.Contains(errb.String(), "-normalize") {
		t.Errorf("error should suggest -normalize: %s", errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-service", svc, "-env", env, "-normalize"}, &out, &errb); code != 0 {
		t.Fatalf("with -normalize: exit %d: %s", code, errb.String())
	}
}

func TestRunSafetyOnlySymmetric(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", dsl.String(protocols.Service()))
	env := writeSpecFile(t, dir, "b.spec", dsl.String(protocols.SymmetricB()))
	var out, errb strings.Builder
	// Full derivation: exit 2 (no converter, paper §5).
	if code := run([]string{"-service", svc, "-env", env}, &out, &errb); code != 2 {
		t.Fatalf("symmetric full derivation: exit %d, want 2", code)
	}
	out.Reset()
	errb.Reset()
	// Safety only: exit 0 and a Figure 12 converter.
	if code := run([]string{"-service", svc, "-env", env, "-safety-only", "-omit-vacuous"}, &out, &errb); code != 0 {
		t.Fatalf("safety-only: exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "spec C(") {
		t.Error("safety-only converter missing")
	}
}

func TestRunVerbose(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	var out, errb strings.Builder
	if code := run([]string{"-service", svc, "-env", env, "-v"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "safety phase:") {
		t.Errorf("verbose narration missing: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "progress phase:") {
		t.Errorf("progress narration missing: %s", errb.String())
	}
}

func TestRunMinimize(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env, "-minimize", "-prune", "-verify"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	c, err := dsl.ParseString(out.String())
	if err != nil {
		t.Fatalf("output invalid: %v", err)
	}
	// The relay converter minimizes to a single state with a self-loop.
	if c.NumStates() != 1 {
		t.Errorf("minimized relay should have 1 state, got %d:\n%s", c.NumStates(), out.String())
	}
}

func TestRunRobustMultipleEnvs(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env1 := writeSpecFile(t, dir, "b1.spec", worldText)
	env2 := writeSpecFile(t, dir, "b2.spec", worldText) // same alphabet
	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env1, "-env", env2, "-verify"}, &out, &errb)
	if code != 0 {
		t.Fatalf("robust run failed: %d: %s", code, errb.String())
	}
}

func TestRunGenerateGo(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	genFile := filepath.Join(dir, "conv.go")
	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env, "-prune",
		"-gen", genFile, "-gen-pkg", "myconv"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(genFile)
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	if !strings.Contains(src, "package myconv") {
		t.Errorf("generated package wrong:\n%s", src)
	}
	if !strings.Contains(src, "func (m *") || !strings.Contains(src, "Step(event string) error") {
		t.Error("generated machine API missing")
	}
}

// TestRunProfilesAndStatsCounters exercises -cpuprofile and -memprofile and
// checks the progress-memo counters appear in -stats output.
func TestRunProfilesAndStatsCounters(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	var out, errb strings.Builder
	code := run([]string{"-service", svc, "-env", env, "-stats",
		"-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "progress memo:") {
		t.Errorf("stats output missing progress-memo counters: %s", errb.String())
	}
	if !regexp.MustCompile(`progress memo:.*, [0-9.]+(G|M|K)?i?B store\n`).MatchString(errb.String()) {
		t.Errorf("progress-memo line missing the store size: %s", errb.String())
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
}

// TestRunDeriveTimeout pins the -derivetimeout flag: an unreasonably small
// budget must abort the derivation with a cancellation error, and a generous
// one must leave the result untouched.
func TestRunDeriveTimeout(t *testing.T) {
	dir := t.TempDir()
	svc := writeSpecFile(t, dir, "s.spec", serviceText)
	env := writeSpecFile(t, dir, "b.spec", worldText)

	var out, errb strings.Builder
	if code := run([]string{"-service", svc, "-env", env, "-derivetimeout", "1ns"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d with 1ns budget, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "canceled") {
		t.Errorf("expected a cancellation message, got: %s", errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-service", svc, "-env", env, "-derivetimeout", "1m"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with 1m budget, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "spec ") {
		t.Error("expected a converter on stdout")
	}
}
