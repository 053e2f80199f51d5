package main

import (
	"errors"
	"strings"
	"testing"
)

func TestScenarioABNS(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-messages", "8", "-faults", "loss=0.3", "-seed", "7"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if s := out.String(); !strings.Contains(s, "accepted 8 payloads, delivered 8 (in order: true)") {
		t.Errorf("delivery report missing:\n%s", s)
	}
}

// stripElapsed drops the wall-clock line, the one varying part of a
// scenario report.
func stripElapsed(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "elapsed:") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestScenarioABNSGolden: under every fault class, the scenario report is
// a function of the seed, which is what makes the printed seed a
// reproduction handle; another seed draws another fault schedule.
func TestScenarioABNSGolden(t *testing.T) {
	runSeed := func(seed string) string {
		var out, errb strings.Builder
		args := []string{"-faults", "loss=0.2,dup=0.1,reorder=0.05,corrupt=0.02,burst=3,delay=5us",
			"-conform", "-messages", "500", "-seed", seed}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.String()
	}
	first, second := runSeed("42"), runSeed("42")
	if a, b := stripElapsed(first), stripElapsed(second); a != b {
		t.Errorf("same seed produced different reports:\n--- first\n%s\n--- second\n%s", a, b)
	}
	for _, want := range []string{
		"seed 42, faults loss=0.2,dup=0.1,reorder=0.05,corrupt=0.02,delay=5µs,burst=3, 500 messages",
		"accepted 500 payloads, delivered 500 (in order: true)",
		"lost", "corrupted", "duplicated", "reordered", "delayed",
		"1000 service events checked",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("report missing %q:\n%s", want, first)
		}
	}
	links := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, " link: ") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if other := runSeed("43"); links(other) == links(first) {
		t.Errorf("seeds 42 and 43 drew the same fault counters:\n%s", links(first))
	}
}

// TestScenarioABNSMutant: deploying a converter with one redirected
// transition must exit nonzero with a conformance violation that names the
// reproduction seed.
func TestScenarioABNSMutant(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-mutate", "c12:+d0:c1",
		"-faults", "loss=0.2,dup=0.1,reorder=0.05", "-messages", "1000",
		"-seed", "42"}, &out, &errb)
	if code == 0 {
		t.Fatalf("mutant run exited 0:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "conformance violation") {
		t.Errorf("violation not reported: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "-seed 42") {
		t.Errorf("reproduction seed not printed: %s", errb.String())
	}
	if !strings.Contains(out.String(), "monitoring against the derived original") {
		t.Errorf("mutation banner missing:\n%s", out.String())
	}
}

func TestScenarioFlagErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-faults", "bogus=1"}, &out, &errb); code != 1 {
		t.Error("bad -faults should exit 1")
	}
	if code := run([]string{"-mutate", "nope"}, &out, &errb); code != 1 {
		t.Error("malformed -mutate should exit 1")
	}
	if code := run([]string{"-mutate", "c0:+d9:c1"}, &out, &errb); code != 1 {
		t.Error("nonexistent mutation edge should exit 1")
	}
}

// TestUsageErrors: an unknown flag, such as a walk or scenario selector,
// exits 1.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-walk", "x"}, {"-steps", "10"}, {"-runs", "2"}, {"-scenario", "abns"}, {"-loss", "0.2"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
	}
}

// failAfterWriter fails every write after the first n bytes — a stand-in
// for a full disk or a closed pipe under the report.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		allowed := w.n - w.written
		if allowed < 0 {
			allowed = 0
		}
		w.written += allowed
		return allowed, errWriteFailed
	}
	w.written += len(p)
	return len(p), nil
}

var errWriteFailed = errors.New("write failed: no space left on device")

// TestReportWriteErrorsPropagate: a run whose simulation succeeds but whose
// report cannot be written must exit non-zero and say why — soak reports
// feeding dashboards must not silently truncate.
func TestReportWriteErrorsPropagate(t *testing.T) {
	var errb strings.Builder
	out := &failAfterWriter{n: 64}
	code := run([]string{"-soak", "10", "-seed", "1"}, out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 when the report write fails\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "writing report") ||
		!strings.Contains(errb.String(), "no space left") {
		t.Errorf("write failure not diagnosed on stderr: %s", errb.String())
	}

	// The same run with a working writer still passes.
	var good, errb2 strings.Builder
	if code := run([]string{"-soak", "10", "-seed", "1"}, &good, &errb2); code != 0 {
		t.Fatalf("control run failed: exit %d: %s", code, errb2.String())
	}
}
