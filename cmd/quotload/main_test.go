package main

import (
	"strings"
	"testing"
)

// TestLoadTestPasses runs the whole harness, in-process, at a small size:
// the same invariants `make loadtest` enforces (zero failures, hit ratio
// > 0, one content address and exactly one engine run per job).
func TestLoadTestPasses(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-clients", "4", "-rounds", "2", "-families", "chain(3),chaindrop(3)"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "quotload: OK") {
		t.Errorf("missing OK line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "chaindrop(3)") {
		t.Errorf("missing job row:\n%s", out.String())
	}
}

// TestLoadTestCluster is `make cluster-smoke` in miniature: a 3-shard ring
// under a skewed keyspace must absorb every request with one engine run
// per distinct key cluster-wide.
func TestLoadTestCluster(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-clients", "6", "-rounds", "2", "-cluster", "3",
		"-families", "chain(3)", "-variants", "4", "-dist", "zipf"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "nodes=3") {
		t.Errorf("missing cluster summary:\n%s", out.String())
	}
}

// TestLoadTestKillRejoin kills a shard mid-round and restarts it: the
// failover client must keep the failure invisible (exit 0 requires zero
// failed requests).
func TestLoadTestKillRejoin(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-clients", "4", "-rounds", "3", "-cluster", "3", "-kill",
		"-families", "chain(3)", "-variants", "3"},
		&out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "killing shard") ||
		!strings.Contains(out.String(), "restarting shard") {
		t.Errorf("kill/restart not logged:\n%s", out.String())
	}
}

func TestLoadTestBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-families", "nosuch(9)"}, &out, &errb); code != 1 {
		t.Errorf("unknown family: exit %d, want 1", code)
	}
	if code := run([]string{"-clients", "0"}, &out, &errb); code != 1 {
		t.Errorf("zero clients: exit %d, want 1", code)
	}
	if code := run([]string{"-dist", "pareto"}, &out, &errb); code != 1 {
		t.Errorf("unknown dist: exit %d, want 1", code)
	}
	if code := run([]string{"-kill"}, &out, &errb); code != 1 {
		t.Errorf("-kill without a cluster: exit %d, want 1", code)
	}
	if code := run([]string{"-kill", "-cluster", "2", "-addr", "127.0.0.1:1"}, &out, &errb); code != 1 {
		t.Errorf("-kill with -addr: exit %d, want 1", code)
	}
}
