package convrt

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"protoquot/internal/protocols"
	rt "protoquot/internal/runtime"
	"protoquot/internal/spec"
)

// The relay systems below are the smallest closed systems: a sender that
// retransmits m on timeout until k returns, a converter that relays m as n
// and l back as k, and a receiver that delivers each n and acknowledges
// with l.

func relaySender() *spec.Spec {
	return spec.NewBuilder("S").Init("s0").
		Ext("s0", "acc", "s1").Ext("s1", "-m", "s2").
		Ext("s2", "+k", "s0").Ext("s2", "tmo", "s1").
		MustBuild()
}

// relay forwards every m it receives, duplicates included.
func relay() *spec.Spec {
	return spec.NewBuilder("R").Init("r0").
		Ext("r0", "+m", "r1").Ext("r1", "-n", "r2").
		Ext("r2", "+l", "r3").Ext("r3", "-k", "r0").
		MustBuild()
}

func relayReceiver() *spec.Spec {
	return spec.NewBuilder("V").Init("v0").
		Ext("v0", "+n", "v1").Ext("v1", "del", "v2").Ext("v2", "-l", "v0").
		MustBuild()
}

func relaySystem(conv *spec.Spec, faults rt.FaultModel, messages int) SystemConfig {
	return SystemConfig{
		Service:  protocols.Service(),
		Entities: []*spec.Spec{relaySender(), conv, relayReceiver()},
		Duplexes: []Duplex{
			{Initiator: 0, Responder: 1, Faults: faults, Timeout: "tmo"},
			{Initiator: 1, Responder: 2},
		},
		Accept: "acc", Deliver: "del",
		Messages: messages, Seed: 1, Check: true,
	}
}

func runSystem(t *testing.T, cfg SystemConfig) *SystemReport {
	t.Helper()
	rep, err := RunSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLinkDeliversAndDrops: a perfect link delivers every message once; a
// delayed one still delivers them, the loop waiting out each delay; a link
// that loses everything posts a timeout per loss, which the sender takes
// to retransmit until the step bound ends the run as a livelock.
func TestLinkDeliversAndDrops(t *testing.T) {
	rep := runSystem(t, relaySystem(relay(), rt.FaultModel{}, 50))
	if !rep.OK() || rep.SvcEvents != 100 {
		t.Fatalf("perfect links: %+v (violation: %v)", rep, rep.Violation)
	}
	if want := (rt.FaultStats{Sent: 50}); !reflect.DeepEqual(rep.Links, []rt.FaultStats{want, want, want, want}) {
		t.Errorf("link counters %+v, want 50 sends on each", rep.Links)
	}

	rep = runSystem(t, relaySystem(relay(), rt.FaultModel{Delay: 1000}, 50))
	if !rep.OK() || rep.Links[0].Delayed == 0 {
		t.Fatalf("delayed links: %+v (violation: %v)", rep, rep.Violation)
	}

	rep = runSystem(t, relaySystem(relay(), rt.FaultModel{Loss: 1}, 2))
	if !rep.Livelock || rep.Delivered != 0 || rep.Steps != maxStepsPerMessage*3 {
		t.Fatalf("lossy link: %+v, want a livelock after %d steps", rep, maxStepsPerMessage*3)
	}
	// The steps are acc, then each send but the last followed by the
	// timeout it posts.
	if l := rep.Links[0]; l.Sent == 0 || l.Dropped != l.Sent || 2*l.Sent != int(rep.Steps) {
		t.Errorf("data link %+v over %d steps: want every send lost and retransmitted", l, rep.Steps)
	}
}

// TestConformanceSafetyLatch: a converter that leaves its reference is
// stopped at the first refused event, which the violation names.
func TestConformanceSafetyLatch(t *testing.T) {
	// The reference acknowledges before it relays; the deployed relay does
	// the opposite, so its second event, -n, is refused.
	ref := spec.NewBuilder("R.ref").Init("r0").
		Ext("r0", "+m", "r1").Ext("r1", "-k", "r2").
		Ext("r2", "-n", "r3").Ext("r3", "+l", "r0").
		MustBuild()
	cfg := relaySystem(relay(), rt.FaultModel{}, 10)
	cfg.Reference = ref
	rep := runSystem(t, cfg)
	v := rep.Violation
	if v == nil || v.Level != "converter" || v.Kind != "safety" || v.Entity != "R" ||
		v.State != "r1" || v.Event != "-n" || !slices.Equal(v.Enabled, []spec.Event{"-k"}) {
		t.Fatalf("violation = %+v, want the converter's -n in r1 refused, -k allowed", v)
	}
	if rep.ConvEvents != 1 || rep.Delivered != 0 || rep.OK() {
		t.Errorf("run went on past the violation: %+v", rep)
	}
}

// TestConformanceServiceAndQuiescence: the service check refuses a
// duplicate delivery (safety), and a run that quiesces owing a delivery
// fails progress.
func TestConformanceServiceAndQuiescence(t *testing.T) {
	// The relay forwards every retransmission, so a lost acknowledgement
	// makes the receiver deliver one payload twice.
	rep := runSystem(t, relaySystem(relay(), rt.FaultModel{Loss: 0.3}, 100))
	v := rep.Violation
	if v == nil || v.Level != "service" || v.Kind != "safety" || v.Event != "del" ||
		!slices.Equal(v.Enabled, []spec.Event{"acc"}) {
		t.Fatalf("violation = %+v, want a second del refused", v)
	}

	// A converter that acknowledges without relaying: the system quiesces
	// after acc, ready for nothing the service still owes.
	sink := spec.NewBuilder("R.sink").Init("r0").
		Ext("r0", "+m", "r1").Ext("r1", "-k", "r0").
		MustBuild().WithEvents("-n", "+l")
	rep = runSystem(t, relaySystem(sink, rt.FaultModel{}, 1))
	v = rep.Violation
	if v == nil || v.Level != "service" || v.Kind != "progress" ||
		!slices.Equal(v.Ready, []spec.Event{"acc"}) || !rep.Deadlock {
		t.Fatalf("report %+v, violation %+v: want a deadlock failing progress, ready for [acc]", rep, v)
	}

	// The same run unchecked still reports the deadlock.
	cfg := relaySystem(sink, rt.FaultModel{}, 1)
	cfg.Check = false
	if rep := runSystem(t, cfg); !rep.Deadlock || rep.Violation != nil || rep.SvcEvents != 0 {
		t.Fatalf("unchecked run: %+v", rep)
	}
}

// TestSystemRoutesMessages: every message needs exactly one link to carry
// it, and every other event must be a service event or a timeout.
func TestSystemRoutesMessages(t *testing.T) {
	rep := runSystem(t, relaySystem(relay(), rt.FaultModel{}, 3))
	if !rep.OK() {
		t.Fatalf("relay system: %+v", rep)
	}
	bad := map[string]func(*SystemConfig){
		"no carrier": func(c *SystemConfig) { c.Duplexes = c.Duplexes[:1] },
		"two carriers": func(c *SystemConfig) {
			c.Entities = append(c.Entities, relayReceiver())
			c.Duplexes = append(c.Duplexes, Duplex{Initiator: 1, Responder: 3})
		},
		"stray event":  func(c *SystemConfig) { c.Entities[2] = c.Entities[2].WithEvents("beep") },
		"no timeout":   func(c *SystemConfig) { c.Duplexes[0].Timeout = "" },
		"self duplex":  func(c *SystemConfig) { c.Duplexes[1].Responder = 1 },
		"bad entity":   func(c *SystemConfig) { c.Duplexes[1].Responder = 7 },
		"no converter": func(c *SystemConfig) { c.Entities[1] = c.Entities[1].WithEvents("acc") },
		"two converters": func(c *SystemConfig) {
			c.Entities[0] = spec.NewBuilder("S.mute").Init("s1").
				Ext("s1", "-m", "s2").Ext("s2", "+k", "s1").Ext("s2", "tmo", "s1").MustBuild()
		},
		"bad accept": func(c *SystemConfig) { c.Accept = "send" },
		"no service": func(c *SystemConfig) { c.Service = nil },
		"bad fault":  func(c *SystemConfig) { c.Duplexes[0].Faults.Loss = 1.5 },
	}
	for name, mutate := range bad {
		cfg := relaySystem(relay(), rt.FaultModel{}, 3)
		mutate(&cfg)
		if _, err := RunSystem(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestSystemViolationMessage(t *testing.T) {
	safety := &SystemViolation{Level: "converter", Kind: "safety", Entity: "R", State: "r1",
		Event: "-n", Enabled: []spec.Event{"-k"}, Step: 3}
	progress := &SystemViolation{Level: "service", Kind: "progress", Ready: []spec.Event{"acc"}, Step: 9}
	for _, c := range []struct {
		v    *SystemViolation
		want []string
	}{
		{safety, []string{"converter safety", "after 3 steps", "R", `"-n"`, "r1", "[-k]"}},
		{progress, []string{"service progress", "after 9 steps", "[acc]"}},
	} {
		for _, w := range c.want {
			if msg := c.v.Error(); !strings.Contains(msg, w) {
				t.Errorf("%q does not mention %q", msg, w)
			}
		}
	}
}
