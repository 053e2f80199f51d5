package protocols

import (
	"fmt"

	"protoquot/internal/compose"
	"protoquot/internal/spec"
)

// The non-sequenced protocol (paper Figure 8). No sequence numbers: the
// sender repeats the data message until an acknowledgement arrives, and the
// receiver delivers every data message it removes from the channel. Each
// message is delivered at least once; duplicates are possible when an
// acknowledgement is lost.

// NSSender returns the NS protocol sender N0. Interface:
//
//	acc      — accept a message from the user (Ext)
//	-D       — pass the data message into the channel
//	+A       — remove the acknowledgement from the channel
//	tmo.ns   — channel timeout after a loss (either direction)
func NSSender() *spec.Spec {
	b := spec.NewBuilder("N0")
	b.Init("n0")
	b.Ext("n0", Acc, "n1")
	b.Ext("n1", "-D", "n2")
	b.Ext("n2", "+A", "n0")
	b.Ext("n2", TmoNS, "n1") // retransmit on any loss
	return b.MustBuild()
}

// NSReceiver returns the NS protocol receiver N1. Interface:
//
//	del   — deliver a message to the user (Ext)
//	+D    — remove a data message from the channel
//	-A    — pass an acknowledgement into the channel
//
// Every received data message is delivered and acknowledged.
func NSReceiver() *spec.Spec {
	b := spec.NewBuilder("N1")
	b.Init("m0")
	b.Ext("m0", "+D", "m1")
	b.Ext("m1", Del, "m2")
	b.Ext("m2", "-A", "m0")
	return b.MustBuild()
}

// NSSystem composes sender, channel, and receiver into the closed NS
// protocol system: external events are acc and del only. The package tests
// verify it satisfies AtLeastOnceService but not the exactly-once Service.
func NSSystem() *spec.Spec {
	s := compose.MustMany(NSSender(), NSChannel(), NSReceiver())
	return s.Renamed("NSSystem")
}

// ---------------------------------------------------------------------------
// Conversion-problem configurations (Figures 9 and 13).
// ---------------------------------------------------------------------------

// SymmetricB returns B for the Figure 9 configuration: the AB sender talks
// through its lossy channel to the converter, which talks through the lossy
// NS channel to the NS receiver. The converter-facing (Int) alphabet is
//
//	+d0 +d1  (data from the AB channel)   -a0 -a1 (acks into the AB channel)
//	-D       (data into the NS channel)   +A      (ack from the NS channel)
//	tmo.ns   (NS-channel timeout — the converter is the NS-side sender)
//
// and Ext is {acc, del}. Per the paper, a converter exists with respect to
// safety but not progress: after a loss on the NS side the converter cannot
// tell whether the data or the acknowledgement was lost.
func SymmetricB() *spec.Spec {
	s := compose.MustMany(SymmetricBComponents()...)
	return s.Renamed("B.sym")
}

// SymmetricBComponents returns the machines SymmetricB composes, in
// composition order, for callers that feed the system to the demand-driven
// composition (compose.LazyMany) instead of its materialized Spec.
func SymmetricBComponents() []*spec.Spec {
	return []*spec.Spec{ABSender(), ABChannel(), NSChannel(), NSReceiver()}
}

// ReliableNSB returns B for the runtime deployment configuration: like the
// Figure 9 arrangement, but the NS-side channel is reliable (the converter
// and receiver share a machine, yet still talk through a channel API). The
// converter interface keeps the channel-style events -D and +A, which is
// what the runtime's link layer speaks; with no NS-side loss the quotient
// exists, as in the co-located case.
func ReliableNSB() *spec.Spec {
	nch := ReliableChannel("Nch0", []string{"D"}, []string{"A"})
	s := compose.MustMany(ABSender(), ABChannel(), nch, NSReceiver())
	return s.Renamed("B.relns")
}

// ReliableNSBLossFree returns the loss-free variant of ReliableNSB: the
// same system with an AB-side channel that never loses messages (and hence
// never times out). Deriving against both variants (core.DeriveRobust)
// yields a converter whose progress does not depend on losses occurring —
// the right object to deploy on real links, where loss is possible but can
// never be relied upon. The alphabet matches ReliableNSB exactly.
func ReliableNSBLossFree() *spec.Spec {
	ach := ReliableChannel("Ach", []string{"d0", "d1"}, []string{"a0", "a1"}).WithEvents(TmoAB)
	nch := ReliableChannel("Nch0", []string{"D"}, []string{"A"})
	s := compose.MustMany(ABSender(), ach, nch, NSReceiver())
	return s.Renamed("B.relns0")
}

// ReliableNSBBounded returns the variant of ReliableNSB whose AB-side
// channel loses at most k messages in total and is perfect afterwards
// (k = 0 is ReliableNSBLossFree). Deriving robustly against ReliableNSB
// plus a few bounded variants yields a converter that never *relies* on a
// further loss for recovery: any behavior needing one more loss is exactly
// what the variant with that many losses spent forbids.
func ReliableNSBBounded(k int) *spec.Spec {
	if k <= 0 {
		return ReliableNSBLossFree().Renamed("B.relns.k0")
	}
	ach := MustDuplexChannel("Ach", ChannelConfig{
		Forward:   []string{"d0", "d1"},
		Reverse:   []string{"a0", "a1"},
		Lossy:     true,
		Timeout:   TmoAB,
		MaxLosses: k,
	})
	nch := ReliableChannel("Nch0", []string{"D"}, []string{"A"})
	s := compose.MustMany(ABSender(), ach, nch, NSReceiver())
	return s.Renamed(fmt.Sprintf("B.relns.k%d", k))
}

// DeploymentEnvs returns the environment family used to derive a
// deployable AB→NS converter: the unbounded lossy environment (the paper's
// semantics) plus loss budgets 0..k.
func DeploymentEnvs(k int) []*spec.Spec {
	envs := []*spec.Spec{ReliableNSB()}
	for i := 0; i <= k; i++ {
		envs = append(envs, ReliableNSBBounded(i))
	}
	return envs
}

// EventuallyReliableNSB returns the deployment environment of choice: the
// ReliableNSB arrangement with an eventually-reliable (fair-lossy) AB-side
// channel. Any message may be lost, but the channel may also internally
// become permanently reliable, so a correct converter can never rely on a
// future loss — loss-dependent recovery paths are eliminated during the
// quotient's progress phase rather than left for pruning to find.
func EventuallyReliableNSB() *spec.Spec {
	ach := MustDuplexChannel("Ach", ChannelConfig{
		Forward:            []string{"d0", "d1"},
		Reverse:            []string{"a0", "a1"},
		Lossy:              true,
		Timeout:            TmoAB,
		EventuallyReliable: true,
	})
	nch := ReliableChannel("Nch0", []string{"D"}, []string{"A"})
	s := compose.MustMany(ABSender(), ach, nch, NSReceiver())
	return s.Renamed("B.relns.er")
}

// ColocatedB returns B for the Figure 13 configuration: the converter is
// co-located with the NS receiver, exchanging +D and -A with it directly
// and without loss. Int is {+d0, +d1, -a0, -a1, +D, -A}; Ext is {acc, del}.
// The quotient exists (Figure 14).
func ColocatedB() *spec.Spec {
	s := compose.MustMany(ColocatedBComponents()...)
	return s.Renamed("B.coloc")
}

// ColocatedBComponents returns the machines ColocatedB composes, in
// composition order; see SymmetricBComponents.
func ColocatedBComponents() []*spec.Spec {
	return []*spec.Spec{ABSender(), ABChannel(), NSReceiver()}
}
