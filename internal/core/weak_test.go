//go:build go1.24

// The weak package arrived in Go 1.24, past the module's go line, so this
// file builds only with a toolchain that has it.

package core

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"protoquot/internal/spec"
)

// deriveWithWeakRefs derives like DeriveEnvsContext and also returns weak
// pointers to the deriver and to its progress store, taken while the
// progress phase runs, so a test can check what a Result keeps reachable.
func deriveWithWeakRefs(a *spec.Spec, bs []Environment, opts Options) (*Result, weak.Pointer[deriver], weak.Pointer[progTables], error) {
	var d *deriver
	var prog weak.Pointer[progTables]
	taken := false
	opts.Trace = func(ev TraceEvent) {
		if ev.Phase == "progress" && !taken {
			prog, taken = weak.Make(d.prog), true
		}
	}
	d, err := newDeriver(context.Background(), a, bs, opts)
	if err != nil {
		return nil, weak.Pointer[deriver]{}, prog, err
	}
	res, err := d.run()
	return res, weak.Make(d), prog, err
}

// TestResultDoesNotPinDeriver: a Result whose PairSet has not been called
// yet must not keep the deriver or its progress store reachable; after a
// GC, weak pointers to both are cleared while the Result is still live, and
// PairSet still names the pair sets.
func TestResultDoesNotPinDeriver(t *testing.T) {
	a, b := altService(t), relayB(t)
	res, wd, wp, err := deriveWithWeakRefs(a, []Environment{b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ProgressIterations == 0 {
		t.Fatal("the progress phase did not run")
	}
	runtime.GC()
	if wd.Value() != nil {
		t.Error("the Result keeps its deriver reachable")
	}
	if wp.Value() != nil {
		t.Error("the Result keeps the progress store reachable")
	}
	if ps := res.PairSet(res.Converter.StateName(res.Converter.Init())); len(ps) == 0 {
		t.Error("PairSet of the initial state is empty")
	}
	runtime.KeepAlive(res)
}
