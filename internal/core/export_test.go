package core

import "protoquot/internal/spec"

// Hooks for the external prune differential suite (prunecheck_test.go),
// which imports protosmith and so cannot live inside package core.

// RemoveState and RemoveEdge build Prune's candidate converters.
var (
	RemoveState = removeState
	RemoveEdge  = removeEdge
)

// PruneCheckVerdicts returns the compiled prune checker's verdicts on
// converter c: for c itself, for c without each state (false for the
// initial state, which Prune never removes), and for c without each external
// transition, indexed like ExtEdges.
func PruneCheckVerdicts(a *spec.Spec, bs []Environment, c *spec.Spec) (input bool, states []bool, edges [][]bool, err error) {
	pc, err := newPruneChecker(a, bs, c)
	if err != nil {
		return false, nil, nil, err
	}
	states = make([]bool, c.NumStates())
	edges = make([][]bool, c.NumStates())
	for st := range states {
		if spec.State(st) != c.Init() {
			states[st] = pc.ok(removal{state: int32(st), from: -1, edge: -1})
		}
		edges[st] = make([]bool, len(c.ExtEdges(spec.State(st))))
		for ei := range edges[st] {
			edges[st][ei] = pc.ok(removal{state: -1, from: int32(st), edge: ei})
		}
	}
	return pc.ok(noRemoval), states, edges, nil
}
