// Code generated from specification "C(S/B.relns.er)"; DO NOT EDIT.
// AB→NS converter derived against the eventually-reliable environment and pruned; regenerate with: PROTOQUOT_GOLDEN=update go test -run TestEmbeddedExampleGolden ./internal/codegen

package abnsconv

import "fmt"

// ABToNSState enumerates the states of C(S/B.relns.er).
type ABToNSState int

const (
	ABToNSState0 ABToNSState = 0 // c0
	ABToNSState1 ABToNSState = 1 // c1
	ABToNSState2 ABToNSState = 2 // c3
	ABToNSState3 ABToNSState = 3 // c7
	ABToNSState4 ABToNSState = 4 // c12
	ABToNSState5 ABToNSState = 5 // c17
	ABToNSState6 ABToNSState = 6 // c21
	ABToNSState7 ABToNSState = 7 // c27
	ABToNSState8 ABToNSState = 8 // c31
)

var aBToNSStateNames = [...]string{
	"c0",
	"c1",
	"c3",
	"c7",
	"c12",
	"c17",
	"c21",
	"c27",
	"c31",
}

// ABToNS is the generated state machine. The zero value starts at the
// initial state "c0".
type ABToNS struct {
	state       ABToNSState
	initialized bool
}

// NewABToNS returns a machine at the initial state.
func NewABToNS() *ABToNS { m := &ABToNS{}; m.Reset(); return m }

// Reset returns the machine to the initial state.
func (m *ABToNS) Reset() { m.state = ABToNSState0; m.initialized = true }

// State returns the current state's name.
func (m *ABToNS) State() string {
	m.ensure()
	return aBToNSStateNames[m.state]
}

func (m *ABToNS) ensure() {
	if !m.initialized {
		m.Reset()
	}
}

// Enabled returns the events accepted in the current state, sorted.
func (m *ABToNS) Enabled() []string {
	m.ensure()
	switch m.state {
	case ABToNSState0:
		return []string{"+d0"}
	case ABToNSState1:
		return []string{"-D"}
	case ABToNSState2:
		return []string{"+A"}
	case ABToNSState3:
		return []string{"-a0"}
	case ABToNSState4:
		return []string{"+d0", "+d1"}
	case ABToNSState5:
		return []string{"-D"}
	case ABToNSState6:
		return []string{"+A"}
	case ABToNSState7:
		return []string{"-a1"}
	case ABToNSState8:
		return []string{"+d0", "+d1"}
	}
	return nil
}

// Step advances the machine by one event; it returns an error (and
// leaves the state unchanged) if the event is not enabled.
func (m *ABToNS) Step(event string) error {
	m.ensure()
	switch m.state {
	case ABToNSState0:
		switch event {
		case "+d0":
			m.state = ABToNSState1
			return nil
		}
	case ABToNSState1:
		switch event {
		case "-D":
			m.state = ABToNSState2
			return nil
		}
	case ABToNSState2:
		switch event {
		case "+A":
			m.state = ABToNSState3
			return nil
		}
	case ABToNSState3:
		switch event {
		case "-a0":
			m.state = ABToNSState4
			return nil
		}
	case ABToNSState4:
		switch event {
		case "+d0":
			m.state = ABToNSState3
			return nil
		case "+d1":
			m.state = ABToNSState5
			return nil
		}
	case ABToNSState5:
		switch event {
		case "-D":
			m.state = ABToNSState6
			return nil
		}
	case ABToNSState6:
		switch event {
		case "+A":
			m.state = ABToNSState7
			return nil
		}
	case ABToNSState7:
		switch event {
		case "-a1":
			m.state = ABToNSState8
			return nil
		}
	case ABToNSState8:
		switch event {
		case "+d0":
			m.state = ABToNSState1
			return nil
		case "+d1":
			m.state = ABToNSState7
			return nil
		}
	}
	return fmt.Errorf("ABToNS: event %q not enabled in state %s", event, m.State())
}
