// Family registry shared by the benchmark, load and fuzzing tooling: family
// kinds are registered under a short name, and "kind(n)" instance names
// parse to sized instances.
//
// The registry is open: other packages (notably internal/protosmith, whose
// randomized systems register as the "rand"/"randwedge" kinds) add kinds
// from init, so quotload and any other ParseFamily caller can consume
// generated families by name exactly like the hand-written ones.
package specgen

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

var famPattern = regexp.MustCompile(`^([a-z]+)\((\d+)\)$`)
var kindPattern = regexp.MustCompile(`^[a-z]+$`)

// Constructor builds the sized instance kind(n) of a registered family. It
// returns an error (not a panic) for sizes the kind does not support.
type Constructor func(n int) (Family, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Constructor)
)

// Register adds a family kind to the registry. The kind must be a nonempty
// lowercase word (it appears to the left of the parentheses in instance
// names such as "chain(4)"). Registering a kind that already exists is an
// explicit error — never a silent overwrite — because two packages
// registering the same name would make instance names ambiguous and
// benchmark labels unreproducible.
func Register(kind string, fn Constructor) error {
	if !kindPattern.MatchString(kind) {
		return fmt.Errorf("specgen: bad family kind %q (want a lowercase word)", kind)
	}
	if fn == nil {
		return fmt.Errorf("specgen: nil constructor for family kind %q", kind)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[kind]; dup {
		return fmt.Errorf("specgen: family kind %q already registered", kind)
	}
	registry[kind] = fn
	return nil
}

// MustRegister is Register that panics on error; intended for package init
// functions, where a duplicate name is a programming error.
func MustRegister(kind string, fn Constructor) {
	if err := Register(kind, fn); err != nil {
		panic(err)
	}
}

// Kinds returns the registered family kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// New builds the sized instance kind(n) of a registered family.
func New(kind string, n int) (Family, error) {
	regMu.RLock()
	fn, ok := registry[kind]
	regMu.RUnlock()
	if !ok {
		return Family{}, fmt.Errorf("specgen: unknown family kind %q (registered: %s)",
			kind, strings.Join(Kinds(), ", "))
	}
	return fn(n)
}

// ParseFamily resolves an instance name like "chain(4)", "chaindrop(3)", or
// "rand(7)" to its Family via the registry.
func ParseFamily(name string) (Family, error) {
	m := famPattern.FindStringSubmatch(strings.TrimSpace(name))
	if m == nil {
		return Family{}, fmt.Errorf("specgen: bad family %q (want e.g. chain(4))", name)
	}
	n, err := strconv.Atoi(m[2])
	if err != nil {
		return Family{}, fmt.Errorf("specgen: bad family size in %q: %w", name, err)
	}
	return New(m[1], n)
}

// sized adapts one of the deterministic sized constructors (which panic on
// n < 1, as befits statically known benchmark instances) into a Constructor
// that reports bad sizes as errors.
func sized(kind string, fn func(n int) Family) Constructor {
	return func(n int) (Family, error) {
		if n < 1 {
			return Family{}, fmt.Errorf("specgen: family %s(%d) needs n >= 1", kind, n)
		}
		return fn(n), nil
	}
}

func init() {
	MustRegister("chain", sized("chain", Chain))
	MustRegister("chaindrop", sized("chaindrop", ChainDrop))
	MustRegister("ring", sized("ring", Ring))
}
