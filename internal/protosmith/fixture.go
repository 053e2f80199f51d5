package protosmith

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"protoquot/internal/dsl"
)

// FixtureText renders a system as a ready-to-commit regression fixture: a
// commented header recording how it was found, then the specs in dsl text
// form, service first. dsl.Parse reads the result back verbatim (the header
// lines are ordinary # comments).
func FixtureText(sys *System, note string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# protosmith regression fixture\n")
	fmt.Fprintf(&b, "# seed %d\n", sys.Seed)
	fmt.Fprintf(&b, "# knobs %s\n", sys.Knobs)
	if note != "" {
		for _, line := range strings.Split(strings.TrimRight(note, "\n"), "\n") {
			fmt.Fprintf(&b, "# %s\n", line)
		}
	}
	fmt.Fprintf(&b, "# %s\n", sys)
	fmt.Fprintf(&b, "# first spec is the service; the rest compose into the environment\n")
	for _, s := range sys.Specs() {
		b.WriteString("\n")
		b.WriteString(dsl.String(s))
	}
	return b.String()
}

// WriteFixture writes the system under dir (created if needed) as
// seed<N>.spec and returns the path.
func WriteFixture(dir string, sys *System, note string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("protosmith: fixture dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seed%d.spec", sys.Seed))
	if err := os.WriteFile(path, []byte(FixtureText(sys, note)), 0o644); err != nil {
		return "", fmt.Errorf("protosmith: write fixture: %w", err)
	}
	return path, nil
}

// LoadFixture parses a fixture file back into a System (service first). The
// seed is recovered from the "# seed N" header when present; knobs are not
// needed to re-check a concrete system and are left zero.
func LoadFixture(path string) (*System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	specs, err := dsl.ParseAll(string(data))
	if err != nil {
		return nil, fmt.Errorf("protosmith: fixture %s: %w", path, err)
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("protosmith: fixture %s: want a service plus at least one component, got %d specs", path, len(specs))
	}
	sys := &System{Service: specs[0], Components: specs[1:]}
	for _, line := range strings.Split(string(data), "\n") {
		var n int64
		if _, serr := fmt.Sscanf(line, "# seed %d", &n); serr == nil {
			sys.Seed = n
			break
		}
	}
	return sys, nil
}
