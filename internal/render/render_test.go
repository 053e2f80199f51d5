package render

import (
	"strings"
	"testing"

	"protoquot/internal/protocols"
	"protoquot/internal/spec"
)

func TestDOTBasics(t *testing.T) {
	s := protocols.Service()
	out := DOTString(s, DOTOptions{})
	for _, want := range []string{
		"digraph \"S\"", "rankdir=LR", `"v0" -> "v1" [label="acc"]`,
		`"v1" -> "v0" [label="del"]`, "__init ->",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestDOTInternalDashed(t *testing.T) {
	out := DOTString(protocols.Fig4(), DOTOptions{HighlightSinks: true})
	if !strings.Contains(out, "style=dashed") {
		t.Error("internal transitions should be dashed")
	}
	if !strings.Contains(out, "peripheries=2") {
		t.Error("sink-set states should be highlighted")
	}
}

func TestDOTRankDirAndLabels(t *testing.T) {
	out := DOTString(protocols.Service(), DOTOptions{
		RankDir:    "TB",
		StateNames: map[string]string{"v0": "idle"},
	})
	if !strings.Contains(out, "rankdir=TB") {
		t.Error("rankdir not applied")
	}
	if !strings.Contains(out, `label="idle"`) {
		t.Error("state label mapping not applied")
	}
}

func TestTable(t *testing.T) {
	out := TableString(protocols.Service())
	if !strings.Contains(out, "> v0") {
		t.Errorf("initial state marker missing:\n%s", out)
	}
	if !strings.Contains(out, "acc") || !strings.Contains(out, "del") {
		t.Error("event columns missing")
	}
}

func TestTableNondeterministic(t *testing.T) {
	b := spec.NewBuilder("n")
	b.Init("a").Ext("a", "x", "b").Ext("a", "x", "c").Int("a", "b")
	s := b.MustBuild()
	out := TableString(s)
	if !strings.Contains(out, "b,c") {
		t.Errorf("multiple successors should be comma-joined:\n%s", out)
	}
}
