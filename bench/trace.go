package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are wall
// clock nanoseconds since the Unix epoch, so spans recorded by a derive child
// process nest inside the parent's span around that child.
type span struct {
	Name   string             `json:"name"`
	Trace  int64              `json:"trace_id"`
	ID     int64              `json:"span_id"`
	Parent int64              `json:"parent_id,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int64
	// base anchors the monotonic clock to the wall clock once, so spans
	// placed by adding engine-reported durations to a start time nest
	// exactly inside the span that measured the call.
	base     time.Time
	baseUnix int64
}

func newTracer() *tracer {
	now := time.Now()
	return &tracer{base: now, baseUnix: now.UnixNano()}
}

func (t *tracer) unix(tm time.Time) int64 { return t.baseUnix + tm.Sub(t.base).Nanoseconds() }

// id reserves a span id, so children can name a parent that has not ended.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span under a reserved id (0 reserves one) and
// returns the id.
func (t *tracer) add(id, trace, parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: t.unix(start), End: t.unix(end), Attrs: attrs})
	t.mu.Unlock()
	return id
}

// merge adopts spans recorded by another process, renumbering their ids and
// hanging their roots under parent.
func (t *tracer) merge(spans []span, parent int64) {
	if t == nil {
		return
	}
	ids := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ids[s.ID] = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.ID = ids[s.ID]
		if p, ok := ids[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = parent
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span id.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// checkSpans verifies the span tree: ids are unique, every parent exists and
// shares its child's trace, and every child lies inside its parent.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			return fmt.Errorf("span %q: bad or duplicate id %d", s.Name, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %q ends before it starts", s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %q: parent %d missing", s.Name, s.Parent)
		case p.Trace != s.Trace:
			return fmt.Errorf("span %q: trace %d differs from parent %q trace %d", s.Name, s.Trace, p.Name, p.Trace)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %q [%d,%d] lies outside parent %q [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics derives the per-derivation layer metrics from the spans the
// pipeline stages record (pipeline.go). Each time is the total over the run
// divided by the number of derivations, so a workload of identical units
// reports one unit's cost and the serve replay reports the mean miss.
// Counters come from the core.derive span attributes, averaged the same way.
func layerMetrics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	total := make(map[string]float64)
	selfSum := make(map[string]float64)
	attrs := make(map[string]float64)
	var derives, steps float64
	for _, s := range spans {
		total[s.Name] += float64(s.dur())
		selfSum[s.Name] += float64(self[s.ID])
		switch s.Name {
		case "core.derive":
			derives++
			for k, v := range s.Attrs {
				attrs[k] += v
			}
		case "convrt.step_loop":
			steps += s.Attrs["steps"]
		}
	}
	out := make(map[string]float64)
	if derives == 0 {
		return out
	}
	per := func(ns, scale float64) float64 { return ns / derives / scale }
	const ms, sec = 1e6, 1e9
	out["compose.lazy_build_ms"] = per(total["compose.lazy_build"], ms)
	out["compose.expand_s"] = per(total["compose.expand"], sec)
	out["core.safety_s"] = per(total["core.safety"], sec)
	out["core.safety_self_s"] = per(selfSum["core.safety"], sec)
	out["core.progress_s"] = per(total["core.progress"], sec)
	out["core.emit_s"] = per(total["core.emit"], sec)
	out["core.derive_ms_per_miss"] = per(total["core.derive"], ms)
	out["core.prune_ms_per_miss"] = per(total["core.prune"], ms)
	out["convrt.compile_ms_per_miss"] = per(total["convrt.compile"], ms)
	out["api.key_ms"] = per(total["api.key"], ms)
	out["api.render_ms"] = per(total["api.render"], ms)
	for _, k := range deriveAttrs {
		out[k.metric] = attrs[k.attr] / derives / k.scale
	}
	if steps > 0 {
		out["convrt.step_ns"] = total["convrt.step_loop"] / steps
	}
	return out
}

// deriveAttrs maps core.derive span attributes to layer metrics.
var deriveAttrs = []struct {
	metric, attr string
	scale        float64
}{
	{"compose.states_expanded", "env_states_expanded", 1},
	{"compose.arena_mb", "arena_bytes", 1 << 20},
	{"core.safety_states", "safety_states", 1},
	{"core.intern_hit_rate", "intern_hit_rate", 1},
	{"core.closure_memo_hits", "closure_memo_hits", 1},
	{"core.pair_arena_mb", "pair_arena_bytes", 1 << 20},
	{"core.alloc_mb", "alloc_bytes", 1 << 20},
	{"core.mallocs", "mallocs", 1},
	{"core.progress_iterations", "progress_iterations", 1},
	{"core.removed_states", "removed_states", 1},
	{"core.ready_set_rebuilds", "ready_set_rebuilds", 1},
	{"core.tau_cache_hit_rate", "tau_cache_hit_rate", 1},
	{"core.tau_invalidated", "tau_invalidated", 1},
}
