package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"clustersmt/internal/telemetry"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans live in a telemetry.SpanRing under one trace ID and are written
// out as a Chrome trace when the run ends. Every method is a no-op on a
// nil tracer, so untraced runs take the same code paths.
type tracer struct {
	id   string
	ring *telemetry.SpanRing
	seq  atomic.Int64
}

// spanRingCap bounds the spans one traced run keeps; the largest
// workload records a few thousand.
const spanRingCap = 1 << 17

func newTracer(workload string) *tracer {
	return &tracer{id: "perfbench-" + workload, ring: telemetry.NewSpanRing(spanRingCap)}
}

// span is one open span; end closes it.
type span struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  map[string]string
}

// begin opens a span named "<layer>.<what>" under parent (0 = root).
func (t *tracer) begin(name string, parent int64, attrs map[string]string) *span {
	if t == nil {
		return nil
	}
	return &span{t: t, id: t.seq.Add(1), parent: parent, name: name, start: time.Now(), attrs: attrs}
}

// ID is the span's identifier for children (0 for a nil span).
func (s *span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.t.record(s.name, s.id, s.parent, s.start, d, s.attrs)
	return d
}

// record stores a completed span; spans measured elsewhere (the
// suite's OnSimulate hook reports a duration after the fact) use it
// directly.
func (t *tracer) record(name string, id, parent int64, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.seq.Add(1)
	}
	a := map[string]string{"id": strconv.FormatInt(id, 10), "parent": strconv.FormatInt(parent, 10)}
	for k, v := range attrs {
		a[k] = v
	}
	layer, _, _ := strings.Cut(name, ".")
	t.ring.Record(telemetry.Span{TraceID: t.id, Name: name, Node: layer,
		StartUS: start.UnixMicro(), DurUS: d.Microseconds(), Attrs: a})
}

type parentKey struct{}

// withParent carries a span ID through a context, so hooks that only
// see the caller's context (harness.Suite.OnSimulate) can attach their
// spans to it.
func withParent(ctx context.Context, s *span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, s.id)
}

func parentFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(parentKey{}).(int64)
	return id
}

// selfTimes returns each layer's self time in seconds: the sum over
// its spans of the span's duration minus the part of that interval its
// child spans cover (children may run concurrently, so their
// intervals are merged before subtracting).
func selfTimes(spans []telemetry.Span) map[string]float64 {
	type iv struct{ a, b int64 }
	children := map[string][]iv{}
	for _, s := range spans {
		p := s.Attrs["parent"]
		if p != "0" {
			children[p] = append(children[p], iv{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		a, b := s.StartUS, s.StartUS+s.DurUS
		kids := children[s.Attrs["id"]]
		sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
		covered, curA, curB := int64(0), int64(0), int64(-1)
		for _, k := range kids {
			ka, kb := max(k.a, a), min(k.b, b)
			if kb <= ka {
				continue
			}
			if ka > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = ka, kb
			} else if kb > curB {
				curB = kb
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.DurUS-covered) / 1e6
	}
	return out
}

// finish computes the per-layer self times into rep and writes the
// spans as a Chrome trace JSON file, checking that it parses.
func (t *tracer) finish(rep *report, path string) error {
	spans := t.ring.ByTrace(t.id)
	for layer, v := range selfTimes(spans) {
		rep.metrics["trace."+layer+"_self_s"] = v
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spans); err != nil {
		return err
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return fmt.Errorf("chrome trace does not parse: %w", err)
	}
	if d := t.ring.Dropped(); d > 0 {
		return fmt.Errorf("span ring dropped %d spans", d)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d recorded, %d trace events", len(spans), len(events)))
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
