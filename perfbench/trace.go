package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of a public entry point.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0: a root span
	Trace  string `json:"trace"`            // shared by the spans of one request
	Name   string `json:"name"`             // "<layer>.<operation>"
	Start  int64  `json:"start_ns"`         // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer records nothing, so untraced code paths share the calls.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; close records it.
type open struct {
	t     *tracer
	span  span
	begun time.Time
}

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(name, trace string, parent int64) open {
	if t == nil {
		return open{}
	}
	now := time.Now()
	return open{t: t, begun: now, span: span{
		ID: t.ids.Add(1), Parent: parent, Trace: trace, Name: name,
		Start: int64(now.Sub(t.epoch)),
	}}
}

// id is the span's identifier, for parenting children.
func (o open) id() int64 { return o.span.ID }

// end records the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := time.Now()
	o.span.End = int64(now.Sub(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
	return now.Sub(o.begun)
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, kids[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's. Children of a parallel stage overlap, so a
// plain sum would overstate them.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write dumps the spans, their per-layer self times and the stamp as
// one JSON document at path.
func (t *tracer) write(path string, st stamp) (map[string]float64, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].ID < spans[b].ID })
	self := selfTimes(spans)
	data, err := json.Marshal(struct {
		Stamp stamp              `json:"stamp"`
		SelfS map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{st, self, spans})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, data, 0o644)
}
