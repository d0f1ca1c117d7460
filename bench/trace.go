package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around the calls it makes — nothing inside the program under
// test is instrumented — kept in memory, and written out once at the end
// (-trace-out). Times are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Request ties the spans of one query together: its position in the
	// workload's stream.
	Request int   `json:"request"`
	Start   int64 `json:"start_ns"`
	End     int64 `json:"end_ns"`
}

// tracer collects spans. It is used from one goroutine: the traced pass
// and the replay send one query at a time.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// grow makes room for n more spans, so that recording them allocates
// nothing while a call's allocations are being counted.
func (t *tracer) grow(n int) { t.spans = slices.Grow(t.spans, n) }

// start opens a span and returns its ID for end and for children.
func (t *tracer) start(name string, parent, request int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// child records an already-measured interval at the tail of parent — how
// vo.encode, which the engine reports as a duration inside its own wall
// time (QueryStats.EncodeWall), becomes a span without instrumenting the
// engine. The encode is the engine's last step, so the tail is where it
// ran.
func (t *tracer) child(name string, parent int, d time.Duration) {
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Request: p.Request,
		Start: p.End - int64(d), End: p.End,
	})
}

// selfMicros returns, per span name, each span's self time in
// microseconds: its duration minus the part its children cover.
func (t *tracer) selfMicros() map[string][]float64 {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[s.ID])/1e3)
	}
	return out
}

// workloadTrace is the spans of one workload's traced pass and replay.
type workloadTrace struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// writeTraces dumps the recorded spans as one JSON document.
func writeTraces(path string, traces []workloadTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(struct {
		Traces []workloadTrace `json:"traces"`
	}{traces}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
