package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nvmstar/internal/telemetry"
)

// tracer keeps a traced run's spans in memory and writes them as Chrome
// trace events when the run ends. Each event's args carry its span id,
// its parent's span id (0 for the run's root) and the id of the unit it
// belongs to (0 outside units), so the spans of one unit share an id.
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	trace *telemetry.Trace
	start time.Time
	spans int
	// lanes holds, per extra lane, when its last span ends: spans the
	// runner reports after the fact overlap, so each goes to the first
	// lane free at its start.
	lanes []time.Time
}

// span is an open span; end records it. A nil span is a no-op.
type span struct {
	t                *tracer
	name             string
	id, parent, unit int
	start            time.Time
}

func newTracer() *tracer { return &tracer{trace: telemetry.NewTrace(0), start: time.Now()} }

func (s *span) idOf() int {
	if s == nil {
		return 0
	}
	return s.id
}

// begin opens a span under parent.
func (t *tracer) begin(name string, parent *span, unit int) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.spans++
	id := t.spans
	t.mu.Unlock()
	return &span{t: t, name: name, id: id, parent: parent.idOf(), unit: unit, start: time.Now()}
}

func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.t.mu.Lock()
	s.t.emit(s.name, s.id, s.parent, s.unit, s.start, d, 0)
	s.t.mu.Unlock()
}

// complete records a span that has already ended.
func (t *tracer) complete(name string, parent *span, unit int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 0
	for lane < len(t.lanes) && t.lanes[lane].After(start) {
		lane++
	}
	if lane == len(t.lanes) {
		t.lanes = append(t.lanes, time.Time{})
	}
	t.lanes[lane] = start.Add(d)
	t.spans++
	t.emit(name, t.spans, parent.idOf(), unit, start, d, lane+1)
}

// emit appends one event; t.mu must be held.
func (t *tracer) emit(name string, id, parent, unit int, start time.Time, d time.Duration, lane int) {
	t.trace.CompleteAt(name, "bench", float64(start.Sub(t.start)), float64(d), lane)
	t.trace.WithArgs(map[string]float64{"span": float64(id), "parent": float64(parent), "unit": float64(unit)})
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.trace.Len()
}

// write flushes the spans to path as a Chrome trace-event document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = t.trace.WriteJSON(f)
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
