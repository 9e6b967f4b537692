package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Event is one Chrome trace-event, the JSON schema Perfetto and
// chrome://tracing consume. Timestamps and durations are microseconds
// (the format's unit); the simulator's nanosecond clocks are converted
// on emission.
//
// Fields used here (the full format has more):
//
//	name — event label, cat — comma-separated categories,
//	ph   — phase: "X" complete (with dur), "i" instant, "C" counter,
//	ts   — start in µs, dur — duration in µs ("X" only),
//	pid/tid — lane routing, s — instant scope ("g" global, "t" thread),
//	args — free-form payload shown in the detail panel.
type Event struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat,omitempty"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur,omitempty"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	S    string             `json:"s,omitempty"`
	Args map[string]float64 `json:"args,omitempty"`
}

// Trace is an in-memory buffer of trace events. All methods are
// nil-safe no-ops, so an un-traced run pays one nil check per
// would-be event. Unlike the mutex-guarded Registry it is not safe for
// concurrent use: the experiment runner emits a sweep's events from
// its one reporter goroutine, and a machine's tracer from the
// goroutine driving that machine.
type Trace struct {
	events []Event
	pid    int
}

// NewTrace returns an empty trace buffer with process id pid (sweep
// traces use one pid per cell so Perfetto groups lanes per run).
func NewTrace(pid int) *Trace {
	return &Trace{pid: pid}
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the buffered events (shared slice; read-only).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// InstantAt emits an instant event at an explicit simulated time.
func (t *Trace) InstantAt(name, cat string, tsNs float64, tid int) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "i", Ts: tsNs / 1e3, Pid: t.pid, Tid: tid, S: "t",
	})
}

// CompleteAt emits a duration ("X") event with explicit start and
// duration in simulated (or wall) nanoseconds.
func (t *Trace) CompleteAt(name, cat string, tsNs, durNs float64, tid int) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "X", Ts: tsNs / 1e3, Dur: durNs / 1e3, Pid: t.pid, Tid: tid,
	})
}

// WithArgs attaches a payload to the most recently emitted event —
// emit first, then annotate, so the no-trace path never builds maps.
func (t *Trace) WithArgs(args map[string]float64) {
	if t == nil || len(t.events) == 0 {
		return
	}
	t.events[len(t.events)-1].Args = args
}

// CounterAt emits a "C" counter event, which Perfetto renders as a
// stepped area chart in its own track.
func (t *Trace) CounterAt(name string, tsNs float64, value float64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{
		Name: name, Ph: "C", Ts: tsNs / 1e3, Pid: t.pid,
		Args: map[string]float64{"value": value},
	})
}

// traceFile is the JSON object format ({"traceEvents": [...]}), which
// Perfetto accepts alongside the bare-array format and which leaves
// room for metadata.
type traceFile struct {
	TraceEvents []Event `json:"traceEvents"`
	// DisplayTimeUnit hints the UI; simulated runs are ns-scale.
	DisplayTimeUnit string `json:"displayTimeUnit,omitempty"`
}

// WriteJSON writes the buffer as a Chrome trace-event JSON object.
// Writing an empty (but non-nil) trace produces a valid file with an
// empty event array.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("telemetry: writing a nil trace")
	}
	events := t.events
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// WriteFile writes the buffer to path as WriteJSON does. The file's
// Close error is returned too: a full disk must not leave a silently
// truncated trace behind.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseTraceJSON validates and decodes a trace-event JSON document in
// either the object or the bare-array form; tracecheck and the tests
// use it.
func ParseTraceJSON(data []byte) ([]Event, error) {
	var obj traceFile
	if err := json.Unmarshal(data, &obj); err == nil && obj.TraceEvents != nil {
		return obj.TraceEvents, nil
	}
	var arr []Event
	if err := json.Unmarshal(data, &arr); err != nil {
		return nil, fmt.Errorf("telemetry: not a trace-event document: %w", err)
	}
	if arr == nil { // a JSON null, which decodes without error
		return nil, fmt.Errorf("telemetry: not a trace-event document: null")
	}
	return arr, nil
}
