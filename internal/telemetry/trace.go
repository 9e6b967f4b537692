package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
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
// would-be event. Like the Registry it is single-goroutine; the
// experiment runner serializes its cross-worker emissions under the
// progress lock.
type Trace struct {
	events []Event
	pid    int
	// clock supplies (simulated ns, lane) for the convenience emitters
	// used inside the machine; emitters with explicit timestamps
	// (InstantAt/CompleteAt) ignore it.
	clock func() (tsNs float64, tid int)
}

// NewTrace returns an empty trace buffer with process id pid (sweep
// traces use one pid per cell so Perfetto groups lanes per run).
func NewTrace(pid int) *Trace {
	return &Trace{pid: pid}
}

// SetClock installs the timestamp source used by Instant and Complete.
// The machine points it at the issuing core's clock.
func (t *Trace) SetClock(fn func() (tsNs float64, tid int)) {
	if t != nil {
		t.clock = fn
	}
}

// Enabled reports whether events are being collected (false for nil).
func (t *Trace) Enabled() bool { return t != nil }

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

func (t *Trace) now() (float64, int) {
	if t.clock != nil {
		return t.clock()
	}
	return 0, 0
}

// Instant emits an instant event at the clock's current time.
func (t *Trace) Instant(name, cat string) {
	if t == nil {
		return
	}
	ts, tid := t.now()
	t.InstantAt(name, cat, ts, tid)
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

// Complete emits a duration ("X") event ending at the clock's current
// time and starting durNs earlier.
func (t *Trace) Complete(name, cat string, durNs float64) {
	if t == nil {
		return
	}
	ts, tid := t.now()
	t.CompleteAt(name, cat, ts-durNs, durNs, tid)
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

// Reset discards buffered events (capacity kept), for machine reuse.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.events = t.events[:0]
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
