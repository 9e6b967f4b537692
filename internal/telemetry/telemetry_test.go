package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestNilInstrumentsNoOp(t *testing.T) {
	var r *Registry
	r.GaugeFunc("gf", func() float64 { return 1 })
	if names := r.SeriesNames(); names != nil {
		t.Fatalf("nil registry SeriesNames = %v, want nil", names)
	}
	r.Each(func(string, float64) { t.Fatalf("nil registry Each must not call back") })

	var tr *Trace
	tr.InstantAt("a", "b", 0, 0)
	tr.CompleteAt("a", "b", 0, 10, 0)
	tr.CounterAt("a", 0, 1)
	tr.WithArgs(map[string]float64{"x": 1})
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatalf("nil trace must be inert")
	}
	if err := tr.WriteJSON(io.Discard); err == nil {
		t.Fatalf("writing a nil trace should error")
	}
}

func TestNilInstrumentsAllocFree(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		tr.InstantAt("x", "y", 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRegistryValuesAndOrder(t *testing.T) {
	r := NewRegistry()
	live := 1.5
	r.GaugeFunc("z.live", func() float64 { return live })
	r.GaugeFunc("b.count", func() float64 { return 4 })
	r.GaugeFunc("a.gauge", func() float64 { return -2 })

	want := []string{"a.gauge", "b.count", "z.live"}
	if got := r.SeriesNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SeriesNames = %v, want %v", got, want)
	}

	each := func() (map[string]float64, []string) {
		got := map[string]float64{}
		var order []string
		r.Each(func(name string, v float64) {
			got[name] = v
			order = append(order, name)
		})
		return got, order
	}
	got, order := each()
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("Each order = %v, want %v", order, want)
	}
	if wantVals := map[string]float64{"a.gauge": -2, "b.count": 4, "z.live": 1.5}; !reflect.DeepEqual(got, wantVals) {
		t.Fatalf("Each values = %v, want %v", got, wantVals)
	}
	// Gauge funcs are evaluated per read: they follow live state.
	live = 9
	if got, _ := each(); got["z.live"] != 9 {
		t.Fatalf("z.live = %v after the live value moved to 9", got["z.live"])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("dup", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration must panic")
		}
	}()
	r.GaugeFunc("dup", func() float64 { return 1 })
}

func TestExpBuckets(t *testing.T) {
	if got := ExpBuckets(10, 10, 3); !reflect.DeepEqual(got, []float64{10, 100, 1000}) {
		t.Fatalf("ExpBuckets = %v", got)
	}
	if ExpBuckets(0, 2, 3) != nil || ExpBuckets(1, 1, 3) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatalf("degenerate ExpBuckets must be nil")
	}
}

func TestTraceEventsAndJSON(t *testing.T) {
	tr := NewTrace(7)
	tr.InstantAt("crash", "sim", 1000, 3)
	tr.CompleteAt("recovery", "sim", 600, 400, 3)
	tr.WithArgs(map[string]float64{"lines": 12})
	tr.InstantAt("persist", "epoch", 2500, 1)
	tr.CompleteAt("cell", "sweep", 0, 5000, 2)
	tr.CounterAt("dirty", 3000, 0.25)
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}

	ev := tr.Events()
	if ev[0].Ph != "i" || ev[0].Ts != 1.0 || ev[0].Tid != 3 || ev[0].Pid != 7 || ev[0].S != "t" {
		t.Fatalf("instant event = %+v", ev[0])
	}
	if ev[1].Ph != "X" || ev[1].Ts != 0.6 || ev[1].Dur != 0.4 || ev[1].Args["lines"] != 12 {
		t.Fatalf("complete event = %+v", ev[1])
	}
	if ev[4].Ph != "C" || ev[4].Args["value"] != 0.25 {
		t.Fatalf("counter event = %+v", ev[4])
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	// The file must be plain JSON with a traceEvents array (the Perfetto
	// contract) and round-trip through the parser.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatalf("output lacks traceEvents: %s", buf.String())
	}
	parsed, err := ParseTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseTraceJSON: %v", err)
	}
	if !reflect.DeepEqual(parsed, ev) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", parsed, ev)
	}

	// Bare-array form parses too.
	arr, _ := json.Marshal(ev)
	parsed, err = ParseTraceJSON(arr)
	if err != nil || len(parsed) != 5 {
		t.Fatalf("bare-array parse: %v, %d events", err, len(parsed))
	}
	if _, err := ParseTraceJSON([]byte("not json")); err == nil {
		t.Fatalf("garbage must not parse")
	}

	buf.Reset()
	if err := NewTrace(7).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON empty: %v", err)
	}
	parsed, err = ParseTraceJSON(buf.Bytes())
	if err != nil || len(parsed) != 0 {
		t.Fatalf("empty trace must be a valid empty document: %v %v", parsed, err)
	}
}

func TestTraceWriteFile(t *testing.T) {
	tr := NewTrace(1)
	tr.InstantAt("crash", "sim", 1000, 0)
	tr.CompleteAt("recovery", "sim", 1000, 500, 0)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTraceJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, tr.Events()) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", parsed, tr.Events())
	}
	if err := tr.WriteFile(filepath.Join(t.TempDir(), "missing", "trace.json")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}
