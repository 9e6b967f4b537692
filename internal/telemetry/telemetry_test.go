package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
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

	var h *Histogram
	h.Observe(1)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Overflow() != 0 {
		t.Fatalf("nil histogram must read as zero")
	}

	var s *Sampler
	s.MaybeSample(1e9)
	if s.Samples() != 0 || s.Timelines() != nil || s.Timeline("x") != nil || s.IntervalNs() != 0 {
		t.Fatalf("nil sampler must be inert")
	}
	s.Reset()

	var tr *Trace
	tr.Instant("a", "b")
	tr.Complete("a", "b", 10)
	tr.CounterAt("a", 0, 1)
	tr.WithArgs(map[string]float64{"x": 1})
	tr.Reset()
	if tr.Enabled() || tr.Len() != 0 || tr.Events() != nil {
		t.Fatalf("nil trace must be inert")
	}
	if err := tr.WriteJSON(io.Discard); err == nil {
		t.Fatalf("writing a nil trace should error")
	}
}

func TestNilInstrumentsAllocFree(t *testing.T) {
	var h *Histogram
	var s *Sampler
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(3)
		s.MaybeSample(1e12)
		tr.Instant("x", "y")
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

	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	bounds, counts := h.Buckets()
	if !reflect.DeepEqual(bounds, []float64{1, 10}) || !reflect.DeepEqual(counts, []uint64{1, 1, 1}) {
		t.Fatalf("Buckets = %v %v", bounds, counts)
	}
	if h.Mean() != 105.5/3 {
		t.Fatalf("Mean = %v", h.Mean())
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

func TestSamplerCadence(t *testing.T) {
	r := NewRegistry()
	ops := 0.0
	r.GaugeFunc("ops", func() float64 { return ops })
	s := NewSampler(r, 100)
	if s.IntervalNs() != 100 {
		t.Fatalf("IntervalNs = %v", s.IntervalNs())
	}

	ops++
	s.MaybeSample(50) // before first boundary: nothing
	if s.Samples() != 0 {
		t.Fatalf("sampled before boundary")
	}
	s.MaybeSample(100) // exactly at boundary
	ops += 9
	s.MaybeSample(350) // jumps boundaries 200 and 300 in one burst
	if s.Samples() != 3 {
		t.Fatalf("Samples = %d, want 3", s.Samples())
	}
	tl := s.Timeline("ops")
	if tl == nil {
		t.Fatalf("missing timeline")
	}
	if !reflect.DeepEqual(tl.TimesNs, []float64{100, 200, 300}) {
		t.Fatalf("TimesNs = %v", tl.TimesNs)
	}
	if !reflect.DeepEqual(tl.Values, []float64{1, 10, 10}) {
		t.Fatalf("Values = %v", tl.Values)
	}
	if tl.Last() != 10 {
		t.Fatalf("Last = %v", tl.Last())
	}
	if (&Timeline{}).Last() != 0 {
		t.Fatalf("empty Last must be 0")
	}

	all := s.Timelines()
	if len(all) != 1 || all[0].Name != "ops" {
		t.Fatalf("Timelines = %+v", all)
	}

	// Reset rewinds the cadence and drops samples; a fresh run over the
	// same registry starts from the first boundary again.
	s.Reset()
	if s.Samples() != 0 {
		t.Fatalf("Samples after Reset = %d", s.Samples())
	}
	ops = 2
	s.MaybeSample(100)
	tl = s.Timeline("ops")
	if !reflect.DeepEqual(tl.TimesNs, []float64{100}) || !reflect.DeepEqual(tl.Values, []float64{2}) {
		t.Fatalf("post-Reset timeline = %+v", tl)
	}

	if NewSampler(nil, 100) != nil || NewSampler(r, 0) != nil {
		t.Fatalf("degenerate samplers must be nil")
	}
}

func TestSamplerLateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("a", func() float64 { return 0 })
	s := NewSampler(r, 10)
	s.MaybeSample(10)
	r.GaugeFunc("b", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatalf("late registration must panic at next sample")
		}
	}()
	s.MaybeSample(20)
}

func TestTraceEventsAndJSON(t *testing.T) {
	tr := NewTrace(7)
	if !tr.Enabled() {
		t.Fatalf("live trace must report enabled")
	}
	now := 1000.0
	tr.SetClock(func() (float64, int) { return now, 3 })

	tr.Instant("crash", "sim")
	tr.Complete("recovery", "sim", 400)
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

	tr.Reset()
	if tr.Len() != 0 {
		t.Fatalf("Reset must drop events")
	}
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON empty: %v", err)
	}
	parsed, err = ParseTraceJSON(buf.Bytes())
	if err != nil || len(parsed) != 0 {
		t.Fatalf("empty trace must be a valid empty document: %v %v", parsed, err)
	}
}

func TestDebugServer(t *testing.T) {
	d := NewDebugServer("127.0.0.1:0", map[string]func() any{
		"sweep": func() any { return map[string]int{"done": 3, "total": 9} },
	})
	addr, err := d.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("vars not JSON: %v\n%s", err, body)
	}
	var sweep map[string]int
	if err := json.Unmarshal(vars["sweep"], &sweep); err != nil || sweep["done"] != 3 {
		t.Fatalf("sweep var = %s (err %v)", vars["sweep"], err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatalf("process expvars missing from /debug/vars")
	}

	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}
}
