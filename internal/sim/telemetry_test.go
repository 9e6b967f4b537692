package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"nvmstar/internal/cache"
	"nvmstar/internal/telemetry"
)

func telemetryTestConfig(scheme string) Config {
	cfg := Default()
	cfg.Cores = 2
	cfg.DataBytes = 16 << 20
	cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
	cfg.L3 = cache.Config{SizeBytes: 1 << 20, Ways: 8}
	cfg.Scheme = scheme
	return cfg
}

// TestEngineWriteLineZeroAllocsWithTelemetryDisabled pins the PR's
// acceptance bar for the disabled path: the engine's hot write path
// must stay allocation-free when Config.Telemetry is off, i.e. the
// nil-receiver instruments really compile down to no-ops. Benchmark-
// backed so it measures the same loop BenchmarkEngineWriteLine runs.
func TestEngineWriteLineZeroAllocsWithTelemetryDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs a full benchmark run")
	}
	for _, scheme := range []string{"wb", "star", "anubis"} {
		m, err := NewMachine(telemetryTestConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		e := m.Engine()
		var line [64]byte
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				addr := uint64(i%100000) * 64
				line[0] = byte(i)
				if err := e.WriteLine(addr, line); err != nil {
					b.Fatal(err)
				}
			}
		})
		if allocs := r.AllocsPerOp(); allocs != 0 {
			t.Errorf("%s: EngineWriteLine allocates %d allocs/op with telemetry disabled, want 0", scheme, allocs)
		}
	}
}

// instrument attaches a sampler (every intervalNs) and a tracer to a
// telemetry-enabled machine.
func instrument(t *testing.T, m *Machine, intervalNs float64) (*Sampler, *Tracer) {
	t.Helper()
	s, err := NewSampler(m.Telemetry(), intervalNs)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer()
	m.Attach(s)
	m.Attach(tr)
	return s, tr
}

// timeline returns the named series of s (nil if absent).
func timeline(s *Sampler, name string) *Timeline {
	for i, tl := range s.Timelines() {
		if tl.Name == name {
			return &s.Timelines()[i]
		}
	}
	return nil
}

// TestResultsIdenticalWithTelemetryEnabled holds the observability
// layer to its read-only contract: enabling the registry and attaching
// a sampler and a tracer must not change a single measured quantity.
// Results from the instrumented run marshal to exactly the bytes of
// the plain run's Results.
func TestResultsIdenticalWithTelemetryEnabled(t *testing.T) {
	const ops = 800
	for _, scheme := range []string{"wb", "star", "anubis"} {
		m1, err := NewMachine(telemetryTestConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := m1.Run("hash", ops)
		if err != nil {
			t.Fatal(err)
		}

		telCfg := telemetryTestConfig(scheme)
		telCfg.Telemetry = true
		m2, err := NewMachine(telCfg)
		if err != nil {
			t.Fatal(err)
		}
		sampler, _ := instrument(t, m2, 20000)
		instrumented, err := m2.Run("hash", ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(sampler.Timelines()[0].TimesNs) == 0 {
			t.Fatalf("%s: the attached sampler took no samples", scheme)
		}

		a, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(instrumented)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: results differ with telemetry enabled:\nplain        %s\ninstrumented %s", scheme, a, b)
		}
	}
}

// TestTimelineContent checks the sampler wiring end to end: timestamps
// land on interval boundaries in ascending order, the dirty-metadata
// fraction series exists and stays within [0, 1], and the final sample
// of the monotone NVM write counter agrees with the device statistics
// at sample time (i.e. values are real, not placeholders).
func TestTimelineContent(t *testing.T) {
	const interval = 10000
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler, _ := instrument(t, m, interval)
	if _, err := m.Run("hash", 800); err != nil {
		t.Fatal(err)
	}
	dirty := timeline(sampler, "meta.dirty_frac")
	if dirty == nil {
		t.Fatalf("meta.dirty_frac series missing; have %d series", len(sampler.Timelines()))
	}
	for i, v := range dirty.Values {
		if v < 0 || v > 1 {
			t.Fatalf("meta.dirty_frac[%d] = %v outside [0,1]", i, v)
		}
	}
	checkBoundaries(t, dirty.TimesNs, interval)
	writes := timeline(sampler, "nvm.writes")
	if writes == nil {
		t.Fatal("nvm.writes series missing")
	}
	for i := 1; i < len(writes.Values); i++ {
		if writes.Values[i] < writes.Values[i-1] {
			t.Fatalf("nvm.writes not monotone at sample %d", i)
		}
	}
	n := len(writes.Values)
	if n == 0 || writes.Values[n-1] <= 0 || writes.Values[n-1] > float64(m.Engine().Device().Stats().Writes) {
		t.Fatalf("nvm.writes samples %v vs device total %d", writes.Values, m.Engine().Device().Stats().Writes)
	}
}

// checkBoundaries requires ascending timestamps on interval multiples.
func checkBoundaries(t *testing.T, times []float64, interval float64) {
	t.Helper()
	for i, ts := range times {
		if rem := ts / interval; rem != float64(int(rem)) {
			t.Fatalf("sample %d at %v ns is not on a %v ns boundary", i, ts, interval)
		}
		if i > 0 && ts <= times[i-1] {
			t.Fatalf("timestamps not ascending at %d: %v after %v", i, ts, times[i-1])
		}
	}
}

// TestTimelineSkipsSetup pins that a sampler attached before a
// workload's setup stamps no sample at or before the machine's clock at
// the end of setup: the boundaries setup crossed were never observed,
// and back-filling them with one post-setup value would fake a history.
func TestTimelineSkipsSetup(t *testing.T) {
	const interval = 10000
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler, _ := instrument(t, m, interval)
	s, err := m.NewSession("hash")
	if err != nil {
		t.Fatal(err)
	}
	setupEnd := m.maxTimeNs()
	if setupEnd < 2*interval {
		t.Fatalf("setup ended at %v ns, before the boundaries this test needs", setupEnd)
	}
	if _, err := m.Measure("hash", func() error { return s.StepN(800) }); err != nil {
		t.Fatal(err)
	}
	for _, tl := range sampler.Timelines() {
		if len(tl.TimesNs) == 0 {
			t.Fatalf("%s: no samples over the measured phase", tl.Name)
		}
		if tl.TimesNs[0] <= setupEnd {
			t.Fatalf("%s: sample stamped %v ns, at or before the end of setup (%v ns)", tl.Name, tl.TimesNs[0], setupEnd)
		}
		checkBoundaries(t, tl.TimesNs, interval)
	}
}

// TestSamplerCadence pins the sampler's clock arithmetic over a
// hand-fed registry: one sample per crossed boundary, stamped with the
// boundary, and nothing for the boundaries before the first step.
func TestSamplerCadence(t *testing.T) {
	r := telemetry.NewRegistry()
	ops := 0.0
	r.GaugeFunc("ops", func() float64 { return ops })
	s, err := NewSampler(r, 100)
	if err != nil {
		t.Fatal(err)
	}
	step := func(t float64) { s.Observe(Event{Kind: EvStepEnd, T: t}) }

	ops++
	step(50) // first step, before the first boundary: nothing
	s.Observe(Event{Kind: EvAccess, T: 500})
	if n := len(s.Timelines()[0].TimesNs); n != 0 {
		t.Fatalf("sampled %d times before a boundary step", n)
	}
	step(100) // exactly at a boundary
	ops += 9
	step(350) // jumps boundaries 200 and 300 in one burst
	want := []Timeline{{Name: "ops", TimesNs: []float64{100, 200, 300}, Values: []float64{1, 10, 10}}}
	if got := s.Timelines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Timelines = %+v, want %+v", got, want)
	}

	// A sampler whose first step comes late starts its cadence there.
	late, _ := NewSampler(r, 100)
	late.Observe(Event{Kind: EvStepEnd, T: 350})
	late.Observe(Event{Kind: EvStepEnd, T: 420})
	if got := late.Timelines()[0].TimesNs; !reflect.DeepEqual(got, []float64{400}) {
		t.Fatalf("late sampler TimesNs = %v, want [400]", got)
	}

	if _, err := NewSampler(nil, 100); err == nil {
		t.Fatal("a sampler without a registry must be refused")
	}
	if _, err := NewSampler(r, 0); err == nil {
		t.Fatal("a non-positive interval must be refused")
	}
}

func TestSamplerLateRegistrationPanics(t *testing.T) {
	r := telemetry.NewRegistry()
	r.GaugeFunc("a", func() float64 { return 0 })
	s, err := NewSampler(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(Event{Kind: EvStepEnd, T: 5})
	s.Observe(Event{Kind: EvStepEnd, T: 10})
	r.GaugeFunc("b", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatalf("late registration must panic at next sample")
		}
	}()
	s.Observe(Event{Kind: EvStepEnd, T: 20})
}

// TestHierarchyHitRatios checks that the exclusive hierarchy's demand
// probes of L2 and L3 count hits and misses: both registry ratios land
// in (0, 1] after a run whose working set spills out of L1.
func TestHierarchyHitRatios(t *testing.T) {
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("hash", 2000); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	m.Telemetry().Each(func(name string, v float64) { got[name] = v })
	for _, name := range []string{"l2.hit_ratio", "l3.hit_ratio"} {
		if v, ok := got[name]; !ok || v <= 0 || v > 1 {
			t.Errorf("%s = %v (registered %v), want in (0, 1]", name, v, ok)
		}
	}
	if got["l3.hits"] == 0 || got["l3.misses"] == 0 {
		t.Errorf("l3 probes not counted: hits %v, misses %v", got["l3.hits"], got["l3.misses"])
	}
}

// TestMachineTraceJSON drives the full event-trace path — run, crash,
// recover — and requires the serialized buffer to parse back as
// Chrome trace-event JSON containing the crash marker, the named
// recovery phases and the recovery's write causes.
func TestMachineTraceJSON(t *testing.T) {
	m, err := NewMachine(telemetryTestConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewTracer()
	m.Attach(tracer)
	if _, err := m.RunUnverified("hash", 800); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ParseTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	want := map[string]bool{"crash": false, "scan_index": false, "restore_nodes": false, "write_back": false,
		"attr:recovery": false}
	for _, e := range events {
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace missing %q event", name)
		}
	}
}

// TestTelemetryResetInvariant extends the machine-reuse invariant to
// the instrumented configuration: Reset detaches the sampler and the
// tracer, and freshly attached ones on the reset machine record exactly
// what they record on a fresh machine, as do its Results.
func TestTelemetryResetInvariant(t *testing.T) {
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	run := func(m *Machine) (*Results, *Sampler, *Tracer) {
		t.Helper()
		s, tr := instrument(t, m, 20000)
		res, err := m.Run("hash", 600)
		if err != nil {
			t.Fatal(err)
		}
		return res, s, tr
	}

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantS, wantTr := run(fresh)

	reused, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	staleS, _ := instrument(t, reused, 20000)
	if _, err := reused.Run("queue", 600); err != nil {
		t.Fatal(err)
	}
	reused.Reset(cfg.Seed)
	if len(reused.obs) != 0 {
		t.Fatalf("Reset kept %d attached observers", len(reused.obs))
	}
	staleSamples := len(staleS.Timelines()[0].TimesNs)
	got, gotS, gotTr := run(reused)
	if len(staleS.Timelines()[0].TimesNs) != staleSamples {
		t.Error("a sampler detached by Reset kept sampling")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("reused instrumented machine diverged:\nfresh  %+v\nreused %+v", want, got)
	}
	if !reflect.DeepEqual(wantS.Timelines(), gotS.Timelines()) {
		t.Error("reused machine's timelines diverge from the fresh machine's")
	}
	if !reflect.DeepEqual(wantTr.Trace().Events(), gotTr.Trace().Events()) {
		t.Error("reused machine's trace diverges from the fresh machine's")
	}
}

// telemetrySeries is the machine registry's whole export: the series
// starplot -timeline, the repository benchmark and this package's
// tests read. A new series belongs here only together with its reader.
var telemetrySeries = []string{
	"engine.write_amp",
	"l1.hit_ratio",
	"l2.hit_ratio",
	"l3.hit_ratio",
	"l3.hits",
	"l3.misses",
	"meta.dirty_frac",
	"meta.hit_ratio",
	"nvm.writes",
}

// TestTelemetrySeriesSet pins the exported series set for every scheme,
// with and without the observatory, so no layer re-adds an unread
// series unnoticed.
func TestTelemetrySeriesSet(t *testing.T) {
	for _, scheme := range []string{"wb", "strict", "star", "anubis", "phoenix"} {
		for _, observe := range []bool{false, true} {
			cfg := telemetryTestConfig(scheme)
			cfg.Telemetry = true
			cfg.Observe = observe
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Telemetry().SeriesNames(); !reflect.DeepEqual(got, telemetrySeries) {
				t.Errorf("%s (observe %v): series = %v, want %v", scheme, observe, got, telemetrySeries)
			}
		}
	}
}

// TestForkTelemetryIsolated checks that a fork's registry reads the
// fork's own layers and the parent's registry keeps reading the
// parent's, after the parent runs on past the fork point; the fork does
// not inherit the parent's sampler, and one attached to it samples the
// fork.
func TestForkTelemetryIsolated(t *testing.T) {
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	instrument(t, parent, 10000)
	s, err := parent.NewSession("hash")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepN(400); err != nil {
		t.Fatal(err)
	}
	fork := parent.Fork()
	if err := s.StepN(400); err != nil {
		t.Fatal(err)
	}
	if fork.Telemetry() == parent.Telemetry() {
		t.Fatal("fork shares the parent's registry")
	}
	if len(fork.obs) != 0 {
		t.Fatalf("fork inherited %d attached observers", len(fork.obs))
	}
	if parent.Engine().Device().Stats().Writes == fork.Engine().Device().Stats().Writes {
		t.Fatal("parent wrote nothing after the fork; the test cannot tell the machines apart")
	}

	own := func(m *Machine) map[string]float64 {
		mc := m.Engine().MetaCache()
		return map[string]float64{
			"nvm.writes":      float64(m.Engine().Device().Stats().Writes),
			"meta.dirty_frac": float64(mc.DirtyCount()) / float64(mc.Lines()),
		}
	}
	for _, c := range []struct {
		label string
		m     *Machine
	}{{"parent", parent}, {"fork", fork}} {
		want := own(c.m)
		got := map[string]float64{}
		c.m.Telemetry().Each(func(name string, v float64) {
			if _, ok := want[name]; ok {
				got[name] = v
			}
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s registry = %v, want its own layers' %v", c.label, got, want)
		}
	}

	// A sampler attached to the fork samples the fork's registry.
	fs, _ := instrument(t, fork, 10000)
	now := fork.maxTimeNs()
	fork.emit(Event{Kind: EvStepEnd, T: now})
	fork.emit(Event{Kind: EvStepEnd, T: now + 10000})
	tl := timeline(fs, "nvm.writes")
	if len(tl.Values) != 1 {
		t.Fatalf("fork sampler took %d samples, want 1", len(tl.Values))
	}
	if got, want := tl.Values[0], own(fork)["nvm.writes"]; got != want {
		t.Errorf("fork sampler's nvm.writes sample = %v, want %v", got, want)
	}
}
