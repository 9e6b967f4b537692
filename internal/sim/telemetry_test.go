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

// TestResultsIdenticalWithTelemetryEnabled holds the observability
// layer to its read-only contract: enabling the registry, the sampler
// and the event trace must not change a single measured quantity.
// Results from a telemetry-enabled run, with the Timelines attachment
// stripped, marshal to exactly the bytes of the plain run's Results.
func TestResultsIdenticalWithTelemetryEnabled(t *testing.T) {
	const ops = 800
	for _, scheme := range []string{"wb", "star", "anubis"} {
		plainCfg := telemetryTestConfig(scheme)
		m1, err := NewMachine(plainCfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := m1.Run("hash", ops)
		if err != nil {
			t.Fatal(err)
		}

		telCfg := telemetryTestConfig(scheme)
		telCfg.Telemetry = true
		telCfg.SampleEveryNs = 20000
		telCfg.TraceEvents = true
		m2, err := NewMachine(telCfg)
		if err != nil {
			t.Fatal(err)
		}
		instrumented, err := m2.Run("hash", ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(instrumented.Timelines) == 0 {
			t.Fatalf("%s: telemetry-enabled run attached no timelines", scheme)
		}

		stripped := *instrumented
		stripped.Timelines = nil
		a, err := json.Marshal(plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&stripped)
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
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	cfg.SampleEveryNs = 10000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("hash", 800)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]telemetry.Timeline{}
	for _, tl := range res.Timelines {
		byName[tl.Name] = tl
	}
	dirty, ok := byName["meta.dirty_frac"]
	if !ok {
		t.Fatalf("meta.dirty_frac series missing; have %d series", len(res.Timelines))
	}
	for i, v := range dirty.Values {
		if v < 0 || v > 1 {
			t.Fatalf("meta.dirty_frac[%d] = %v outside [0,1]", i, v)
		}
	}
	for i, ts := range dirty.TimesNs {
		if rem := ts / cfg.SampleEveryNs; rem != float64(int(rem)) {
			t.Fatalf("sample %d at %v ns is not on a %v ns boundary", i, ts, cfg.SampleEveryNs)
		}
		if i > 0 && ts <= dirty.TimesNs[i-1] {
			t.Fatalf("timestamps not ascending at %d: %v after %v", i, ts, dirty.TimesNs[i-1])
		}
	}
	writes, ok := byName["nvm.writes"]
	if !ok {
		t.Fatal("nvm.writes series missing")
	}
	for i := 1; i < len(writes.Values); i++ {
		if writes.Values[i] < writes.Values[i-1] {
			t.Fatalf("nvm.writes not monotone at sample %d", i)
		}
	}
	if last := writes.Last(); last <= 0 || last > float64(m.Engine().Device().Stats().Writes) {
		t.Fatalf("nvm.writes final sample %v vs device total %d", last, m.Engine().Device().Stats().Writes)
	}
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
// Chrome trace-event JSON containing the crash marker and the named
// recovery phases.
func TestMachineTraceJSON(t *testing.T) {
	cfg := telemetryTestConfig("star")
	cfg.TraceEvents = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUnverified("hash", 800); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ParseTraceJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	want := map[string]bool{"crash": false, "scan_index": false, "restore_nodes": false, "write_back": false}
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
// the instrumented configuration: a Reset telemetry-enabled machine
// must reproduce the fresh machine's Results, timelines included.
func TestTelemetryResetInvariant(t *testing.T) {
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	cfg.SampleEveryNs = 20000
	cfg.TraceEvents = true

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run("hash", 600)
	if err != nil {
		t.Fatal(err)
	}

	reused, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reused.Run("queue", 600); err != nil {
		t.Fatal(err)
	}
	reused.Reset(cfg.Seed)
	got, err := reused.Run("hash", 600)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("reused instrumented machine diverged:\nfresh  %+v\nreused %+v", want, got)
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
// parent's, after the parent runs on past the fork point.
func TestForkTelemetryIsolated(t *testing.T) {
	cfg := telemetryTestConfig("star")
	cfg.Telemetry = true
	cfg.SampleEveryNs = 10000
	parent, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if fork.Telemetry() == parent.Telemetry() || fork.Sampler() == parent.Sampler() {
		t.Fatal("fork shares the parent's registry or sampler")
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

	// The fork's sampler starts fresh and samples the fork's registry.
	fork.sample(fork.CurrentCore())
	tl := fork.Sampler().Timeline("nvm.writes")
	if tl == nil {
		t.Fatal("fork sampler has no nvm.writes timeline")
	}
	if got, want := tl.Last(), own(fork)["nvm.writes"]; got != want {
		t.Errorf("fork sampler's last nvm.writes sample = %v, want %v", got, want)
	}
}
