package sim

import (
	"nvmstar/internal/cache"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/telemetry"
)

// initTelemetry builds the machine's observability objects per the
// configuration. With both Telemetry and TraceEvents off (the default)
// it does nothing and the machine's sink pointers stay nil, which makes
// every hot-path emission a nil-check no-op.
//
// The registry exports exactly the series a tool or test reads:
// starplot -timeline's dirty-metadata fraction (Fig. 14a over time),
// cache hit ratios and write amplification, plus the raw NVM write and
// L3 probe counts the simulator tests check. Every series is a gauge
// function over the machine's own layers, evaluated only when the
// sampler fires; the closures go through m so a fork's registry reads
// the fork, never its parent.
func (m *Machine) initTelemetry() {
	if m.cfg.TraceEvents {
		m.trace = telemetry.NewTrace(0)
		// Events are timestamped with the issuing core's simulated
		// clock and laned by core.
		m.trace.SetClock(func() (float64, int) { return m.coreNow[m.curCore], m.curCore })
		// The engine emits sampled metadata evictions and forced MSB
		// flushes into the same trace.
		m.engine.SetTrace(m.trace)
	}
	if !m.cfg.Telemetry {
		return
	}
	reg := telemetry.NewRegistry()
	reg.GaugeFunc("meta.dirty_frac", func() float64 {
		mc := m.engine.MetaCache()
		return float64(mc.DirtyCount()) / float64(mc.Lines())
	})
	reg.GaugeFunc("meta.hit_ratio", func() float64 { return m.engine.MetaCache().Stats().HitRatio() })
	// The per-core private levels export one aggregate each (per-core
	// series would multiply the timeline count without changing any
	// figure); the shared L3 exports its probe counts too.
	reg.GaugeFunc("l1.hit_ratio", func() float64 { return aggregateHitRatio(m.l1) })
	reg.GaugeFunc("l2.hit_ratio", func() float64 { return aggregateHitRatio(m.l2) })
	reg.GaugeFunc("l3.hit_ratio", func() float64 { return m.l3.Stats().HitRatio() })
	reg.GaugeFunc("l3.hits", func() float64 { return float64(m.l3.Stats().Hits) })
	reg.GaugeFunc("l3.misses", func() float64 { return float64(m.l3.Stats().Misses) })
	reg.GaugeFunc("nvm.writes", func() float64 { return float64(m.engine.Device().Stats().Writes) })
	// Write amplification: total NVM line writes (data, metadata and
	// scheme-side extras all reach the device) per user write.
	reg.GaugeFunc("engine.write_amp", func() float64 {
		user := m.engine.Stats().UserWrites
		if user == 0 {
			return 0
		}
		return float64(m.engine.Device().Stats().Writes) / float64(user)
	})
	m.tel = reg
	m.sampler = telemetry.NewSampler(reg, m.cfg.SampleEveryNs)
}

// aggregateHitRatio folds the per-core caches of one private level
// into a single hit ratio.
func aggregateHitRatio(caches []*cache.Cache) float64 {
	var hits, total uint64
	for _, c := range caches {
		st := c.Stats()
		hits += st.Hits
		total += st.Hits + st.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// maxTimeNs returns the slowest core's clock — the machine's notion of
// elapsed simulated wall time.
func (m *Machine) maxTimeNs() float64 {
	var t float64
	for _, v := range m.coreNow {
		if v > t {
			t = v
		}
	}
	return t
}

// Telemetry returns the machine's metrics registry (nil when
// Config.Telemetry is off).
func (m *Machine) Telemetry() *telemetry.Registry { return m.tel }

// Sampler returns the simulated-time sampler (nil unless both
// Config.Telemetry and SampleEveryNs are set).
func (m *Machine) Sampler() *telemetry.Sampler { return m.sampler }

// Trace returns the event-trace buffer (nil when Config.TraceEvents is
// off).
func (m *Machine) Trace() *telemetry.Trace { return m.trace }

// sample takes any telemetry samples due at core c's clock, mirroring
// new dirty-metadata-fraction samples into the trace as Perfetto
// counter events. Called once per workload operation; disabled
// sampling costs one nil check.
func (m *Machine) sample(c int) {
	if m.sampler == nil {
		return
	}
	before := m.sampler.Samples()
	m.sampler.MaybeSample(m.coreNow[c])
	if m.trace == nil {
		return
	}
	after := m.sampler.Samples()
	if after == before {
		return
	}
	if tl := m.sampler.Timeline("meta.dirty_frac"); tl != nil {
		for i := before; i < after; i++ {
			m.trace.CounterAt("meta.dirty_frac", tl.TimesNs[i], tl.Values[i])
		}
	}
}

// traceRecovery lays the recovery phases into the trace as consecutive
// duration events derived from the report's line-access counts and the
// paper's 100 ns/line model: index scan, node restoration (reads),
// node write-back.
func (m *Machine) traceRecovery(rep *secmem.RecoveryReport) {
	start := m.maxTimeNs()
	ph := rep.PhaseTimes()
	scan, restore, writeback := ph.ScanNs, ph.RestoreNs, ph.WritebackNs
	verified := 0.0
	if rep.Verified {
		verified = 1
	}
	m.trace.CompleteAt("recovery:"+rep.Scheme, "sim", start, scan+restore+writeback, 0)
	m.trace.WithArgs(map[string]float64{
		"stale_nodes": float64(rep.StaleNodes),
		"verified":    verified,
	})
	m.trace.CompleteAt("scan_index", "recovery", start, scan, 1)
	m.trace.CompleteAt("restore_nodes", "recovery", start+scan, restore, 1)
	m.trace.CompleteAt("write_back", "recovery", start+scan+restore, writeback, 1)
}

// traceLatency emits one op-tagged instant event per operation kind
// that recorded observations over the just-measured phase, carrying the
// observation count and the derived tail. Event names are "lat:<op>"
// with <op> from latOpNames — cmd/tracecheck validates them against
// ValidLatOpName. No-op unless both tracing and the latency observatory
// are enabled.
func (m *Machine) traceLatency(lb *LatencyBreakdown) {
	if m.trace == nil || lb == nil {
		return
	}
	ts := m.maxTimeNs()
	for _, o := range lb.Ops {
		if o.Count == 0 {
			continue
		}
		m.trace.InstantAt("lat:"+o.Op, "sim", ts, 0)
		m.trace.WithArgs(map[string]float64{
			"count":  float64(o.Count),
			"p99_ns": o.P99Ns,
		})
	}
}

// traceRecoveryAttr emits one cause-tagged instant event per cause
// that wrote NVM lines during the just-finished recovery (delta
// against the pre-recovery attribution snapshot), including the
// out-of-band causes — schemes whose replay restores lines via Poke
// (star's bitmap-driven reset) surface as OOB stores, not counted
// writes. No-op unless both tracing and attribution are enabled.
func (m *Machine) traceRecoveryAttr(before *nvm.Breakdown) {
	delta := m.engine.Device().Breakdown().Sub(before)
	if delta == nil {
		return
	}
	ts := m.maxTimeNs()
	for _, c := range delta.Causes {
		if c.Writes == 0 {
			continue
		}
		m.trace.InstantAt("attr:"+c.Cause, "recovery", ts, 0)
		m.trace.WithArgs(map[string]float64{"writes": float64(c.Writes)})
	}
	for _, c := range delta.OOB {
		if c.Writes == 0 {
			continue
		}
		m.trace.InstantAt("attr:"+c.Cause, "recovery", ts, 0)
		m.trace.WithArgs(map[string]float64{"oob_stores": float64(c.Writes)})
	}
}
