package sim

import (
	"nvmstar/internal/cache"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/telemetry"
)

// initTelemetry builds the machine's observability objects per the
// configuration and threads them through every layer. With both
// Telemetry and TraceEvents off (the default) it does nothing and the
// machine's instrument pointers stay nil, which makes every hot-path
// emission a nil-check no-op.
func (m *Machine) initTelemetry() {
	if !m.cfg.Telemetry && !m.cfg.TraceEvents {
		return
	}
	if m.cfg.TraceEvents {
		m.trace = telemetry.NewTrace(0)
		// Events are timestamped with the issuing core's simulated
		// clock and laned by core.
		m.trace.SetClock(func() (float64, int) { return m.coreNow[m.curCore], m.curCore })
	}
	if m.cfg.Telemetry {
		m.tel = telemetry.NewRegistry()
		m.sampler = telemetry.NewSampler(m.tel, m.cfg.SampleEveryNs)
	}
	// Registrations below are no-ops on a nil registry (TraceEvents
	// without Telemetry), but the engine still receives the trace sink.
	reg := m.tel

	// Machine-level series and the device-timing histograms fed from
	// onDeviceAccess.
	reg.GaugeFunc("machine.time_ns", m.maxTimeNs)
	reg.GaugeFunc("machine.instructions", func() float64 {
		var n uint64
		for _, v := range m.instr {
			n += v
		}
		return float64(n)
	})
	m.readWait = reg.Histogram("nvm.read_bank_wait_ns", telemetry.ExpBuckets(1, 2, 12))
	m.writeWait = reg.Histogram("nvm.write_queue_wait_ns", telemetry.ExpBuckets(1, 2, 12))
	bounds := make([]float64, len(m.bankFree))
	for i := range bounds {
		bounds[i] = float64(i)
	}
	m.bankBusy = reg.Histogram("nvm.busy_banks", bounds)

	// Latency-observatory histograms and component totals, exported as
	// labeled OpenMetrics families on /metrics. No-op on a nil recorder
	// (Config.Observe off) or a nil registry.
	m.lat.register(reg)

	// CPU cache hierarchy: the shared L3 directly, the per-core
	// private levels as aggregates (per-core series would multiply the
	// timeline count eightfold without changing any figure).
	m.l3.AttachTelemetry(reg, "l3")
	l1s, l2s := m.l1, m.l2
	reg.GaugeFunc("l1.hit_ratio", func() float64 { return aggregateHitRatio(l1s) })
	reg.GaugeFunc("l2.hit_ratio", func() float64 { return aggregateHitRatio(l2s) })

	// ADR pools (STAR only): occupancy and hit ratio of the
	// battery-backed regions come through the scheme attacher below.

	// Memory controller and NVM device; the engine also takes the
	// trace sink for its sampled eviction and forced-flush events.
	m.engine.Device().AttachTelemetry(reg, "nvm")
	m.engine.AttachTelemetry(reg, m.trace)

	// Scheme-specific series (shadow-table traffic, bitmap hit ratio,
	// branch flushes) via the optional attacher interface.
	if a, ok := m.engine.Scheme().(secmem.TelemetryAttacher); ok {
		a.AttachTelemetry(reg)
	}
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
