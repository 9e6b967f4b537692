package sim

import (
	"fmt"

	"nvmstar/internal/cache"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/telemetry"
)

// initTelemetry builds the machine's metrics registry when
// Config.Telemetry is set; otherwise m.tel stays nil.
//
// The registry exports exactly the series a tool or test reads:
// starplot -timeline's dirty-metadata fraction (Fig. 14a over time),
// cache hit ratios and write amplification, plus the raw NVM write and
// L3 probe counts the simulator tests check. Every series is a gauge
// function over the machine's own layers, evaluated only when read
// (by a Sampler, say); the closures go through m so a fork's registry
// reads the fork, never its parent.
func (m *Machine) initTelemetry() {
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

// --- the sampler subscriber --------------------------------------------------

// Timeline is one series' trajectory over simulated time: parallel
// slices of sample timestamps (ns) and values. It is the substrate for
// the paper's time-resolved quantities — dirty-metadata fraction,
// write amplification, hit ratios — which the end-of-run Stats
// snapshots can only report as endpoints.
type Timeline struct {
	Name    string
	TimesNs []float64
	Values  []float64
}

// Sampler is the subscriber that snapshots every series of a registry
// at a fixed simulated-time cadence. It reads the clock of each step
// end it observes; a sample fires when that clock crosses the next
// multiple of the interval, stamped with the boundary it crossed, not
// the (slightly later) instant the crossing was noticed. A step that
// jumps several boundaries at once records one sample per boundary,
// each re-reading the current values — exact for gauges, step
// functions for counters. The first step it observes only sets the
// cadence: the boundaries before it passed unobserved (during a
// workload's setup, say), and stamping them all with one later value
// would invent a history.
type Sampler struct {
	reg      *telemetry.Registry
	interval float64
	next     float64
	started  bool
	series   []Timeline // in the registry's sorted order
}

// NewSampler creates a sampler over reg (a machine's Telemetry())
// firing every intervalNs of simulated time; add it with
// Machine.Attach.
func NewSampler(reg *telemetry.Registry, intervalNs float64) (*Sampler, error) {
	if reg == nil {
		return nil, fmt.Errorf("sim: sampling needs Config.Telemetry")
	}
	if intervalNs <= 0 {
		return nil, fmt.Errorf("sim: sampling interval %v ns is not positive", intervalNs)
	}
	s := &Sampler{reg: reg, interval: intervalNs, next: intervalNs}
	for _, name := range reg.SeriesNames() {
		s.series = append(s.series, Timeline{Name: name})
	}
	return s, nil
}

// Observe implements Observer.
func (s *Sampler) Observe(ev Event) {
	if ev.Kind != EvStepEnd {
		return
	}
	for ev.T >= s.next {
		if s.started {
			s.sample(s.next)
		}
		s.next += s.interval
	}
	s.started = true
}

func (s *Sampler) sample(tsNs float64) {
	i := 0
	s.reg.Each(func(name string, v float64) {
		// A registration after the sampler was built would misalign
		// the series; the machine registers everything at construction.
		if i >= len(s.series) || s.series[i].Name != name {
			panic("sim: series registered after the sampler was built")
		}
		s.series[i].TimesNs = append(s.series[i].TimesNs, tsNs)
		s.series[i].Values = append(s.series[i].Values, v)
		i++
	})
}

// Timelines returns every series' timeline in the registry's sorted
// order. The slices are the sampler's own; treat them as read-only.
func (s *Sampler) Timelines() []Timeline { return s.series }

// --- the trace subscriber ----------------------------------------------------

// evictSampleMask selects which metadata-cache evictions become trace
// events: one in 64. Evictions are the bulk event of a metadata-bound
// run; tracing all of them would dwarf every other track in Perfetto.
const evictSampleMask = 63

// Tracer is the subscriber that lays a machine's events into a Chrome
// trace-event buffer for Perfetto, timestamped with simulated clocks
// and laned by core: crash, the recovery phases with one "attr:<cause>"
// instant per cause that wrote during recovery, forced MSB flushes,
// every 64th metadata eviction, and at each measure end with the
// observatory on, one "lat:<op>" instant per op kind that recorded
// observations. cmd/tracecheck validates these names.
type Tracer struct {
	trace *telemetry.Trace
	// Writes and out-of-band stores per cause since the last recovery
	// began.
	recWrites, recOOB [nvm.NumCauses]uint64
}

// NewTracer returns a tracer with an empty buffer; add it with
// Machine.Attach.
func NewTracer() *Tracer { return &Tracer{trace: telemetry.NewTrace(0)} }

// Trace returns the tracer's event buffer.
func (t *Tracer) Trace() *telemetry.Trace { return t.trace }

// Observe implements Observer.
func (t *Tracer) Observe(ev Event) {
	switch ev.Kind {
	case EvAccess:
		switch ev.Access {
		case nvm.AccessWrite:
			t.recWrites[ev.Cause]++
		case nvm.AccessOOB:
			t.recOOB[ev.Cause]++
		}
	case EvCrash:
		t.trace.InstantAt("crash", "sim", ev.T, 0)
	case EvRecoveryBegin:
		t.recWrites, t.recOOB = [nvm.NumCauses]uint64{}, [nvm.NumCauses]uint64{}
	case EvRecoveryEnd:
		if ev.Report != nil {
			t.recovery(ev.Report, ev.T)
		}
	case EvMeasureEnd:
		t.latency(ev.Results.Latency, ev.T)
	case EvForcedFlush:
		t.trace.InstantAt("forced_flush", "secmem", ev.T, ev.Core)
	case EvMetaEvict:
		if ev.Count&evictSampleMask == 0 {
			t.trace.InstantAt("meta_evict", "secmem", ev.T, ev.Core)
			t.trace.WithArgs(map[string]float64{"addr": float64(ev.Addr), "evictions": float64(ev.Count)})
		}
	}
}

// recovery lays the recovery phases into the trace as consecutive
// duration events derived from the report's line-access counts and the
// paper's 100 ns/line model — index scan, node restoration (reads),
// node write-back — then one instant per cause that wrote NVM lines
// during the recovery, out-of-band causes included: schemes whose
// replay resets lines out of band (star's bitmap-driven reset) surface
// as out-of-band stores, not counted writes.
func (t *Tracer) recovery(rep *secmem.RecoveryReport, start float64) {
	ph := rep.PhaseTimes()
	scan, restore, writeback := ph.ScanNs, ph.RestoreNs, ph.WritebackNs
	verified := 0.0
	if rep.Verified {
		verified = 1
	}
	t.trace.CompleteAt("recovery:"+rep.Scheme, "sim", start, scan+restore+writeback, 0)
	t.trace.WithArgs(map[string]float64{
		"stale_nodes": float64(rep.StaleNodes),
		"verified":    verified,
	})
	t.trace.CompleteAt("scan_index", "recovery", start, scan, 1)
	t.trace.CompleteAt("restore_nodes", "recovery", start+scan, restore, 1)
	t.trace.CompleteAt("write_back", "recovery", start+scan+restore, writeback, 1)
	for _, tally := range []struct {
		counts *[nvm.NumCauses]uint64
		arg    string
	}{{&t.recWrites, "writes"}, {&t.recOOB, "oob_stores"}} {
		for c, n := range tally.counts {
			if n == 0 {
				continue
			}
			t.trace.InstantAt("attr:"+nvm.Cause(c).String(), "recovery", start, 0)
			t.trace.WithArgs(map[string]float64{tally.arg: float64(n)})
		}
	}
}

// latency emits one instant per operation kind that recorded
// observations over the just-measured phase, carrying the observation
// count and the derived tail. No-op without the observatory.
func (t *Tracer) latency(lb *LatencyBreakdown, ts float64) {
	if lb == nil {
		return
	}
	for _, o := range lb.Ops {
		if o.Count == 0 {
			continue
		}
		t.trace.InstantAt("lat:"+o.Op, "sim", ts, 0)
		t.trace.WithArgs(map[string]float64{
			"count":  float64(o.Count),
			"p99_ns": o.P99Ns,
		})
	}
}
