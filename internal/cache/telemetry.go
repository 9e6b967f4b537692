package cache

import "nvmstar/internal/telemetry"

// AttachTelemetry registers the cache's counters as lazily sampled
// series under prefix (e.g. "meta", "l3"). The gauge functions read the
// live Stats and dirty count at sample time only, so the lookup and
// insert paths stay untouched; a nil registry makes every registration
// a no-op.
func (c *Of[T]) AttachTelemetry(reg *telemetry.Registry, prefix string) {
	reg.GaugeFunc(prefix+".hits", func() float64 { return float64(c.stats.Hits) })
	reg.GaugeFunc(prefix+".misses", func() float64 { return float64(c.stats.Misses) })
	reg.GaugeFunc(prefix+".hit_ratio", func() float64 { return c.stats.HitRatio() })
	reg.GaugeFunc(prefix+".evictions", func() float64 { return float64(c.stats.Evictions) })
	reg.GaugeFunc(prefix+".dirty_evicts", func() float64 { return float64(c.stats.DirtyEvicts) })
	reg.GaugeFunc(prefix+".dirty_frac", func() float64 {
		return float64(c.dirty) / float64(c.Lines())
	})
}
