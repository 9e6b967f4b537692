package secmem

import "nvmstar/internal/telemetry"

// evictSampleMask selects which metadata-cache evictions become trace
// events: one in 64. Evictions are the bulk event of a metadata-bound
// run; tracing all of them would dwarf every other track in Perfetto.
const evictSampleMask = 63

// SetTrace installs tr as the engine's event-trace sink (sampled
// metadata evictions, forced MSB flushes). A nil trace, the default,
// leaves every emission a no-op.
func (e *Engine) SetTrace(tr *telemetry.Trace) { e.trace = tr }

// traceEvict emits a sampled metadata-eviction event: every 64th
// eviction of the metadata cache, annotated with the evicted address.
// Called from the eviction callback only when a trace is attached.
func (e *Engine) traceEvict(addr uint64) {
	if e.meta.Stats().Evictions&evictSampleMask != 0 {
		return
	}
	e.trace.Instant("meta_evict", "secmem")
	e.trace.WithArgs(map[string]float64{
		"addr":      float64(addr),
		"evictions": float64(e.meta.Stats().Evictions),
	})
}
