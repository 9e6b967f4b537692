package sim

import (
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
)

// The observation stream. Every observation of a machine — write-cause
// attribution, per-operation latency, the event trace, the telemetry
// sampler — is a subscriber to one stream of typed events the machine
// emits at the serial accounting points it already has: the device
// access hook, the op brackets and component charges of the timing
// model, step ends, crash, recovery, measure end and the engine's
// event hook. Every event is emitted on the driving goroutine, in
// program order, so what a subscriber accumulates is a pure function
// of the operation history: identical across Fork/fresh and
// Reset/new machines and run to run. With no subscriber (the default)
// every emission point costs one length check.
//
// Subscribers come in two kinds. Config.Observe installs the built-in
// observatory (attribution and latency), which feeds Results: it is
// configuration, so it forks with the machine and rewinds on Reset.
// Tools add others with Attach: Fork does not inherit them and Reset
// detaches them.

// EventKind names what an Event reports.
type EventKind uint8

const (
	EvAccess        EventKind = iota // device access: Access, Addr, Cause, WaitNs, ServiceNs
	EvOpBegin                        // an engine-level operation opens: Op
	EvOpEnd                          // the innermost open operation closes
	EvComponent                      // Ns of critical-path time charged to Comp
	EvStepEnd                        // a workload step finished on Core
	EvCrash                          // power failure
	EvRecoveryBegin                  // crash recovery starts
	EvRecoveryEnd                    // crash recovery ends: Report (nil if it failed)
	EvMeasureEnd                     // a measured phase ends: Results
	EvForcedFlush                    // the engine queued a forced MSB write-back: Addr of the node
	EvMetaEvict                      // a line left the metadata cache: Addr, Count (evictions so far)
)

// Event is one observation. Which fields are set depends on Kind.
type Event struct {
	Kind EventKind
	// Core is the issuing core and T its clock (ns) when the event
	// happened; crash, recovery and measure-end events carry the
	// slowest core's clock, the machine's elapsed time.
	Core int
	T    float64

	Access nvm.Access
	Addr   uint64
	Cause  nvm.Cause // write or out-of-band store cause; CauseOther for reads
	// WaitNs is the time the issuing core waited for the access (bank
	// wait for a read, write-queue-full stall for a write) and
	// ServiceNs the read's service time; posted writes and out-of-band
	// stores charge none.
	WaitNs    float64
	ServiceNs float64

	Op   latOp
	Comp latComp
	Ns   float64

	Count   uint64
	Report  *secmem.RecoveryReport
	Results *Results
}

// Observer subscribes to a machine's observation stream.
type Observer interface {
	Observe(ev Event)
}

// Attach adds o to the machine's observation stream until the next
// Reset. Forks do not inherit it.
func (m *Machine) Attach(o Observer) { m.obs = append(m.obs, o) }

// resetObservers detaches every attached subscriber, keeping the
// built-in observatory.
func (m *Machine) resetObservers() {
	clear(m.obs)
	m.obs = m.obs[:0]
	if m.observed != nil {
		m.obs = append(m.obs, m.observed)
	}
}

// emit hands ev to every subscriber in order.
func (m *Machine) emit(ev Event) {
	for _, o := range m.obs {
		o.Observe(ev)
	}
}

// onEngineEvent forwards the engine's forced flushes and metadata
// evictions into the stream.
func (m *Machine) onEngineEvent(ev secmem.Event, addr uint64) {
	if len(m.obs) == 0 {
		return
	}
	e := Event{Kind: EvForcedFlush, Addr: addr}
	if ev == secmem.EventMetaEvict {
		e.Kind = EvMetaEvict
		e.Count = m.engine.MetaCache().Stats().Evictions
	}
	m.emitNow(e)
}

// --- the built-in observatory ----------------------------------------------

// observatory is the built-in subscriber Config.Observe installs:
// write-cause attribution and the per-operation latency recorder,
// which together feed Results.WriteBreakdown and Results.Latency.
type observatory struct {
	attr attribution
	lat  latRecorder
}

func newObservatory(m *Machine) *observatory {
	o := &observatory{attr: newAttribution(m.cfg.Banks)}
	o.lat.init(m.engine.Geometry())
	return o
}

func (o *observatory) Observe(ev Event) {
	o.attr.observe(ev)
	o.lat.observe(ev)
}

// clone deep-copies the observatory — for Machine.Fork, where the fork
// observes the parent's counts so far and diverges independently, and
// as Measure's before-snapshot. Nil-safe.
func (o *observatory) clone() *observatory {
	if o == nil {
		return nil
	}
	return &observatory{attr: o.attr.clone(), lat: o.lat.clone()}
}

// reset rewinds the observatory to its just-constructed state.
func (o *observatory) reset() {
	if o == nil {
		return
	}
	o.attr.reset()
	o.lat.reset()
}

// since returns the write breakdown and latency breakdown accumulated
// after before, a clone taken at a phase boundary; Measure subtracts
// one so Results carry the measured phase only.
func (o *observatory) since(before *observatory) (*nvm.Breakdown, *LatencyBreakdown) {
	return o.attr.breakdown().Sub(before.attr.breakdown()), o.lat.breakdown(&before.lat)
}

// --- write-cause attribution -------------------------------------------------

// attribution accumulates counted line writes per cause × per bank
// (line-interleaved banks, the timing model's) and tallies uncounted
// out-of-band stores per cause, so the counted per-cause sums add up
// exactly to the device's Stats.Writes.
type attribution struct {
	banks  int
	counts []uint64 // [cause*banks + bank]
	oob    [nvm.NumCauses]uint64
}

func newAttribution(banks int) attribution {
	return attribution{banks: banks, counts: make([]uint64, int(nvm.NumCauses)*banks)}
}

func (a *attribution) observe(ev Event) {
	if ev.Kind != EvAccess {
		return
	}
	switch ev.Access {
	case nvm.AccessWrite:
		a.counts[int(ev.Cause)*a.banks+int(ev.Addr/memline.Size)%a.banks]++
	case nvm.AccessOOB:
		a.oob[ev.Cause]++
	}
}

func (a *attribution) clone() attribution {
	c := *a
	c.counts = append([]uint64(nil), a.counts...)
	return c
}

func (a *attribution) reset() {
	clear(a.counts)
	a.oob = [nvm.NumCauses]uint64{}
}

// breakdown returns the counts so far as an nvm.Breakdown: every cause
// in ascending Cause order, out-of-band causes only when nonzero.
func (a *attribution) breakdown() *nvm.Breakdown {
	b := &nvm.Breakdown{Banks: a.banks, Causes: make([]nvm.CauseCount, nvm.NumCauses)}
	for c := nvm.Cause(0); c < nvm.NumCauses; c++ {
		banks := append([]uint64(nil), a.counts[int(c)*a.banks:int(c+1)*a.banks]...)
		var sum uint64
		for _, v := range banks {
			sum += v
		}
		b.Causes[c] = nvm.CauseCount{Cause: c.String(), Writes: sum, Banks: banks}
		b.Total += sum
		if a.oob[c] != 0 {
			b.OOB = append(b.OOB, nvm.CauseCount{Cause: c.String(), Writes: a.oob[c]})
		}
	}
	return b
}
