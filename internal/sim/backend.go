package sim

import (
	"fmt"
	"slices"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/schemes/anubis"
	"nvmstar/internal/schemes/phoenix"
	"nvmstar/internal/schemes/star"
	"nvmstar/internal/schemes/strict"
	"nvmstar/internal/schemes/wb"
	"nvmstar/internal/secmem"
)

// backEnd is one member of a machine: everything below the CPU caches.
// It owns the memory controller (the secure-memory engine with its
// metadata cache and persistence scheme, over its NVM device), the
// per-core clocks that the device timing model advances, the device's
// bank and write-queue state, its observation stream and its first
// error. The front end (Machine) charges every back end the same CPU-
// side latencies in the same order and sends every back end the same
// engine calls, so back end i of a group behaves as NewMachine(cfg_i)
// run on its own.
type backEnd struct {
	m   *Machine // the front end driving this back end
	cfg Config

	engine *secmem.Engine

	coreNow   []float64           // per-core clock, ns
	bankFree  [Banks]float64      // per-bank busy-until for reads, ns
	wqDone    [writeQueue]float64 // completion times of outstanding writes (ring)
	wqIdx     int
	wqLastOut float64 // completion time of the most recent write

	// obs is the observation stream's subscriber list (observe.go):
	// the built-in observatory first when Config.Observe installed
	// one, then the attached subscribers.
	obs      []Observer
	observed *observatory

	err error // first error this back end saw
}

// newBackEnd builds cfg's engine under front end m; start builds the
// rest.
func newBackEnd(m *Machine, cfg Config) (*backEnd, error) {
	b := &backEnd{m: m, cfg: cfg}
	var err error
	b.engine, err = secmem.New(secmem.Config{
		DataBytes: cfg.DataBytes,
		MetaCache: cfg.MetaCache,
		Suite:     cfg.Suite,
	})
	if err != nil {
		return nil, err
	}
	b.hook()
	return b, nil
}

// hook points the engine's device and event hooks at b.
func (b *backEnd) hook() {
	b.engine.Device().SetHook(b.onDeviceAccess)
	b.engine.SetEventHook(b.onEngineEvent)
}

// start builds what NewGroup and ResetTo both build afresh: the
// scheme, the timing state and the built-in observatory, with every
// attached subscriber detached.
func (b *backEnd) start() error {
	s, err := newScheme(b.cfg, b.engine)
	if err != nil {
		return err
	}
	b.engine.SetScheme(s)
	b.coreNow = make([]float64, b.cfg.Cores)
	b.bankFree, b.wqDone = [Banks]float64{}, [writeQueue]float64{}
	b.wqIdx, b.wqLastOut = 0, 0
	b.err = nil
	b.observed = nil
	if b.cfg.Observe {
		b.observed = newObservatory(b)
	}
	b.resetObservers()
	return nil
}

// fork copies b for front end f (see Machine.Fork).
func (b *backEnd) fork(f *Machine) *backEnd {
	c := &backEnd{
		m:         f,
		cfg:       b.cfg,
		engine:    b.engine.Fork(),
		coreNow:   append([]float64(nil), b.coreNow...),
		bankFree:  b.bankFree,
		wqDone:    b.wqDone,
		wqIdx:     b.wqIdx,
		wqLastOut: b.wqLastOut,
		err:       b.err,
	}
	c.hook()
	c.observed = b.observed.clone()
	c.resetObservers()
	return c
}

// setErr records b's first error and makes it the machine's if the
// machine has none yet.
func (b *backEnd) setErr(err error) {
	if err == nil {
		return
	}
	if b.err == nil {
		b.err = err
	}
	if b.m.err == nil {
		b.m.err = err
	}
}

// Schemes lists the persistence schemes newScheme builds: the paper's
// evaluation set (wb, strict, anubis, star), then phoenix.
func Schemes() []string { return []string{"wb", "strict", "anubis", "star", "phoenix"} }

// newScheme builds cfg's persistence scheme over e. groupConfigs has
// refused an unknown name and a partial Bitmap already, before anything
// was built or rewound.
func newScheme(cfg Config, e *secmem.Engine) (secmem.Scheme, error) {
	switch cfg.Scheme {
	case "wb":
		return wb.New(), nil
	case "strict":
		return strict.New(e), nil
	case "anubis":
		return anubis.New(e)
	case "phoenix":
		return phoenix.New(e)
	case "star":
		bm := cfg.Bitmap
		if bm == (bitmap.Config{}) {
			bm = bitmap.DefaultConfig()
		}
		return star.New(e, bm)
	default:
		panic(fmt.Sprintf("sim: newScheme: unknown scheme %q got past groupConfigs", cfg.Scheme))
	}
}

// checkScheme refuses a scheme newScheme cannot build: an unknown name,
// or star with a partially specified Bitmap. An all-zero Bitmap means
// "use the paper's default"; a partial one is a caller mistake, and
// silently replacing it would run with sizes the caller never asked
// for.
func checkScheme(cfg Config) error {
	if !slices.Contains(Schemes(), cfg.Scheme) {
		return fmt.Errorf("sim: unknown scheme %q", cfg.Scheme)
	}
	if bm := cfg.Bitmap; cfg.Scheme == "star" && bm != (bitmap.Config{}) && (bm.ADRL1Lines <= 0 || bm.ADRL2Lines <= 0) {
		return fmt.Errorf(
			"sim: partial Bitmap config %+v: set both ADRL1Lines and ADRL2Lines, or leave both zero for the default %+v",
			bm, bitmap.DefaultConfig())
	}
	return nil
}

// --- timing -------------------------------------------------------------

// onDeviceAccess charges the PCM device time of one line access to the
// issuing core and reports the access to the observation stream.
//
// Reads are synchronous and serialize per bank (line-interleaved
// banks): the issuing core waits for the data.
//
// Writes are posted: with ADR, a write is "persistent" once the
// write-pending queue accepts it, so the core continues immediately —
// UNLESS the queue is full, in which case the core stalls until the
// oldest write drains. The queue drains at the device's aggregate
// write bandwidth, Banks lines per nvm.WriteNs (one per writeDrainNs).
// This back-pressure is exactly how extra write traffic (Anubis's ST
// blocks, strict's branch write-throughs) turns into IPC loss in the
// paper.
//
// Out-of-band stores are not part of the timed run and charge nothing.
func (b *backEnd) onDeviceAccess(kind nvm.Access, addr uint64, cause nvm.Cause) {
	c := b.m.curCore
	now := b.coreNow[c]
	var wait, service float64
	switch kind {
	case nvm.AccessRead:
		bank := addr / memline.Size % Banks
		start := now
		if b.bankFree[bank] > start {
			start = b.bankFree[bank]
		}
		wait, service = start-now, nvm.ReadNs
		b.bankFree[bank] = start + service
		b.coreNow[c] = b.bankFree[bank]
	case nvm.AccessWrite:
		// Queue full? Stall until the oldest outstanding write completes.
		if oldest := b.wqDone[b.wqIdx]; oldest > now {
			wait = oldest - now
			b.coreNow[c] = oldest
		}
		done := b.coreNow[c] + writeDrainNs
		if b.wqLastOut+writeDrainNs > done {
			done = b.wqLastOut + writeDrainNs
		}
		b.wqLastOut = done
		b.wqDone[b.wqIdx] = done
		b.wqIdx = (b.wqIdx + 1) % writeQueue
	}
	if len(b.obs) > 0 {
		b.emit(Event{Kind: EvAccess, Core: c, T: now, Access: kind, Addr: addr, Cause: cause,
			WaitNs: wait, ServiceNs: service})
	}
}

// opBegin opens an engine-level op bracket at the issuing core's clock.
func (b *backEnd) opBegin(op latOp) {
	if len(b.obs) > 0 {
		b.emitNow(Event{Kind: EvOpBegin, Op: op})
	}
}

// opEnd closes the innermost op bracket at the issuing core's clock.
func (b *backEnd) opEnd() {
	if len(b.obs) > 0 {
		b.emitNow(Event{Kind: EvOpEnd})
	}
}

// noteComp reports ns of critical-path time charged to comp.
func (b *backEnd) noteComp(comp latComp, ns float64) {
	if len(b.obs) > 0 {
		b.emitNow(Event{Kind: EvComponent, Comp: comp, Ns: ns})
	}
}

// emitNow stamps ev with the issuing core and its clock and emits it.
// It is kept apart from the callers' length checks so those inline
// into the hot paths.
func (b *backEnd) emitNow(ev Event) {
	ev.Core = b.m.curCore
	ev.T = b.coreNow[ev.Core]
	b.emit(ev)
}

// maxTimeNs returns the slowest core's clock — the back end's notion
// of elapsed simulated wall time.
func (b *backEnd) maxTimeNs() float64 {
	var t float64
	for _, v := range b.coreNow {
		if v > t {
			t = v
		}
	}
	return t
}
