package sim

import (
	"context"
	"fmt"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/paged"
	"nvmstar/internal/schemes/anubis"
	"nvmstar/internal/schemes/phoenix"
	"nvmstar/internal/schemes/star"
	"nvmstar/internal/schemes/strict"
	"nvmstar/internal/schemes/wb"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/telemetry"
)

// Machine is the simulated system. It is single-goroutine by design —
// cores interleave deterministically, so every run is reproducible.
type Machine struct {
	cfg    Config
	engine *secmem.Engine
	// autoSuite records that the caller left cfg.Suite nil, so Reset
	// re-derives the per-seed suite the same way NewMachine did.
	autoSuite bool

	l1 []*cache.Cache // per core
	l2 []*cache.Cache // per core
	l3 *cache.Cache
	// owner tracks which core's private caches hold a line. The
	// hierarchy is exclusive: exactly one copy of a line exists in the
	// whole cache system (some L1, some L2, or L3), which stands in
	// for a directory coherence protocol. Keyed by line index in a
	// paged table so the per-access directory lookup allocates nothing.
	owner *paged.Table[int32]

	coreNow []float64 // per-core clock, ns
	instr   []uint64  // per-core retired instructions
	curCore int

	// timing is cfg.Timing with the zero value resolved to the
	// default once, here rather than on every device access; cfg keeps
	// the caller's value because it feeds config fingerprints.
	timing nvm.Timing

	bankFree  []float64 // per-bank busy-until for reads, ns
	wqDone    []float64 // completion times of outstanding writes (ring)
	wqIdx     int
	wqLastOut float64 // completion time of the most recent write

	// ctx cancels long simulations: Load/Store poll ctxDone every
	// ctxPollMask+1 memory operations and record ctx.Err() as the
	// machine error, which aborts the surrounding run at the next
	// step boundary.
	ctx     context.Context
	ctxDone <-chan struct{}
	ctxPoll uint

	// tel is the metrics registry (telemetry.go); nil unless
	// Config.Telemetry.
	tel *telemetry.Registry
	// obs is the observation stream's subscriber list (observe.go):
	// the built-in observatory first when Config.Observe installed
	// one, then the attached subscribers.
	obs      []Observer
	observed *observatory

	err error // first engine error (integrity violation = fatal)
}

// ctxPollMask throttles context polling to one check per 256 memory
// operations — cheap against the work a simulated access does, yet
// prompt enough that cancellation lands mid-cell, not at its end.
const ctxPollMask = 0xff

// NewMachine builds a machine per cfg.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: need at least one core")
	}
	autoSuite := cfg.Suite == nil
	if autoSuite {
		cfg.Suite = simcrypto.NewFast(0x57a7 + cfg.Seed)
	}
	if cfg.WriteQueue <= 0 {
		cfg.WriteQueue = 64
	}
	if cfg.FreqGHz == 0 {
		cfg.FreqGHz = 2
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 8
	}
	m := &Machine{
		cfg:       cfg,
		autoSuite: autoSuite,
		timing:    cfg.Timing,
		owner:     paged.New[int32](cfg.DataBytes / memline.Size),
	}
	if m.timing == (nvm.Timing{}) {
		m.timing = nvm.DefaultTiming()
	}
	var err error
	m.engine, err = secmem.New(secmem.Config{
		DataBytes: cfg.DataBytes,
		MetaCache: cfg.MetaCache,
		Suite:     cfg.Suite,
		Timing:    cfg.Timing,
		Energy:    cfg.Energy,
		TrackWear: cfg.TrackWear,
	})
	if err != nil {
		return nil, err
	}
	for c := 0; c < cfg.Cores; c++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("sim: L1: %w", err)
		}
		l2, err := cache.New(cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("sim: L2: %w", err)
		}
		m.l1 = append(m.l1, l1)
		m.l2 = append(m.l2, l2)
	}
	if m.l3, err = cache.New(cfg.L3); err != nil {
		return nil, fmt.Errorf("sim: L3: %w", err)
	}

	m.engine.Device().SetHook(m.onDeviceAccess)
	m.engine.SetEventHook(m.onEngineEvent)
	m.initTelemetry()
	if err := m.start(); err != nil {
		return nil, err
	}
	return m, nil
}

// start builds what NewMachine and Reset both build afresh: the
// scheme, the timing state and the built-in observatory, with every
// attached subscriber detached.
func (m *Machine) start() error {
	s, err := newScheme(m.cfg, m.engine)
	if err != nil {
		return err
	}
	m.engine.SetScheme(s)
	m.coreNow, m.instr = make([]float64, m.cfg.Cores), make([]uint64, m.cfg.Cores)
	m.bankFree, m.wqDone = make([]float64, m.cfg.Banks), make([]float64, m.cfg.WriteQueue)
	m.curCore, m.wqIdx, m.wqLastOut = 0, 0, 0
	if m.cfg.Observe {
		m.observed = newObservatory(m)
	}
	m.resetObservers()
	return nil
}

// newScheme builds cfg's persistence scheme over e.
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
		// An all-zero Bitmap config means "use the paper's default". A
		// partially specified one is a caller mistake — silently
		// replacing it would run with sizes the caller never asked for.
		bm := cfg.Bitmap
		if bm == (bitmap.Config{}) {
			bm = bitmap.DefaultConfig()
		} else if bm.ADRL1Lines <= 0 || bm.ADRL2Lines <= 0 {
			return nil, fmt.Errorf(
				"sim: partial Bitmap config %+v: set both ADRL1Lines and ADRL2Lines, or leave both zero for the default %+v",
				cfg.Bitmap, bitmap.DefaultConfig())
		}
		return star.New(e, bm)
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", cfg.Scheme)
	}
}

// Engine exposes the secure-memory engine (recovery, stats, attack
// injection).
func (m *Machine) Engine() *secmem.Engine { return m.engine }

// SetCore selects the core that issues subsequent Load/Store/Persist
// calls (heap.Memory has no thread parameter; the single-goroutine
// runner switches cores between operations). An out-of-range core is
// recorded through setErr — the same fail-stop policy every invalid
// memory operation follows — and the current core stays selected.
func (m *Machine) SetCore(core int) {
	if core < 0 || core >= m.cfg.Cores {
		m.setErr(fmt.Errorf("sim: core %d out of range (machine has %d)", core, m.cfg.Cores))
		return
	}
	m.curCore = core
}

// CurrentCore returns the core selected by SetCore (trace recorders
// sample it per access).
func (m *Machine) CurrentCore() int { return m.curCore }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Err returns the first engine error encountered (an integrity
// violation surfacing through the cache hierarchy is fatal for a run).
func (m *Machine) Err() error { return m.err }

// setErr records the first error.
func (m *Machine) setErr(err error) {
	if m.err == nil && err != nil {
		m.err = err
	}
}

// SetContext attaches ctx to the machine. Subsequent memory operations
// poll it; once ctx is done, ctx.Err() becomes the machine error and
// the active run aborts at its next step boundary. A nil ctx (or
// context.Background()) disables polling. RunCtx and friends call this
// for the duration of a run; long-lived machines driven directly
// through Load/Store may set it once up front.
func (m *Machine) SetContext(ctx context.Context) {
	if ctx == nil {
		m.ctx, m.ctxDone = nil, nil
		return
	}
	m.ctx, m.ctxDone = ctx, ctx.Done()
}

// pollCtx is the per-memory-op cancellation check (throttled).
func (m *Machine) pollCtx() {
	if m.ctxDone == nil {
		return
	}
	m.ctxPoll++
	if m.ctxPoll&ctxPollMask != 0 {
		return
	}
	select {
	case <-m.ctxDone:
		m.setErr(m.ctx.Err())
	default:
	}
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
// write bandwidth (Banks lines per tWR). This back-pressure is exactly
// how extra write traffic (Anubis's ST blocks, strict's branch
// write-throughs) turns into IPC loss in the paper.
//
// Out-of-band stores are not part of the timed run and charge nothing.
func (m *Machine) onDeviceAccess(kind nvm.Access, addr uint64, cause nvm.Cause) {
	c := m.curCore
	t := &m.timing
	now := m.coreNow[c]
	var wait, service float64
	switch kind {
	case nvm.AccessRead:
		bank := int(addr/memline.Size) % len(m.bankFree)
		start := now
		if m.bankFree[bank] > start {
			start = m.bankFree[bank]
		}
		wait, service = start-now, t.ReadNs()
		m.bankFree[bank] = start + service
		m.coreNow[c] = m.bankFree[bank]
	case nvm.AccessWrite:
		// Queue full? Stall until the oldest outstanding write completes.
		if oldest := m.wqDone[m.wqIdx]; oldest > now {
			wait = oldest - now
			m.coreNow[c] = oldest
		}
		// Service completion: aggregate drain rate of Banks/tWR.
		interval := t.WriteNs() / float64(len(m.bankFree))
		done := m.coreNow[c] + interval
		if m.wqLastOut+interval > done {
			done = m.wqLastOut + interval
		}
		m.wqLastOut = done
		m.wqDone[m.wqIdx] = done
		m.wqIdx = (m.wqIdx + 1) % len(m.wqDone)
	}
	if len(m.obs) > 0 {
		m.emit(Event{Kind: EvAccess, Core: c, T: now, Access: kind, Addr: addr, Cause: cause,
			WaitNs: wait, ServiceNs: service})
	}
}

// opBegin opens an engine-level op bracket at the issuing core's clock.
func (m *Machine) opBegin(op latOp) {
	if len(m.obs) > 0 {
		m.emitNow(Event{Kind: EvOpBegin, Op: op})
	}
}

// opEnd closes the innermost op bracket at the issuing core's clock.
func (m *Machine) opEnd() {
	if len(m.obs) > 0 {
		m.emitNow(Event{Kind: EvOpEnd})
	}
}

// noteComp reports ns of critical-path time charged to comp.
func (m *Machine) noteComp(comp latComp, ns float64) {
	if len(m.obs) > 0 {
		m.emitNow(Event{Kind: EvComponent, Comp: comp, Ns: ns})
	}
}

// emitNow stamps ev with the issuing core and its clock and emits it.
// It is kept apart from the callers' length checks so those inline
// into the hot paths.
func (m *Machine) emitNow(ev Event) {
	ev.Core, ev.T = m.curCore, m.coreNow[m.curCore]
	m.emit(ev)
}

func (m *Machine) charge(c int, ns float64) { m.coreNow[c] += ns }

// --- cache hierarchy ------------------------------------------------------

// ensureL1 brings a line into core c's L1 and returns its entry. The
// hierarchy is exclusive, so the line is removed from wherever it was.
func (m *Machine) ensureL1(c int, addr uint64) *cache.Entry {
	addr = memline.Align(addr)
	if e, ok := m.l1[c].Lookup(addr); ok {
		m.charge(c, m.cfg.L1LatNs)
		return e
	}
	m.charge(c, m.cfg.L1LatNs) // L1 miss still costs the probe

	var data memline.Line
	var dirty bool
	switch {
	case m.takeFrom(m.l2[c], addr, &data, &dirty, true):
		m.charge(c, m.cfg.L2LatNs)
	case m.takeFrom(m.l3, addr, &data, &dirty, true):
		m.charge(c, m.cfg.L3LatNs)
	case m.takeFromOtherCore(c, addr, &data, &dirty):
		m.charge(c, m.cfg.L3LatNs) // directory + cross-core transfer
	default:
		m.opBegin(opRead)
		m.charge(c, m.cfg.L2LatNs+m.cfg.L3LatNs+m.cfg.MCLatNs)
		m.noteComp(compMC, m.cfg.L2LatNs+m.cfg.L3LatNs+m.cfg.MCLatNs)
		line, err := m.engine.ReadLine(addr)
		if err != nil {
			m.setErr(err)
		}
		m.opEnd()
		data, dirty = line, false
	}
	m.setOwner(addr, c)
	return m.l1[c].Insert(addr, data, dirty, func(va uint64, vd memline.Line, vdirty bool) {
		m.demoteToL2(c, va, vd, vdirty)
	})
}

// setOwner records that core c's private caches hold addr. Addresses
// beyond the data region (only reachable after an out-of-range access
// already made the run fatal) are not tracked, matching Get's
// out-of-capacity absence.
func (m *Machine) setOwner(addr uint64, c int) {
	if idx := addr / memline.Size; idx < m.owner.Slots() {
		m.owner.Set(idx, int32(c))
	}
}

func (m *Machine) ownerOf(addr uint64) (int, bool) {
	o, ok := m.owner.Get(addr / memline.Size)
	return int(o), ok
}

func (m *Machine) deleteOwner(addr uint64) {
	if idx := addr / memline.Size; idx < m.owner.Slots() {
		m.owner.Delete(idx)
	}
}

// takeFrom extracts a line from a cache if present (exclusive move).
// A demand probe — ensureL1 searching the core's own L2, then the
// shared L3 — counts a hit or miss; cross-core migration does not.
// The line moves straight into *data; *data and *dirty are left alone
// on a miss.
func (m *Machine) takeFrom(from *cache.Cache, addr uint64, data *memline.Line, dirty *bool, demand bool) bool {
	var d, ok bool
	if demand {
		d, ok = from.Take(addr, data)
	} else {
		d, ok = from.Invalidate(addr, data)
	}
	if ok {
		*dirty = d
	}
	return ok
}

// takeFromOtherCore migrates a line out of another core's private
// caches (directory lookup).
func (m *Machine) takeFromOtherCore(c int, addr uint64, data *memline.Line, dirty *bool) bool {
	o, ok := m.ownerOf(addr)
	if !ok || o == c {
		return false
	}
	if m.takeFrom(m.l1[o], addr, data, dirty, false) || m.takeFrom(m.l2[o], addr, data, dirty, false) {
		return true
	}
	return false
}

func (m *Machine) demoteToL2(c int, addr uint64, data memline.Line, dirty bool) {
	m.setOwner(addr, c)
	m.l2[c].Insert(addr, data, dirty, func(va uint64, vd memline.Line, vdirty bool) {
		m.demoteToL3(va, vd, vdirty)
	})
}

func (m *Machine) demoteToL3(addr uint64, data memline.Line, dirty bool) {
	m.deleteOwner(addr)
	m.l3.Insert(addr, data, dirty, func(va uint64, vd memline.Line, vdirty bool) {
		if vdirty {
			m.opBegin(opWrite)
			if err := m.engine.WriteLine(va, vd); err != nil {
				m.setErr(err)
			}
			m.opEnd()
		}
	})
}

// locate finds a line anywhere in the hierarchy without moving it.
func (m *Machine) locate(addr uint64) (*cache.Entry, *cache.Cache) {
	addr = memline.Align(addr)
	if o, ok := m.ownerOf(addr); ok {
		if e, ok := m.l1[o].Peek(addr); ok {
			return e, m.l1[o]
		}
		if e, ok := m.l2[o].Peek(addr); ok {
			return e, m.l2[o]
		}
	}
	if e, ok := m.l3.Peek(addr); ok {
		return e, m.l3
	}
	return nil, nil
}

// --- heap.Memory implementation ------------------------------------------

// checkRange validates that [addr, addr+size) lies inside the
// protected data region. Out-of-range accesses follow the machine's
// uniform fail-stop policy: the violation is recorded through setErr
// (fatal for the surrounding run) and the operation is dropped, never
// reaching the cache hierarchy or the engine. This is the same policy
// the engine applies at its own boundary; checking here too keeps
// bogus lines out of the CPU caches and makes the three entry points
// (Load, Store, Persist) consistent instead of each failing at a
// different depth.
func (m *Machine) checkRange(op string, addr uint64, size uint64) bool {
	limit := m.cfg.DataBytes
	if addr >= limit || size > limit-addr {
		m.setErr(fmt.Errorf("sim: %s [%#x, %#x) beyond the %d-byte data region",
			op, addr, addr+size, limit))
		return false
	}
	return true
}

// Load implements heap.Memory for the current core.
func (m *Machine) Load(addr uint64, buf []byte) {
	m.pollCtx()
	if !m.checkRange("load", addr, uint64(len(buf))) {
		return
	}
	c := m.curCore
	m.instr[c] += instrPerMemOp
	for len(buf) > 0 {
		e := m.ensureL1(c, addr)
		off := memline.Offset(addr)
		n := copy(buf, e.Data[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
}

// Store implements heap.Memory for the current core.
func (m *Machine) Store(addr uint64, data []byte) {
	m.pollCtx()
	if !m.checkRange("store", addr, uint64(len(data))) {
		return
	}
	c := m.curCore
	m.instr[c] += instrPerMemOp
	for len(data) > 0 {
		e := m.ensureL1(c, addr)
		off := memline.Offset(addr)
		n := copy(e.Data[off:], data)
		if !e.Dirty {
			m.l1[c].MarkEntryDirty(e)
		}
		data = data[n:]
		addr += uint64(n)
	}
}

// Persist implements heap.Memory: CLWB the covering lines — dirty
// copies are written through to the memory controller and stay cached
// clean.
func (m *Machine) Persist(addr uint64, size int) {
	c := m.curCore
	if size <= 0 {
		return
	}
	if !m.checkRange("persist", addr, uint64(size)) {
		return
	}
	first := memline.Align(addr)
	// Clamp the last covered byte: addr+size-1 can wrap uint64, and a
	// wrapped `last` below `first` would make the line walk circle the
	// whole 64-bit space before terminating.
	end := addr + uint64(size) - 1
	if end < addr {
		end = ^uint64(0)
	}
	last := memline.Align(end)
	m.opBegin(opPersist)
	for line := first; ; line += memline.Size {
		// Large flushes run this loop far longer than one Load/Store;
		// poll so cancellation can abort mid-walk, not only between
		// operations.
		m.pollCtx()
		if m.err != nil {
			m.opEnd()
			return
		}
		m.instr[c] += instrPerPersist
		if e, holder := m.locate(line); e != nil && e.Dirty {
			m.charge(c, m.cfg.MCLatNs)
			m.noteComp(compMC, m.cfg.MCLatNs)
			m.opBegin(opWrite)
			if err := m.engine.WriteLine(line, e.Data); err != nil {
				m.setErr(err)
			}
			m.opEnd()
			holder.CleanEntry(e)
		}
		if line == last {
			break
		}
	}
	m.opEnd()
}

// Fence implements heap.Memory: with ADR, SFENCE waits only for
// write-pending-queue acceptance.
func (m *Machine) Fence() {
	m.instr[m.curCore] += instrPerFence
	m.charge(m.curCore, fenceLatNs)
}

// FlushCPUCaches writes every dirty line in the CPU hierarchy through
// to the memory controller (used before a graceful shutdown).
func (m *Machine) FlushCPUCaches() error {
	flush := func(c *cache.Cache) {
		c.FlushAll(func(addr uint64, data memline.Line, dirty bool) {
			if dirty {
				m.opBegin(opWrite)
				if err := m.engine.WriteLine(addr, data); err != nil {
					m.setErr(err)
				}
				m.opEnd()
			}
		})
	}
	for i := range m.l1 {
		flush(m.l1[i])
		flush(m.l2[i])
	}
	flush(m.l3)
	return m.err
}

// Crash models a power failure: the CPU caches and the memory
// controller's volatile state vanish; battery-backed and on-chip
// state survives (handled by the engine and scheme).
func (m *Machine) Crash() {
	if len(m.obs) > 0 {
		m.emit(Event{Kind: EvCrash, T: m.maxTimeNs()})
	}
	for i := range m.l1 {
		m.l1[i].DropAll()
		m.l2[i].DropAll()
	}
	m.l3.DropAll()
	m.owner.Clear()
	m.engine.Crash()
}

// Recover runs the active scheme's recovery. Recovery is
// report-modeled (RecoveryLineNs per line), not core-clock-bracketed:
// no op is open during replay, so the replay's device traffic stays
// out of the other op kinds.
func (m *Machine) Recover() (*secmem.RecoveryReport, error) {
	m.emit(Event{Kind: EvRecoveryBegin, T: m.maxTimeNs()})
	rep, err := m.engine.Recover()
	end := Event{Kind: EvRecoveryEnd, T: m.maxTimeNs()}
	if err == nil {
		end.Report = rep
	}
	m.emit(end)
	return rep, err
}

// Fork returns a copy-on-write clone of the machine — engine, device
// contents, CPU caches, ownership directory, timing state and error —
// that behaves exactly as a fresh machine run to the same point: the
// Fork invariant (see DESIGN.md),
//
//	m.Fork() then X  ≡  fresh machine, same workload to the same point, then X
//
// for every observable output — Results, statistics, snapshots, sealed
// manifest digests. Device and owner-table contents share pages
// copy-on-write and the CPU and metadata caches share their slot
// arrays copy-on-write, so the call is O(occupied pages), not
// O(memory), and a fork that is crashed copies no cache. The parent
// may keep running (or Reset and be reused) while forks run on other
// goroutines. Observation is isolated: the fork's registry reads the
// fork, its built-in observatory is a copy of the parent's, and
// neither the parent's attached subscribers nor its context are
// inherited.
func (m *Machine) Fork() *Machine {
	f := &Machine{
		cfg:       m.cfg,
		engine:    m.engine.Fork(),
		autoSuite: m.autoSuite,
		timing:    m.timing,
		owner:     m.owner.Fork(),
		coreNow:   append([]float64(nil), m.coreNow...),
		instr:     append([]uint64(nil), m.instr...),
		curCore:   m.curCore,
		bankFree:  append([]float64(nil), m.bankFree...),
		wqDone:    append([]float64(nil), m.wqDone...),
		wqIdx:     m.wqIdx,
		wqLastOut: m.wqLastOut,
		err:       m.err,
	}
	for i := range m.l1 {
		f.l1 = append(f.l1, m.l1[i].Fork())
		f.l2 = append(f.l2, m.l2[i].Fork())
	}
	f.l3 = m.l3.Fork()
	f.engine.Device().SetHook(f.onDeviceAccess)
	f.engine.SetEventHook(f.onEngineEvent)
	f.initTelemetry()
	f.observed = m.observed.clone()
	f.resetObservers()
	return f
}

// Reset restores the machine to the state NewMachine would produce for
// the same configuration with Seed = seed. Only the stores that are
// expensive to allocate rewind in place: the CPU caches and owner table
// here, the metadata cache, NVM line store and data-MAC table in the
// engine. The rest is built by start, as NewMachine builds it, and when
// the original configuration left Suite nil the per-seed suite is
// re-derived exactly as NewMachine derives it. The invariant the
// experiment runner's machine reuse is built on:
//
//	m.Reset(seed) ≡ NewMachine(cfg with Seed = seed)
//
// for every observable output — Results, statistics, snapshots, the
// golden corpus. TestGoldenResults and TestResetReuseInterleaved hold
// it in place. Attached observers are detached.
func (m *Machine) Reset(seed uint64) {
	m.cfg.Seed = seed
	if m.autoSuite {
		m.cfg.Suite = simcrypto.NewFast(0x57a7 + seed)
	}
	m.engine.Reset(m.cfg.Suite)
	for i := range m.l1 {
		m.l1[i].Reset()
		m.l2[i].Reset()
	}
	m.l3.Reset()
	m.owner.Clear()
	m.ctx, m.ctxDone, m.ctxPoll = nil, nil, 0
	m.err = nil
	if err := m.start(); err != nil {
		// NewMachine built a scheme from this configuration already.
		panic(fmt.Sprintf("sim: Reset: %v", err))
	}
}
