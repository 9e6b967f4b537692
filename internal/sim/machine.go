package sim

import (
	"context"
	"fmt"
	"reflect"

	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/paged"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/telemetry"
)

// Machine is the simulated system: one front end — the CPU side — that
// drives one or more back ends. The front end holds the cores' caches
// (L1/L2 per core, the shared L3), the owner directory, the retired
// instruction counts, the current core and the context. Each back end
// (backend.go) is a memory controller with its engine, scheme and NVM
// device, its own core clocks and device timing state, its observation
// stream and its first error. NewMachine builds the group of one;
// NewGroup builds a group whose members differ only below the memory
// controller. A machine is single-goroutine by design — cores
// interleave deterministically, so every run is reproducible.
//
// A scheme changes nothing above the engine: the cache contents, the
// owner table, instruction counts and the order of engine calls are
// the same under every member, and none of them reads a clock. So the
// front end runs the CPU side once, charges every CPU-side latency to
// every back end's clock in the same order, and makes every engine
// call on every back end. The group invariant (see DESIGN.md):
//
//	back end i of NewGroup(cfgs...)  ≡  NewMachine(cfgs[i])
//
// for every observable output — Results, statistics, post-crash
// snapshots. Every ReadLine must return the same line (or the same
// error) on every back end; the first that does not fails the run with
// a divergence error naming the members, the step and the address.
//
// Methods that report one member — Config, Engine, Telemetry, Attach,
// LatencySnapshot, Measure, Run — report member 0; MeasureEach and
// RunEach report every member, and ForkMember forks one out as a solo
// machine.
type Machine struct {
	cfg Config // member 0's configuration; the front end reads only shared fields
	be  []*backEnd
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

	instr   []uint64 // per-core retired instructions
	curCore int
	// step is the workload session's position, for divergence errors:
	// the step index while stepping, stepSetup or stepVerify otherwise.
	step int

	// ctx cancels long simulations: Load/Store poll ctxDone every
	// ctxPollMask+1 memory operations and record ctx.Err() as the
	// machine error, which aborts the surrounding run at the next
	// step boundary.
	ctx     context.Context
	ctxDone <-chan struct{}
	ctxPoll uint

	// tel is the metrics registry (telemetry.go) over member 0; nil
	// unless Config.Telemetry.
	tel *telemetry.Registry

	err error // first error of any member (integrity violation = fatal)
}

// ctxPollMask throttles context polling to one check per 256 memory
// operations — cheap against the work a simulated access does, yet
// prompt enough that cancellation lands mid-cell, not at its end.
const ctxPollMask = 0xff

// Session positions outside the measured steps (Machine.step).
const (
	stepSetup  = -1
	stepVerify = -2
)

// NewMachine builds a machine per cfg: the group of one.
func NewMachine(cfg Config) (*Machine, error) { return NewGroup(cfg) }

// NewGroup builds one front end driving one back end per config. The
// configs may differ only in Scheme, Bitmap and MetaCache — the state
// below the CPU caches; any other difference is an error naming the
// field.
func NewGroup(cfgs ...Config) (*Machine, error) {
	cfgs, err := groupConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	cfg := cfgs[0]
	m := &Machine{
		autoSuite: cfg.Suite == nil,
		owner:     paged.New[int32](cfg.DataBytes / memline.Size),
	}
	for _, c := range cfgs {
		b, err := newBackEnd(m, m.withSuite(c))
		if err != nil {
			return nil, err
		}
		m.be = append(m.be, b)
	}
	m.cfg = m.be[0].cfg
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
	m.initTelemetry()
	if err := m.start(); err != nil {
		return nil, err
	}
	return m, nil
}

// groupConfigs copies a group's configs, refusing an empty list, a
// coreless machine, a scheme newScheme cannot build (checkScheme) and
// members whose front ends differ. NewGroup and ResetTo call it before
// they build or rewind anything.
func groupConfigs(cfgs []Config) ([]Config, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: a group needs at least one config")
	}
	cfgs = append([]Config(nil), cfgs...)
	for i := range cfgs {
		if err := checkScheme(cfgs[i]); err != nil {
			return nil, err
		}
		if f := frontEndDiff(cfgs[0], cfgs[i]); f != "" {
			return nil, fmt.Errorf("sim: group member %d: config differs from member 0 in %s; members may differ only in Scheme, Bitmap and MetaCache", i, f)
		}
	}
	if cfgs[0].Cores <= 0 {
		return nil, fmt.Errorf("sim: need at least one core")
	}
	return cfgs, nil
}

// frontEndDiff names the first field, other than Scheme, Bitmap and
// MetaCache, in which b differs from a ("" when there is none).
func frontEndDiff(a, b Config) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		switch name := va.Type().Field(i).Name; name {
		case "Scheme", "Bitmap", "MetaCache":
		default:
			if va.Field(i).Interface() != vb.Field(i).Interface() {
				return name
			}
		}
	}
	return ""
}

// withSuite returns c with the per-seed suite NewGroup derives when the
// machine's configs left Suite nil.
func (m *Machine) withSuite(c Config) Config {
	if m.autoSuite {
		c.Suite = simcrypto.NewFast(0x57a7 + c.Seed)
	}
	return c
}

// start builds what NewGroup and ResetTo both build afresh: every
// member's scheme, timing state and built-in observatory, and the
// front end's instruction counts and current core.
func (m *Machine) start() error {
	for _, b := range m.be {
		if err := b.start(); err != nil {
			return err
		}
	}
	m.instr = make([]uint64, m.cfg.Cores)
	m.curCore, m.step = 0, stepSetup
	return nil
}

// Engine exposes member 0's secure-memory engine (recovery, stats,
// attack injection).
func (m *Machine) Engine() *secmem.Engine { return m.be[0].engine }

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

// Config returns member 0's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Err returns the first error encountered by any member (an integrity
// violation surfacing through the cache hierarchy is fatal for a run).
func (m *Machine) Err() error { return m.err }

// setErr records the first error of the front end, which every member
// shares.
func (m *Machine) setErr(err error) {
	for _, b := range m.be {
		b.setErr(err)
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

// --- the front end's calls into every back end ---------------------------

// charge advances core c's clock on every member by ns of CPU-side
// latency. Each member adds the same charges in the same order as a
// solo machine would, so its clock sums are bit-identical to one.
func (m *Machine) charge(c int, ns float64) {
	for _, b := range m.be {
		b.coreNow[c] += ns
	}
}

// noteComp reports ns of critical-path time charged to comp on every
// member's stream.
func (m *Machine) noteComp(comp latComp, ns float64) {
	for _, b := range m.be {
		b.noteComp(comp, ns)
	}
}

func (m *Machine) opBegin(op latOp) {
	for _, b := range m.be {
		b.opBegin(op)
	}
}

func (m *Machine) opEnd() {
	for _, b := range m.be {
		b.opEnd()
	}
}

// readLine fills a cache miss: each member charges the memory
// controller path and reads addr through its engine inside a read op
// bracket. The line is member 0's; a member whose line or error
// differs from it fails the run with a divergence error.
func (m *Machine) readLine(c int, addr uint64) memline.Line {
	lat := l2LatNs + l3LatNs + mcLatNs
	var line memline.Line
	var err0, div error
	for i, b := range m.be {
		b.opBegin(opRead)
		b.coreNow[c] += lat
		b.noteComp(compMC, lat)
		l, err := b.engine.ReadLine(addr)
		if err != nil && b.err == nil {
			b.err = err
		}
		b.opEnd()
		if i == 0 {
			line, err0 = l, err
		} else if div == nil && (l != line || errText(err) != errText(err0)) {
			div = m.divergence(i, addr, l, err, line, err0)
		}
	}
	if div != nil {
		err0 = div
	}
	if err0 != nil && m.err == nil {
		m.err = err0
	}
	return line
}

// writeLine writes addr through every member's engine inside a write
// op bracket.
func (m *Machine) writeLine(addr uint64, data memline.Line) {
	for _, b := range m.be {
		b.opBegin(opWrite)
		if err := b.engine.WriteLine(addr, data); err != nil {
			b.setErr(err)
		}
		b.opEnd()
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// divergence describes the first ReadLine on which member i disagreed
// with member 0.
func (m *Machine) divergence(i int, addr uint64, l memline.Line, err error, l0 memline.Line, err0 error) error {
	read := func(l memline.Line, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("line %x", l[:8])
	}
	at := fmt.Sprintf("step %d", m.step)
	switch m.step {
	case stepSetup:
		at = "set-up"
	case stepVerify:
		at = "verify"
	}
	return fmt.Errorf("sim: lock-step divergence at %s, line %#x: member %d (%s) read %s; member 0 (%s) read %s",
		at, addr, i, memberName(m.be[i].cfg), read(l, err), memberName(m.be[0].cfg), read(l0, err0))
}

// memberName identifies a member by the fields members may differ in.
func memberName(cfg Config) string {
	return fmt.Sprintf("scheme=%s bitmap=%d+%d meta-cache=%dKiB/%d-way", cfg.Scheme,
		cfg.Bitmap.ADRL1Lines, cfg.Bitmap.ADRL2Lines, cfg.MetaCache.SizeBytes>>10, cfg.MetaCache.Ways)
}

// --- cache hierarchy ------------------------------------------------------

// ensureL1 brings a line into core c's L1 and returns its entry. The
// hierarchy is exclusive, so the line is removed from wherever it was.
func (m *Machine) ensureL1(c int, addr uint64) *cache.Entry {
	addr = memline.Align(addr)
	if e, ok := m.l1[c].Lookup(addr); ok {
		m.charge(c, l1LatNs)
		return e
	}
	m.charge(c, l1LatNs) // L1 miss still costs the probe

	var data memline.Line
	var dirty bool
	switch {
	case m.takeFrom(m.l2[c], addr, &data, &dirty, true):
		m.charge(c, l2LatNs)
	case m.takeFrom(m.l3, addr, &data, &dirty, true):
		m.charge(c, l3LatNs)
	case m.takeFromOtherCore(c, addr, &data, &dirty):
		m.charge(c, l3LatNs) // directory + cross-core transfer
	default:
		data, dirty = m.readLine(c, addr), false
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
			m.writeLine(va, vd)
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
			m.charge(c, mcLatNs)
			m.noteComp(compMC, mcLatNs)
			m.writeLine(line, e.Data)
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
				m.writeLine(addr, data)
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
	for _, b := range m.be {
		if len(b.obs) > 0 {
			b.emit(Event{Kind: EvCrash, T: b.maxTimeNs()})
		}
	}
	for i := range m.l1 {
		m.l1[i].DropAll()
		m.l2[i].DropAll()
	}
	m.l3.DropAll()
	m.owner.Clear()
	for _, b := range m.be {
		b.engine.Crash()
	}
}

// Recover runs every member's recovery and returns member 0's report
// and the first error any member returned. Recovery is report-modeled
// (RecoveryLineNs per line), not core-clock-bracketed: no op is open
// during replay, so the replay's device traffic stays out of the other
// op kinds.
func (m *Machine) Recover() (*secmem.RecoveryReport, error) {
	var rep0 *secmem.RecoveryReport
	var err0 error
	for i, b := range m.be {
		b.emit(Event{Kind: EvRecoveryBegin, T: b.maxTimeNs()})
		rep, err := b.engine.Recover()
		end := Event{Kind: EvRecoveryEnd, T: b.maxTimeNs()}
		if err == nil {
			end.Report = rep
		}
		b.emit(end)
		if i == 0 {
			rep0 = rep
		}
		if err0 == nil {
			err0 = err
		}
	}
	return rep0, err0
}

// Fork returns a copy-on-write clone of the machine — every member's
// engine, device contents and timing state, the CPU caches, ownership
// directory and error — that behaves exactly as a fresh machine run to
// the same point: the Fork invariant (see DESIGN.md),
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
// fork, its built-in observatories are copies of the parent's, and
// neither the parent's attached subscribers nor its context are
// inherited.
func (m *Machine) Fork() *Machine {
	f := m.forkFront(m.be[0].cfg, m.err)
	for _, b := range m.be {
		f.be = append(f.be, b.fork(f))
	}
	f.initTelemetry()
	return f
}

// ForkMember forks member i out of the group as a solo machine: the
// front end and member i's back end, copied as Fork copies them, with
// member i's configuration and error. By the group invariant it
// behaves as NewMachine(cfg_i) run to the same point.
func (m *Machine) ForkMember(i int) *Machine {
	b := m.be[i]
	f := m.forkFront(b.cfg, b.err)
	f.be = []*backEnd{b.fork(f)}
	f.initTelemetry()
	return f
}

// forkFront copies the front end for Fork and ForkMember.
func (m *Machine) forkFront(cfg Config, err error) *Machine {
	f := &Machine{
		cfg:       cfg,
		autoSuite: m.autoSuite,
		owner:     m.owner.Fork(),
		instr:     append([]uint64(nil), m.instr...),
		curCore:   m.curCore,
		step:      m.step,
		err:       err,
	}
	for i := range m.l1 {
		f.l1 = append(f.l1, m.l1[i].Fork())
		f.l2 = append(f.l2, m.l2[i].Fork())
	}
	f.l3 = m.l3.Fork()
	return f
}

// ResetTo restores the machine to the state NewGroup(cfgs...) would
// produce, on recycled storage. The configs' front end — every field
// but Scheme, Bitmap, MetaCache and Seed — must match the machine's;
// otherwise ResetTo returns an error naming the first differing field
// and leaves the machine as it was. Only the stores that are expensive
// to allocate rewind in place: the CPU caches and owner table here,
// and back end i's metadata cache, NVM line store and data-MAC table
// when its MetaCache, which fixes the SIT geometry, is unchanged. A
// back end whose MetaCache changed, or that the machine lacked, is
// built as NewGroup builds it; surplus back ends are dropped. The rest
// is built by start, as NewGroup builds it, and when the configs left
// Suite nil each member's per-seed suite is derived exactly as
// NewGroup derives it. The invariant the experiment runner's machine
// reuse is built on:
//
//	m.ResetTo(cfgs...) ≡ NewGroup(cfgs...)
//
// for every observable output — Results, statistics, snapshots, the
// golden corpus — whether m was running, crashed, recovered or forked.
// TestGoldenResults and TestResetReuseInterleaved hold it in place.
// Attached observers are detached. A config NewGroup would refuse —
// an unknown scheme, a partial Bitmap, a front-end difference between
// members — is refused the same way, before anything is rewound.
func (m *Machine) ResetTo(cfgs ...Config) error {
	cfgs, err := groupConfigs(cfgs)
	if err != nil {
		return err
	}
	cur := m.cfg
	cur.Seed = cfgs[0].Seed
	if m.autoSuite {
		cur.Suite = nil
	}
	if f := frontEndDiff(cur, cfgs[0]); f != "" {
		return fmt.Errorf("sim: ResetTo: config differs from the machine's in %s; a machine may be reset only to new Scheme, Bitmap, MetaCache and Seed", f)
	}
	be := make([]*backEnd, len(cfgs))
	for i := range cfgs {
		cfgs[i] = m.withSuite(cfgs[i])
		if i < len(m.be) && m.be[i].cfg.MetaCache == cfgs[i].MetaCache {
			be[i] = m.be[i]
		} else if be[i], err = newBackEnd(m, cfgs[i]); err != nil {
			return err
		}
	}
	for i, b := range be {
		if i < len(m.be) && b == m.be[i] {
			b.cfg = cfgs[i]
			b.engine.Reset(b.cfg.Suite)
		}
	}
	m.be, m.cfg = be, be[0].cfg
	for i := range m.l1 {
		m.l1[i].Reset()
		m.l2[i].Reset()
	}
	m.l3.Reset()
	m.owner.Clear()
	m.ctx, m.ctxDone, m.ctxPoll = nil, nil, 0
	m.err = nil
	return m.start()
}

// Reset is ResetTo of the machine's own configurations with Seed =
// seed.
func (m *Machine) Reset(seed uint64) {
	cfgs := make([]Config, len(m.be))
	for i, b := range m.be {
		cfgs[i] = b.cfg
		cfgs[i].Seed = seed
		if m.autoSuite {
			cfgs[i].Suite = nil
		}
	}
	if err := m.ResetTo(cfgs...); err != nil {
		// NewGroup built every member from these configurations already.
		panic(fmt.Sprintf("sim: Reset: %v", err))
	}
}
