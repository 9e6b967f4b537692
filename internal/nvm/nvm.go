// Package nvm models a PCM-based non-volatile main memory at line
// granularity: a sparse 64-byte-line store with the paper's DDR-PCM
// timing parameters, per-line wear counters, and read/write energy
// accounting.
//
// Durability semantics are the crux for this simulator: everything
// written to the device survives a crash, everything not written is
// lost. The device itself therefore needs no crash handling; the crash
// is implemented by the machine dropping its volatile state.
package nvm

import (
	"fmt"
	"sort"

	"nvmstar/internal/memline"
)

// Timing holds the DDR-PCM latency model from Table I of the paper
// (tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns).
type Timing struct {
	TRCDns float64 // row-to-column delay
	TCLns  float64 // column access (CAS) latency
	TCWDns float64 // column write delay
	TFAWns float64 // four-activation window
	TWTRns float64 // write-to-read turnaround
	TWRns  float64 // write recovery (the long PCM cell write)
}

// DefaultTiming returns the paper's PCM latency model.
func DefaultTiming() Timing {
	return Timing{TRCDns: 48, TCLns: 15, TCWDns: 13, TFAWns: 50, TWTRns: 7.5, TWRns: 300}
}

// ReadNs is the service time of one line read: row activation plus
// column access.
func (t Timing) ReadNs() float64 { return t.TRCDns + t.TCLns }

// WriteNs is the service time of one line write: column write delay
// plus the PCM write-recovery time.
func (t Timing) WriteNs() float64 { return t.TCWDns + t.TWRns }

// Energy holds the per-line-access energy model. PCM writes are far
// more expensive than reads (the paper: NVM write energy is ~2x DRAM,
// and reads are much cheaper than writes).
type Energy struct {
	ReadPJ  float64 // energy per 64B line read, picojoules
	WritePJ float64 // energy per 64B line write, picojoules
}

// DefaultEnergy returns a representative PCM energy model
// (2 pJ/bit read, 16 pJ/bit write over 512 bits).
func DefaultEnergy() Energy {
	return Energy{ReadPJ: 2 * memline.Bits, WritePJ: 16 * memline.Bits}
}

// Config configures a Device.
type Config struct {
	// CapacityBytes is the addressable size. Accesses beyond it panic:
	// the simulator computing an out-of-range address is a bug, not a
	// runtime condition.
	CapacityBytes uint64
	Timing        Timing
	Energy        Energy
	// TrackWear enables per-line write counters (endurance studies).
	TrackWear bool
}

// Stats accumulates device-level counters.
type Stats struct {
	Reads       uint64  // line reads
	Writes      uint64  // line writes
	ReadEnergy  float64 // pJ
	WriteEnergy float64 // pJ
}

// TotalEnergyPJ returns the total access energy in picojoules.
func (s Stats) TotalEnergyPJ() float64 { return s.ReadEnergy + s.WriteEnergy }

// Sub returns s - o, for measuring a phase between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:       s.Reads - o.Reads,
		Writes:      s.Writes - o.Writes,
		ReadEnergy:  s.ReadEnergy - o.ReadEnergy,
		WriteEnergy: s.WriteEnergy - o.WriteEnergy,
	}
}

// Device is a line-granularity PCM device. The line store is sparse:
// never-written lines read as all-zero, which models a zeroed device
// and lets the simulator address terabyte-scale spaces cheaply. The
// store is paged (see lineStore): a line access costs two array
// indexations instead of a map lookup, and steady-state accesses do
// not allocate.
type Device struct {
	cfg   Config
	store lineStore
	stats Stats
	hook  AccessHook
}

// Access classifies a device access reported to the AccessHook.
type Access uint8

const (
	AccessRead  Access = iota // counted line read
	AccessWrite               // counted line write
	AccessOOB                 // uncounted out-of-band store (StoreOOB)
)

// AccessHook observes every counted device access and every
// out-of-band store, with the cause its issue point tagged it with
// (CauseOther for reads, which carry none). The machine attaches one
// to charge latency and queueing to the issuing core and to feed its
// observation stream.
type AccessHook func(kind Access, addr uint64, cause Cause)

// SetHook installs the access observer (nil to remove).
func (d *Device) SetHook(h AccessHook) { d.hook = h }

// New creates a Device. Capacity must be a positive multiple of the
// line size.
func New(cfg Config) (*Device, error) {
	if cfg.CapacityBytes == 0 || cfg.CapacityBytes%memline.Size != 0 {
		return nil, fmt.Errorf("nvm: capacity %d is not a positive multiple of %d", cfg.CapacityBytes, memline.Size)
	}
	return &Device{cfg: cfg, store: newPagedStore(cfg.CapacityBytes)}, nil
}

// newWithStore builds a Device over an explicit backing store; the
// shared store-semantics tests use it to exercise the map reference
// implementation through the full Device API.
func newWithStore(cfg Config, s lineStore) (*Device, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	d.store = s
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) checkAddr(addr uint64) {
	if addr%memline.Size != 0 {
		panic(fmt.Sprintf("nvm: unaligned access %#x", addr))
	}
	if addr+memline.Size > d.cfg.CapacityBytes {
		panic(fmt.Sprintf("nvm: access %#x beyond capacity %#x", addr, d.cfg.CapacityBytes))
	}
}

// Read returns the line at addr and whether it has ever been written.
// Unwritten lines are all-zero.
func (d *Device) Read(addr uint64) (memline.Line, bool) {
	d.checkAddr(addr)
	d.stats.Reads++
	d.stats.ReadEnergy += d.cfg.Energy.ReadPJ
	if d.hook != nil {
		d.hook(AccessRead, addr, CauseOther)
	}
	return d.store.load(addr)
}

// Peek returns the line at addr without counting an access. Recovery
// verification and tests use it to inspect device state.
func (d *Device) Peek(addr uint64) (memline.Line, bool) {
	d.checkAddr(addr)
	return d.store.load(addr)
}

// Write stores a line at addr. Untagged writes fall into CauseOther —
// every issue point in the tree is expected to use WriteCause instead,
// and the attribution tests assert CauseOther stays zero.
func (d *Device) Write(addr uint64, l memline.Line) {
	d.WriteCause(addr, l, CauseOther)
}

// WriteCause is Write with a cause tag: it counts one line write —
// statistics, energy and the access hook — then stores the line and
// bumps its wear.
func (d *Device) WriteCause(addr uint64, l memline.Line, cause Cause) {
	d.checkAddr(addr)
	d.stats.Writes++
	d.stats.WriteEnergy += d.cfg.Energy.WritePJ
	if d.hook != nil {
		d.hook(AccessWrite, addr, cause)
	}
	d.store.store(addr, l)
	if d.cfg.TrackWear {
		d.store.bumpWear(addr)
	}
}

// Poke stores a line without counting an access. Attack injection and
// test setup use it to mutate device state out of band.
func (d *Device) Poke(addr uint64, l memline.Line) {
	d.checkAddr(addr)
	d.store.store(addr, l)
}

// StoreOOB is a Poke that the hook sees: an uncounted out-of-band
// store the simulated system itself performs (ADR contents flushed by
// the crash model, recovery-area resets). It stays out of Stats.Writes
// and wear, so the counted per-cause sums still add up exactly to
// Stats.Writes, and it charges no time.
func (d *Device) StoreOOB(addr uint64, l memline.Line, cause Cause) {
	d.Poke(addr, l)
	if d.hook != nil {
		d.hook(AccessOOB, addr, cause)
	}
}

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the counters (e.g. after a warm-up phase).
func (d *Device) ResetStats() { d.stats = Stats{} }

// Reset restores the device to its just-constructed state: the line
// store and wear counters are emptied (the paged store retains its
// pages for reuse) and the statistics zeroed. The access hook and
// configuration are kept — machine reuse resets the device it already
// wired up.
func (d *Device) Reset() {
	d.store.reset()
	d.stats = Stats{}
}

// Fork returns a copy-on-write clone of the device: the clone observes
// the current line contents, wear counters and statistics, and
// subsequent writes on either side are invisible to the other. The
// access hook is deliberately NOT carried over — it closes over the
// parent's machine timing model; the clone's owner re-installs its
// own.
func (d *Device) Fork() *Device {
	return &Device{cfg: d.cfg, store: d.store.fork(), stats: d.stats}
}

// Wear returns the write count of the line at addr. It is zero unless
// TrackWear was enabled.
func (d *Device) Wear(addr uint64) uint64 {
	return d.store.wear(addr)
}

// MaxWear returns the highest per-line write count and its address
// (the lowest such address on ties).
func (d *Device) MaxWear() (addr, writes uint64) {
	d.store.rangeWear(func(a, w uint64) {
		if w > writes {
			addr, writes = a, w
		}
	})
	return addr, writes
}

// WearProfile returns per-line wear sorted by descending write count,
// capped at limit entries. It supports endurance analyses.
func (d *Device) WearProfile(limit int) []WearEntry {
	entries := make([]WearEntry, 0, d.store.wearCount())
	d.store.rangeWear(func(a, w uint64) {
		entries = append(entries, WearEntry{Addr: a, Writes: w})
	})
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Writes != entries[j].Writes {
			return entries[i].Writes > entries[j].Writes
		}
		return entries[i].Addr < entries[j].Addr
	})
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
	}
	return entries
}

// WearEntry is one line's wear count.
type WearEntry struct {
	Addr   uint64
	Writes uint64
}

// LinesWritten returns how many distinct lines have ever been written.
func (d *Device) LinesWritten() int {
	return d.store.linesWritten()
}
