// Package nvmstar is a library-grade reproduction of STAR (Huang &
// Hua, HPCA 2021): a write-friendly, fast-recovery persistence scheme
// for the security metadata — counter-mode-encryption counter blocks
// and SGX-integrity-tree (SIT) nodes — of secure non-volatile
// memories.
//
// The package simulates a complete secure-NVM machine: CPU cores with
// private L1/L2 and a shared L3, a memory controller housing a
// security-metadata cache, counter-mode encryption, a lazily updated
// SIT, and DDR-PCM-timed NVM. Four metadata persistence schemes plug
// into it:
//
//   - "wb":     ideal write-back cache, no crash recovery (baseline)
//   - "strict": write-through of every modified tree node (no stale
//     state, huge write amplification)
//   - "anubis": shadow-table based recovery (one extra write per
//     memory write)
//   - "star":   the paper's scheme — counter-MAC synergization packs
//     each parent-counter modification into 10 spare MAC bits of the
//     child being written (zero extra writes), bitmap lines in ADR
//     locate stale metadata, a multi-layer index accelerates the
//     post-crash scan, and a cache-tree verifies the recovery
//
// # Quick start
//
//	sys, _ := nvmstar.New(nvmstar.Options{Scheme: "star"})
//	sys.Store(0, []byte("hello"))
//	sys.PersistRange(0, 5)
//	sys.Crash()                   // power failure
//	rep, _ := sys.Recover()       // restore + verify security metadata
//	data := sys.Load(0, 5)        // decrypts and verifies integrity
//
// The internal packages expose every subsystem (engine, tree geometry,
// bitmap tracker, cache-tree, attack injection, workloads, experiment
// harness) for research use; this package is the stable surface.
package nvmstar

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/workload"
)

// LineSize is the machine's transfer granularity (64 bytes).
const LineSize = memline.Size

// Schemes lists the available metadata persistence schemes. The first
// four are the paper's evaluation set; "phoenix" is the concurrent
// work discussed in Section II-E (Anubis for tree nodes + Osiris-style
// relaxed persistence for counter blocks), provided as an extension.
func Schemes() []string { return sim.Schemes() }

// Workloads lists the paper's seven benchmark workloads (accepted by
// System.RunBenchmark); WorkloadsAll adds the extensions.
func Workloads() []string { return workload.Names() }

// WorkloadsAll lists every registered benchmark workload.
func WorkloadsAll() []string { return workload.AllNames() }

// Options configures a System. The zero value selects the paper's
// configuration (Table I) scaled to a laptop-runnable data size.
type Options struct {
	// Scheme selects the persistence scheme; default "star".
	Scheme string
	// DataBytes is the protected user-data capacity; default 256 MiB.
	// The NVM store is sparse, so 16 << 30 (the paper's 16 GB) works.
	DataBytes uint64
	// MetaCacheBytes sizes the metadata cache; default 512 KiB.
	MetaCacheBytes int
	// Cores is the core/thread count; default 8.
	Cores int
	// ADRBitmapLines is STAR's ADR allocation (L1+L2); default 16,
	// split 14+2 as in the paper. The minimum is 2: the split always
	// reserves at least one L2 index line, so at least one more line
	// must remain for L1. Values below 2 are rejected by New.
	ADRBitmapLines int
	// RealCrypto selects AES/SHA-256 primitives instead of the fast
	// simulation PRF.
	RealCrypto bool
	// Seed makes runs reproducible; default 1.
	Seed uint64
}

// System is a simulated secure-NVM machine.
type System struct {
	m *sim.Machine
}

// New builds a system. An unknown Options.Scheme or an
// Options.ADRBitmapLines below the minimum of 2 returns a descriptive
// error.
func New(opts Options) (*System, error) {
	cfg := sim.Default()
	if opts.Scheme != "" {
		if !slices.Contains(Schemes(), opts.Scheme) {
			return nil, fmt.Errorf("nvmstar: unknown scheme %q (valid schemes: %s)",
				opts.Scheme, strings.Join(Schemes(), ", "))
		}
		cfg.Scheme = opts.Scheme
	}
	if opts.DataBytes != 0 {
		cfg.DataBytes = opts.DataBytes
	}
	if opts.MetaCacheBytes != 0 {
		cfg.MetaCache.SizeBytes = opts.MetaCacheBytes
	}
	if opts.Cores != 0 {
		cfg.Cores = opts.Cores
	}
	if opts.ADRBitmapLines != 0 {
		split, err := bitmap.SplitADR(opts.ADRBitmapLines)
		if err != nil {
			return nil, fmt.Errorf("nvmstar: ADRBitmapLines: %w", err)
		}
		cfg.Bitmap = split
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.RealCrypto {
		cfg.Suite = simcrypto.NewReal([16]byte{byte(cfg.Seed), 0x5a, 0x17, 0x99})
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	m.SetCore(0)
	return &System{m: m}, nil
}

// Machine exposes the underlying simulated machine.
func (s *System) Machine() *sim.Machine { return s.m }

// Engine exposes the secure-memory engine (geometry, device, stats).
func (s *System) Engine() *secmem.Engine { return s.m.Engine() }

// OnCore selects which core issues subsequent memory operations.
func (s *System) OnCore(core int) { s.m.SetCore(core) }

// Load reads n bytes at addr through the cache hierarchy; misses
// decrypt and integrity-verify against the SIT. A violation (tampered
// or replayed NVM content) is reported through Err.
func (s *System) Load(addr uint64, n int) []byte {
	buf := make([]byte, n)
	s.m.Load(addr, buf)
	return buf
}

// Store writes data at addr into the cache hierarchy.
func (s *System) Store(addr uint64, data []byte) { s.m.Store(addr, data) }

// PersistRange flushes the cache lines covering [addr, addr+size) to
// NVM (CLWB + SFENCE): the lines are encrypted, MAC'd and — under
// STAR — carry their parent-counter modifications in the spare MAC
// bits.
func (s *System) PersistRange(addr uint64, size int) {
	s.m.Persist(addr, size)
	s.m.Fence()
}

// Flush writes back every dirty CPU cache line (graceful shutdown of
// the volatile hierarchy; metadata may still be dirty in the
// controller).
func (s *System) Flush() error { return s.m.FlushCPUCaches() }

// Crash models a power failure: volatile state vanishes,
// battery-backed ADR state reaches NVM, on-chip registers survive.
func (s *System) Crash() { s.m.Crash() }

// Recover restores the stale security metadata using the active
// scheme and verifies the result (STAR: cache-tree root; Anubis:
// shadow-table root). It returns secmem.ErrRecoveryVerification when
// an attack is detected and secmem.ErrRecoveryUnsupported under "wb".
func (s *System) Recover() (*secmem.RecoveryReport, error) { return s.m.Recover() }

// RunBenchmark executes one of the paper's workloads (see
// internal/workload: array, btree, hash, queue, rbtree, tpcc, ycsb)
// for ops measured operations and returns the measured statistics.
func (s *System) RunBenchmark(workload string, ops int) (*sim.Results, error) {
	return s.RunBenchmarkCtx(context.Background(), workload, ops)
}

// RunBenchmarkCtx is RunBenchmark under a context: cancellation or
// timeout aborts the workload mid-run (setup, measured steps and
// verification all poll the context) and returns ctx.Err().
func (s *System) RunBenchmarkCtx(ctx context.Context, workload string, ops int) (*sim.Results, error) {
	return s.m.RunCtx(ctx, workload, ops)
}

// Err returns the first integrity violation encountered by Load/Store
// (they cannot return errors through the heap.Memory interface).
func (s *System) Err() error { return s.m.Err() }

// SaveImage serializes the system's non-volatile state — the NVM
// contents, the sideband MACs and the on-chip registers — so a future
// process can resume it. Call Crash first: a power failure is the
// moment at which exactly this state (and nothing volatile) survives.
//
// The restoring process must build its System with the SAME Options
// (in particular the same Seed and RealCrypto choice, which determine
// the keys), then call RestoreImage followed by Recover.
func (s *System) SaveImage(w io.Writer) error {
	return s.m.Engine().SaveNonVolatile(w)
}

// RestoreImage loads a SaveImage snapshot. The system is in the
// crashed state afterwards; call Recover to restore the security
// metadata before reading. RestoreImage reads and validates the whole
// image before it installs any of it: an image it refuses (truncated,
// saved under another scheme, from a system of another size, naming an
// address past the data space) returns an error and leaves the system
// as it was.
func (s *System) RestoreImage(r io.Reader) error {
	return s.m.Engine().RestoreNonVolatile(r)
}

// Audit sweeps the entire NVM image and reports every metadata block
// and data line inconsistent with the integrity tree. Under the
// "strict" scheme (nothing legitimately stale) a non-empty result
// localizes an attack exactly; under lazy schemes dirty-cached blocks
// legitimately shadow their stale NVM images and are excluded.
func (s *System) Audit() (metadata []secmem.Violation, data []uint64) {
	return s.m.Engine().AuditTree(), s.m.Engine().AuditData()
}
