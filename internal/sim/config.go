// Package sim assembles the full machine of the paper's Table I: eight
// 2 GHz cores with private L1/L2 and a shared L3, a memory controller
// housing the security-metadata cache and the active persistence
// scheme, and DDR-PCM main memory. It executes the benchmark workloads
// instruction-by-instruction at memory-access granularity, charging a
// timing model that makes IPC, write traffic, energy, ADR hit ratio
// and recovery time measurable per scheme.
package sim

import (
	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/nvm"
	"nvmstar/internal/simcrypto"
)

// Config describes one machine instance.
type Config struct {
	// Cores is the number of cores (and workload threads). Table I: 8.
	Cores int
	// DataBytes is the protected user-data capacity. The paper models
	// 16 GB; benchmark configurations use smaller spaces so runs stay
	// laptop-sized — the metadata-to-cache pressure is what matters.
	DataBytes uint64

	L1 cache.Config // per-core; Table I: 64 KB, 2-way
	L2 cache.Config // per-core; Table I: 512 KB, 8-way
	L3 cache.Config // shared; Table I: 4 MB, 8-way

	MetaCache cache.Config  // memory controller; Table I: 512 KB, 8-way
	Scheme    string        // "wb", "strict", "anubis" or "star"
	Bitmap    bitmap.Config // STAR's ADR allocation; default 14+2

	Suite  simcrypto.Suite // nil -> Fast suite
	Timing nvm.Timing      // zero -> paper defaults
	Energy nvm.Energy      // zero -> paper defaults
	// TrackWear enables per-line NVM write counters for endurance
	// analysis (the paper's PCM cells endure 10^7-10^9 writes).
	TrackWear bool

	FreqGHz    float64 // core frequency; Table I: 2 GHz
	L1LatNs    float64 // L1 hit latency
	L2LatNs    float64 // L2 hit latency
	L3LatNs    float64 // L3 hit latency
	MCLatNs    float64 // memory-controller processing per request
	WriteQueue int     // memory-controller write queue depth
	Banks      int     // PCM banks (line-interleaved); writes to
	// different banks overlap, so extra write traffic degrades
	// performance gradually rather than serializing everything

	Seed uint64 // workload PRNG seed

	// Telemetry enables the machine's telemetry.Registry: lazily read
	// series over the machine's layers (dirty-metadata fraction, cache
	// hit ratios, write amplification; see telemetry.go), which a
	// Sampler attached with Machine.Attach turns into timelines.
	// Disabled (the default) costs the hot paths nothing — nothing is
	// registered and the layers are never read.
	Telemetry bool
	// Observe enables the observatory, which answers why a scheme writes
	// what it writes and where its latency goes:
	//   - write-cause attribution: every NVM line write is tagged with
	//     its cause (data, counter, tree-node, mac, bitmap, recovery, ...)
	//     and accumulated per cause × per bank (the machine's Banks
	//     count), surfacing as Results.WriteBreakdown;
	//   - per-operation latency: every engine-level operation (data read,
	//     data write, persist, recovery) records its end-to-end simulated
	//     latency into a log-bucketed histogram per op kind, decomposed
	//     along the critical path into components (bank wait, metadata
	//     fetch by tree level, write-queue stalls by write cause, recovery
	//     phases), surfacing as Results.Latency.
	// Both subscribe to the machine's observation stream (observe.go),
	// where tools attach their own subscribers (Sampler, Tracer). A
	// sweep's experiments.Observatory aggregates both into the
	// starbench -observe report tables and the -latency-out document.
	// Disabled (the default) the hot paths pay one length check per
	// emission point — results and digests are bit-identical to builds
	// without the feature.
	Observe bool
}

// Default returns the paper's configuration scaled to a
// laptop-runnable data size (the full 16 GB address space is available
// by setting DataBytes = 16 << 30; the NVM store is sparse).
func Default() Config {
	return Config{
		Cores:      8,
		DataBytes:  256 << 20,
		L1:         cache.Config{SizeBytes: 64 << 10, Ways: 2},
		L2:         cache.Config{SizeBytes: 512 << 10, Ways: 8},
		L3:         cache.Config{SizeBytes: 4 << 20, Ways: 8},
		MetaCache:  cache.Config{SizeBytes: 512 << 10, Ways: 8},
		Scheme:     "star",
		Bitmap:     bitmap.DefaultConfig(),
		FreqGHz:    2,
		L1LatNs:    0.5, // 1 cycle
		L2LatNs:    2,   // 4 cycles
		L3LatNs:    15,  // 30 cycles
		MCLatNs:    5,
		WriteQueue: 64,
		Banks:      8,
		Seed:       1,
	}
}

// instruction-charge model: relative IPC is what the paper reports, so
// the constants only need to be identical across schemes.
const (
	instrPerMemOp   = 4  // address generation + access + dependent ALU work
	instrPerPersist = 2  // CLWB + bookkeeping
	instrPerFence   = 1  // SFENCE
	instrPerStep    = 30 // non-memory work per benchmark operation
	fenceLatNs      = 5  // ADR: a fence waits only for WPQ acceptance
)
