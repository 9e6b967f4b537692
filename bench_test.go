// Package nvmstar_test hosts the benchmark harness that regenerates
// every table and figure of the paper's evaluation (Section IV). Each
// benchmark drives the full simulated machine and reports the figure's
// quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints, per (workload, scheme) cell, exactly the numbers the paper
// plots: write traffic and its ratio to the WB baseline (Fig. 11),
// IPC ratio (Fig. 12), energy ratio (Fig. 13), bitmap-line traffic
// (Fig. 10), ADR hit ratios (Table II), the dirty-metadata fraction
// (Fig. 14a) and recovery times (Fig. 14b), plus the ablations called
// out in DESIGN.md. The starbench command renders the same data as
// aligned tables.
package nvmstar_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/cachetree"
	"nvmstar/internal/experiments"
	"nvmstar/internal/schemes/star"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
	"nvmstar/internal/simcrypto"
	"nvmstar/internal/workload"
)

// benchCfg is a machine sized so each benchmark iteration stays in the
// hundreds of milliseconds while keeping the paper's pressure regime
// (metadata working set >> metadata cache >> ADR coverage).
func benchCfg(scheme string) sim.Config {
	cfg := sim.Default()
	cfg.DataBytes = 64 << 20
	cfg.MetaCache = cache.Config{SizeBytes: 256 << 10, Ways: 8}
	cfg.L3 = cache.Config{SizeBytes: 1 << 20, Ways: 8}
	cfg.Scheme = scheme
	return cfg
}

// measured runs one session of `ops` measured steps and returns the
// results; the setup/load phase runs untimed.
func measured(b *testing.B, cfg sim.Config, name string, ops int) (*sim.Results, *sim.Machine) {
	b.Helper()
	b.StopTimer()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := m.NewSession(name)
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	res, err := m.Measure(name, func() error { return s.StepN(ops) })
	if err != nil {
		b.Fatal(err)
	}
	res.Ops = ops
	return res, m
}

// wbBaseline caches the WB run per workload so ratio metrics do not
// re-run the baseline for every scheme sub-benchmark.
var wbBaseline = map[string]*sim.Results{}

func baseline(b *testing.B, name string, ops int) *sim.Results {
	b.Helper()
	if r, ok := wbBaseline[name]; ok && r.Ops == ops {
		return r
	}
	r, _ := measured(b, benchCfg("wb"), name, ops)
	wbBaseline[name] = r
	return r
}

const benchOps = 4000

// BenchmarkFig10BitmapLineWrites regenerates Fig. 10: how many
// bitmap lines STAR writes to NVM compared with the WB baseline's
// ordinary writes (the paper reports WB writing ~461x more lines than
// STAR writes bitmap lines, with strong per-workload variation by
// locality).
func BenchmarkFig10BitmapLineWrites(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wb := baseline(b, name, benchOps)
				res, _ := measured(b, benchCfg("star"), name, benchOps)
				bmw := res.Bitmap.NVMWrites()
				b.ReportMetric(float64(bmw)/float64(res.Ops), "bitmapwrites/op")
				denom := float64(bmw)
				if denom == 0 {
					denom = 1
				}
				b.ReportMetric(float64(wb.Dev.Writes)/denom, "WBwrites/bitmapwrite")
			}
		})
	}
}

// BenchmarkFig11WriteTraffic regenerates Fig. 11: NVM write traffic of
// each scheme normalized to the WB baseline (paper: STAR ~1.08x,
// Anubis ~2x, strict persistence up to tree-height x).
func BenchmarkFig11WriteTraffic(b *testing.B) {
	for _, name := range workload.Names() {
		for _, scheme := range []string{"wb", "star", "anubis", "strict"} {
			b.Run(name+"/"+scheme, func(b *testing.B) {
				ops := benchOps
				if scheme == "strict" {
					ops = benchOps / 4
				}
				for i := 0; i < b.N; i++ {
					wb := baseline(b, name, benchOps)
					res, _ := measured(b, benchCfg(scheme), name, ops)
					perOp := float64(res.Dev.Writes) / float64(res.Ops)
					base := float64(wb.Dev.Writes) / float64(wb.Ops)
					b.ReportMetric(perOp, "writes/op")
					b.ReportMetric(perOp/base, "vsWB")
				}
			})
		}
	}
}

// BenchmarkFig12IPC regenerates Fig. 12: IPC normalized to WB
// (paper: STAR ~0.98, Anubis ~0.90; worst case hash).
func BenchmarkFig12IPC(b *testing.B) {
	for _, name := range workload.Names() {
		for _, scheme := range []string{"star", "anubis"} {
			b.Run(name+"/"+scheme, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					wb := baseline(b, name, benchOps)
					res, _ := measured(b, benchCfg(scheme), name, benchOps)
					b.ReportMetric(res.IPC, "IPC")
					b.ReportMetric(res.IPC/wb.IPC, "vsWB")
				}
			})
		}
	}
}

// BenchmarkFig13Energy regenerates Fig. 13: NVM access energy
// normalized to WB (paper: STAR +4%, Anubis +46%).
func BenchmarkFig13Energy(b *testing.B) {
	for _, name := range workload.Names() {
		for _, scheme := range []string{"star", "anubis"} {
			b.Run(name+"/"+scheme, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					wb := baseline(b, name, benchOps)
					res, _ := measured(b, benchCfg(scheme), name, benchOps)
					b.ReportMetric(res.EnergyPJ()/float64(res.Ops)/1000, "nJ/op")
					b.ReportMetric(res.EnergyPJ()/float64(res.Ops)/(wb.EnergyPJ()/float64(wb.Ops)), "vsWB")
				}
			})
		}
	}
}

// BenchmarkTable2ADRHitRatio regenerates Table II: bitmap-line hit
// ratio with 2/4/8/16/32 lines in ADR (paper: 32.85% to 82.19%,
// rising with diminishing returns).
func BenchmarkTable2ADRHitRatio(b *testing.B) {
	for _, lines := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sum float64
				for _, name := range workload.Names() {
					cfg := benchCfg("star")
					l2 := lines / 8
					if l2 == 0 {
						l2 = 1
					}
					cfg.Bitmap = bitmap.Config{ADRL1Lines: lines - l2, ADRL2Lines: l2}
					res, _ := measured(b, cfg, name, benchOps)
					sum += res.Bitmap.HitRatio()
				}
				b.ReportMetric(100*sum/float64(len(workload.Names())), "hit%")
			}
		})
	}
}

// BenchmarkFig14aDirtyRatio regenerates Fig. 14a: the fraction of the
// metadata cache that is dirty when the crash hits (paper: ~78%
// average).
func BenchmarkFig14aDirtyRatio(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _ := measured(b, benchCfg("star"), name, benchOps)
				b.ReportMetric(100*res.DirtyMetaFrac, "dirty%")
			}
		})
	}
}

// BenchmarkFig14bRecoveryTime regenerates Fig. 14b: modeled recovery
// time (100 ns per line) for STAR and Anubis across metadata cache
// sizes (paper at 4 MB: STAR 0.05 s, Anubis 0.02 s, ratio ~2.5x; both
// linear in the number of stale/tracked lines).
func BenchmarkFig14bRecoveryTime(b *testing.B) {
	for _, sizeKB := range []int{128, 256, 512, 1024} {
		for _, scheme := range []string{"star", "anubis"} {
			b.Run(fmt.Sprintf("meta=%dKiB/%s", sizeKB, scheme), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cfg := benchCfg(scheme)
					cfg.MetaCache = cache.Config{SizeBytes: sizeKB << 10, Ways: 8}
					m, err := sim.NewMachine(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := m.RunUnverified("hash", benchOps); err != nil {
						b.Fatal(err)
					}
					m.Crash()
					b.StartTimer()
					rep, err := m.Recover()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(rep.TimeSeconds()*1000, "recovery-ms")
					b.ReportMetric(float64(rep.StaleNodes), "stale-nodes")
				}
			})
		}
	}
}

// BenchmarkAblationIndex quantifies the multi-layer index
// (Section III-D): identical recovery with and without it; the flat
// scan reads every L1 bitmap line in the recovery area.
func BenchmarkAblationIndex(b *testing.B) {
	for _, flat := range []bool{false, true} {
		mode := "indexed"
		if flat {
			mode = "flat"
		}
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := sim.NewMachine(benchCfg("star"))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.RunUnverified("rbtree", benchOps); err != nil {
					b.Fatal(err)
				}
				m.Crash()
				s := m.Engine().Scheme().(*star.Scheme)
				b.StartTimer()
				var indexReads uint64
				var secs float64
				if flat {
					rep, err := s.RecoverFlatScan()
					if err != nil {
						b.Fatal(err)
					}
					indexReads, secs = rep.IndexReads, rep.TimeSeconds()
				} else {
					rep, err := s.Recover()
					if err != nil {
						b.Fatal(err)
					}
					indexReads, secs = rep.IndexReads, rep.TimeSeconds()
				}
				b.ReportMetric(float64(indexReads), "bitmap-reads")
				b.ReportMetric(secs*1000, "recovery-ms")
			}
		})
	}
}

// BenchmarkAblationSynergy quantifies counter-MAC synergization
// (Section III-B) against the paper's "intuitive scheme" (Fig. 6a),
// which persists the parent's modified counter as a second line with
// every write: its write traffic is derived exactly as
// actual + (data writes + metadata writes).
func BenchmarkAblationSynergy(b *testing.B) {
	for _, name := range []string{"array", "hash", "tpcc"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _ := measured(b, benchCfg("star"), name, benchOps)
				actual := float64(res.Dev.Writes) / float64(res.Ops)
				intuitive := actual + float64(res.Engine.DataNVMWrites+res.Engine.MetaNVMWrites)/float64(res.Ops)
				b.ReportMetric(actual, "star-writes/op")
				b.ReportMetric(intuitive, "intuitive-writes/op")
				b.ReportMetric(intuitive/actual, "saving")
			}
		})
	}
}

// BenchmarkAblationCacheTree compares the cache-tree's incremental
// branch update against recomputing the whole tree on every change
// (Section III-E's motivation: a naive merkle tree over dirty blocks
// reshuffles and recomputes globally).
func BenchmarkAblationCacheTree(b *testing.B) {
	suite := simcrypto.NewFast(5)
	const sets = 1024 // 512 KB / 8-way metadata cache
	entries := func(i int) []cachetree.SetEntry {
		return []cachetree.SetEntry{{Addr: uint64(i) * 64, MAC: uint64(i) * 977}}
	}
	b.Run("incremental", func(b *testing.B) {
		tr, err := cachetree.New(suite, sets)
		if err != nil {
			b.Fatal(err)
		}
		tr.Root()
		b.ResetTimer()
		before := tr.Stats().NodeHashes
		for i := 0; i < b.N; i++ {
			// Interior nodes are hashed when the root is read: read it
			// after every update so each one pays its branch.
			tr.UpdateSet(i%sets, entries(i))
			tr.Root()
		}
		b.ReportMetric(float64(tr.Stats().NodeHashes-before)/float64(b.N), "hashes/update")
	})
	b.Run("full-rebuild", func(b *testing.B) {
		tr, err := cachetree.New(suite, sets)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		before := tr.Stats().NodeHashes
		for i := 0; i < b.N; i++ {
			tr.UpdateSet(i%sets, entries(i))
			tr.RebuildAll()
		}
		b.ReportMetric(float64(tr.Stats().NodeHashes-before)/float64(b.N), "hashes/update")
	})
}

// Speedup floors the benchmarks below assert (`make bench-gate`).
const (
	runnerFloor        = 2.0 // speedup-vs-seq at parallel=4
	runnerFloorMinCPUs = 4   // fewer CPUs cannot speed up a CPU-bound sweep
	forkFloor          = 3.0 // speedup-vs-rerun at variants=8
)

// runnerMinIters is the fewest timed sweeps per width that
// BenchmarkRunnerMatrix reads a speedup from; one multi-second sample
// per width is too noisy to compare.
const runnerMinIters = 3

// BenchmarkRunnerMatrix measures the wall-clock of a full
// four-scheme x three-workload sweep through the parallel experiment
// runner. Units are seed-level and dispatched longest-expected-first,
// so on a multi-core machine the sweep scales close to linearly until
// the pool exceeds the units or the cores; per-cell results are
// bit-identical at every width. Each parallel=N sub-benchmark times
// N-worker sweeps after one untimed warm-up sweep. The speedup
// sub-benchmark reports `speedup-vs-seq`: after an untimed warm-up of
// each width, every iteration times one sequential and one 4-worker
// sweep back to back, alternating which runs first, so drift in the
// host's speed lands on both widths alike. The speedup is the
// sequential sweeps' summed wall over the 4-worker sweeps', read only
// from at least runnerMinIters iterations (`-benchtime 3x`); with
// fewer it is skipped with a log line. It fails below 2x on a machine
// with 4+ CPUs (`make bench-gate`); with fewer CPUs compute-bound
// speedup is physically impossible, so the floor is skipped with a log
// line. Every sweep builds its own runner, so each one simulates the
// whole sweep rather than reading the previous sweep's runs back from
// the run memo.
func BenchmarkRunnerMatrix(b *testing.B) {
	sweep := func(b *testing.B, par int) {
		r := experiments.NewRunner(
			experiments.WithOps(benchOps),
			experiments.WithWorkloads("array", "hash", "queue"),
			experiments.WithParallelism(par),
			experiments.WithConfig(func() sim.Config { return benchCfg("star") }),
		)
		if _, err := r.SchemeComparison(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			sweep(b, par)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(b, par)
			}
		})
	}
	b.Run("speedup", func(b *testing.B) {
		widths := [2]int{1, 4}
		for _, par := range widths {
			sweep(b, par)
		}
		b.ResetTimer()
		var wall [2]time.Duration
		for i := 0; i < b.N; i++ {
			for k := range widths {
				w := (i + k) % 2
				start := time.Now()
				sweep(b, widths[w])
				wall[w] += time.Since(start)
			}
		}
		if b.N < runnerMinIters {
			b.Logf("speedup-vs-seq not read from this pass: %d timed iteration(s), need %d (-benchtime %dx)", b.N, runnerMinIters, runnerMinIters)
			return
		}
		speedup := float64(wall[0]) / float64(wall[1])
		b.ReportMetric(speedup, "speedup-vs-seq")
		if cpus := runtime.NumCPU(); cpus < runnerFloorMinCPUs {
			b.Logf("speedup-vs-seq floor %.1fx skipped: NumCPU=%d < %d", runnerFloor, cpus, runnerFloorMinCPUs)
		} else if speedup < runnerFloor {
			b.Fatalf("speedup-vs-seq %.2fx at parallel=4 is below the %.1fx floor (NumCPU=%d)", speedup, runnerFloor, cpus)
		}
	})
}

// BenchmarkEngineWriteLine is a plain throughput benchmark of the
// secure-memory engine's hot path (one user-line write including
// counter bump, OTP encryption, MAC and metadata caching).
func BenchmarkEngineWriteLine(b *testing.B) {
	for _, scheme := range []string{"wb", "star", "anubis"} {
		b.Run(scheme, func(b *testing.B) {
			m, err := sim.NewMachine(benchCfg(scheme))
			if err != nil {
				b.Fatal(err)
			}
			e := m.Engine()
			var line [64]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i%500000) * 64
				line[0] = byte(i)
				if err := e.WriteLine(addr, line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineWriteLineObserveDisabled pins the disabled-path
// invariant the verify-observe gate greps for: with sim.Config.Observe
// off (the default), the write path must report 0 allocs/op — with no
// subscriber, every emission point of the observation stream costs
// one length check.
func BenchmarkEngineWriteLineObserveDisabled(b *testing.B) {
	benchEngineWriteLineObserved(b, false)
}

// BenchmarkEngineWriteLineObserveEnabled is the enabled side of the same
// gate: with the observatory subscribed, the write path still reports
// 0 allocs/op — events go to the subscribers by value.
func BenchmarkEngineWriteLineObserveEnabled(b *testing.B) {
	benchEngineWriteLineObserved(b, true)
}

func benchEngineWriteLineObserved(b *testing.B, observe bool) {
	cfg := benchCfg("star")
	cfg.Observe = observe
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if enabled := m.LatencySnapshot() != nil; enabled != observe {
		b.Fatalf("observatory enabled = %v, want %v", enabled, observe)
	}
	e := m.Engine()
	var line [64]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%500000) * 64
		line[0] = byte(i)
		if err := e.WriteLine(addr, line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealSuiteMAC pins the real suite's keyed-MAC hot path: a
// fresh SHA-256 per call over the 32-byte MAC key and the message,
// with zero per-call allocations. The suite must match an independent
// SHA-256(macKey || msg) reference.
func BenchmarkRealSuiteMAC(b *testing.B) {
	key := [16]byte{0x57, 0xa2, 0x0b}
	suite := simcrypto.NewReal(key)
	// A SIT-node-sized message: eight counters plus address and MAC
	// fields, the shape the engine MACs on every metadata update.
	msg := make([]byte, 80)
	for i := range msg {
		msg[i] = byte(i * 131)
	}
	macKey := sha256.Sum256(append([]byte("nvmstar-mac"), key[:]...))
	ref := sha256.Sum256(append(macKey[:], msg...))
	if suite.MAC(msg) != binary.LittleEndian.Uint64(ref[:8]) {
		b.Fatal("real-suite MAC diverges from the SHA-256 reference")
	}
	var sink uint64
	b.Run("suite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink ^= suite.MAC(msg)
		}
	})
	macBenchSink = sink
}

// macBenchSink keeps the MAC benchmark's work observable to the
// compiler.
var macBenchSink uint64

// BenchmarkStarRecovery measures the wall-clock of STAR's post-crash
// recovery under the real AES-CTR/SHA-256 crypto suite: the serial
// bottom-up restore of thousands of stale metadata nodes, located
// through the multi-layer index, followed by the cache-tree rebuild.
func BenchmarkStarRecovery(b *testing.B) {
	const (
		recDataBytes = 64 << 20
		recWrites    = 24000
	)
	var rep *secmem.RecoveryReport
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := secmem.New(secmem.Config{
			DataBytes: recDataBytes,
			MetaCache: cache.Config{SizeBytes: 256 << 10, Ways: 8},
			Suite:     simcrypto.NewReal([16]byte{0x57, 0xa2, 0x0b}),
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := star.New(e, bitmap.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		e.SetScheme(s)
		rng := uint64(2026)
		var line [64]byte
		for w := 0; w < recWrites; w++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			addr := (rng % (recDataBytes / 64)) * 64
			line[0], line[1] = byte(rng), byte(rng>>8)
			if err := e.WriteLine(addr, line); err != nil {
				b.Fatal(err)
			}
		}
		e.Crash()
		b.StartTimer()
		r, err := e.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Verified {
			b.Fatal("recovery failed verification")
		}
		rep = r
	}
	b.ReportMetric(float64(rep.StaleNodes), "stale-nodes")
}

// BenchmarkForkRecovery measures the run-once/fork-many decomposition
// of crash experiments: K recovery variants of one base run cost one
// workload run plus K copy-on-write forks (Machine.Fork, O(occupied
// pages)) crashed and recovered independently, versus the monolithic
// K x (run + crash + recover). The timed path is the fork
// decomposition; the rerun baseline is measured off the timer and
// reported as `speedup-vs-rerun` = rerun / fork wall time. The
// benchmark fails if variants=8 falls below 3x (`make bench-gate`).
// Unlike the pool-scaling floor, this win is algorithmic — it removes
// work instead of overlapping it — so the floor binds on single-CPU
// machines too.
func BenchmarkForkRecovery(b *testing.B) {
	const forkOps = 4000
	cfg := benchCfg("star")
	for _, variants := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("variants=%d", variants), func(b *testing.B) {
			m, err := sim.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			recoverOrDie := func(f *sim.Machine) {
				rep, err := f.Recover()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Verified {
					b.Fatal("recovery failed verification")
				}
			}
			var rerunNs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Timed: the fork decomposition. The base machine is never
				// crashed — exactly how the experiment runner's pool uses it.
				m.Reset(cfg.Seed)
				if _, err := m.RunUnverified("hash", forkOps); err != nil {
					b.Fatal(err)
				}
				for v := 0; v < variants; v++ {
					f := m.Fork()
					f.Crash()
					recoverOrDie(f)
				}
				// Untimed baseline: the monolithic path, one full run per
				// variant.
				b.StopTimer()
				start := time.Now()
				for v := 0; v < variants; v++ {
					m.Reset(cfg.Seed)
					if _, err := m.RunUnverified("hash", forkOps); err != nil {
						b.Fatal(err)
					}
					m.Crash()
					recoverOrDie(m)
				}
				rerunNs += time.Since(start).Nanoseconds()
				b.StartTimer()
			}
			forkNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if forkNs > 0 {
				speedup := float64(rerunNs) / float64(b.N) / forkNs
				b.ReportMetric(speedup, "speedup-vs-rerun")
				if variants == 8 && speedup < forkFloor {
					b.Fatalf("speedup-vs-rerun %.2fx at variants=8 is below the %.1fx floor", speedup, forkFloor)
				}
			}
		})
	}
}
