package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"nvmstar/internal/cache"
	"nvmstar/internal/experiments"
	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
	"nvmstar/internal/simcrypto"
)

// perLayer are the metrics of a traced run, named <module>.<metric>.
// The experiments metrics come from a runner sweep: the paper sweep
// itself on paper-sweep, the small fixed sweep of sweepPass elsewhere.
// The machine-layer metrics come from the traced pass of the workload's
// units, or of paper-sweep's probe unit. Counts and call totals are of
// that one pass; the *_ns metrics at the end are the fixed-iteration
// ladder. README.md maps each to the end-to-end metric it should move.
var perLayer = append([]metricDef{
	{"experiments.fig10_s", "s"},
	{"experiments.schemes_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.fig14a_s", "s"},
	{"experiments.fig14b_s", "s"},
	{"experiments.ablation_s", "s"},
	{"experiments.units", "count"},
	{"experiments.machines_built", "count"},
	{"experiments.machines_reused", "count"},
	{"experiments.worker_busy_frac", "fraction"},
	{"experiments.unit_ms_p50", "ms"},
	{"experiments.unit_ms_p90", "ms"},
	{"workload.setup_s", "s"},
	{"workload.self_s", "s"},
	{"workload.verify_s", "s"},
	{"sim.loads", "count"},
	{"sim.stores", "count"},
	{"sim.persists", "count"},
	{"sim.fences", "count"},
	{"sim.load_s", "s"},
	{"sim.store_s", "s"},
	{"sim.persist_s", "s"},
	{"sim.accesses_per_s", "1/s"},
	{"sim.new_machine_ms", "ms"},
	{"sim.reset_ms", "ms"},
	{"sim.fork_ms", "ms"},
	{"sim.crash_ms", "ms"},
	{"sim.host_ns_per_nvm_access", "ns"},
	{"cache.l1_hit_ratio", "fraction"},
	{"cache.meta_hit_ratio", "fraction"},
	{"cache.meta_evictions", "count"},
	{"cache.meta_dirty_frac", "fraction"},
	{"secmem.user_reads", "count"},
	{"secmem.user_writes", "count"},
	{"secmem.meta_nvm_reads", "count"},
	{"secmem.meta_nvm_writes", "count"},
	{"secmem.mac_computes", "count"},
	{"secmem.forced_flushes", "count"},
	{"secmem.recover_ms_p50", "ms"},
	{"secmem.stale_nodes", "count"},
	{"simcrypto.otp_calls", "count"},
	{"simcrypto.mac_calls", "count"},
	{"simcrypto.otp_s", "s"},
	{"simcrypto.mac_s", "s"},
	{"nvm.reads", "count"},
	{"nvm.writes", "count"},
	{"trace.overhead_frac", "fraction"},
	{"cache.lookup_ns", "ns"},
	{"cache.insert_ns", "ns"},
	{"nvm.write_ns", "ns"},
	{"nvm.read_ns", "ns"},
	{"simcrypto.fast_otp_ns", "ns"},
	{"simcrypto.fast_mac_ns", "ns"},
	{"simcrypto.real_otp_ns", "ns"},
	{"simcrypto.real_mac_ns", "ns"},
	{"sim.fork_ns", "ns"},
	{"sim.reset_ns", "ns"},
}, schemeLadder()...)

func schemeLadder() []metricDef {
	var defs []metricDef
	for _, op := range []string{"write_line_ns", "read_line_ns"} {
		for _, s := range schemes {
			defs = append(defs, metricDef{"secmem." + op + "." + s, "ns"})
		}
	}
	return defs
}

// layers accumulates a traced run's per-layer values: sums and direct
// values in v, per-unit samples (reported as their median) in samples.
// A nil layers records nothing.
type layers struct {
	v       map[string]float64
	samples map[string][]float64
	clock   time.Duration // see clockCost
}

func newLayers() *layers {
	return &layers{v: map[string]float64{}, samples: map[string][]float64{}, clock: clockCost()}
}

func (l *layers) add(name string, x float64) {
	if l != nil {
		l.v[name] += x
	}
}

func (l *layers) sample(name string, x float64) {
	if l != nil {
		l.samples[name] = append(l.samples[name], x)
	}
}

// unit records the machine layers of one traced unit.
func (l *layers) unit(m *sim.Machine, res *sim.Results, tm *memStats, suite *timedSuite, newMachine, setup, steps, verify time.Duration) {
	l.sample("sim.new_machine_ms", ms(newMachine))
	l.add("workload.setup_s", setup.Seconds())
	l.add("workload.verify_s", verify.Seconds())

	load, store, persist := tm.loads.seconds(l.clock), tm.stores.seconds(l.clock), tm.persists.seconds(l.clock)
	l.add("sim.loads", float64(tm.loads.calls.Load()))
	l.add("sim.stores", float64(tm.stores.calls.Load()))
	l.add("sim.persists", float64(tm.persists.calls.Load()))
	l.add("sim.fences", float64(tm.fences.calls.Load()))
	l.add("sim.load_s", load)
	l.add("sim.store_s", store)
	l.add("sim.persist_s", persist)
	l.add("workload.self_s", steps.Seconds()-load-store-persist)
	l.add("steps_s", steps.Seconds())

	// The registry's l2 and l3 hit ratios are not read: the exclusive
	// hierarchy moves lines down with Cache.Invalidate, which counts
	// neither hits nor misses, so both read 0 on every run.
	m.Telemetry().Each(func(name string, v float64) {
		if name == "l1.hit_ratio" {
			l.sample("cache.l1_hit_ratio", v)
		}
	})
	mc := m.Engine().MetaCache().Stats()
	l.add("meta_hits", float64(mc.Hits))
	l.add("meta_lookups", float64(mc.Hits+mc.Misses))
	l.add("cache.meta_evictions", float64(mc.Evictions))
	l.sample("cache.meta_dirty_frac", res.DirtyMetaFrac)

	e := res.Engine
	l.add("secmem.user_reads", float64(e.UserReads))
	l.add("secmem.user_writes", float64(e.UserWrites))
	l.add("secmem.meta_nvm_reads", float64(e.MetaNVMReads))
	l.add("secmem.meta_nvm_writes", float64(e.MetaNVMWrites))
	l.add("secmem.mac_computes", float64(e.MACComputes))
	l.add("secmem.forced_flushes", float64(e.ForcedFlushes))
	l.add("nvm.reads", float64(res.Dev.Reads))
	l.add("nvm.writes", float64(res.Dev.Writes))

	l.add("simcrypto.otp_calls", float64(suite.otp.calls.Load()))
	l.add("simcrypto.mac_calls", float64(suite.mac.calls.Load()))
	l.add("simcrypto.otp_s", suite.otp.seconds(l.clock))
	l.add("simcrypto.mac_s", suite.mac.seconds(l.clock))
}

// recovery records one fork, crash and (when rep is not nil) recovery.
func (l *layers) recovery(fork, crash, rec time.Duration, rep *secmem.RecoveryReport) {
	l.sample("sim.fork_ms", ms(fork))
	l.sample("sim.crash_ms", ms(crash))
	if rep != nil {
		l.sample("secmem.recover_ms_p50", ms(rec))
		l.add("secmem.stale_nodes", float64(rep.StaleNodes))
	}
}

// sweep records a runner's counters and its units' wall times, ns.
func (l *layers) sweep(s experiments.Stats, walls []float64) {
	l.v["experiments.units"] = float64(s.CellsDone)
	l.v["experiments.machines_built"] = float64(s.MachinesBuilt)
	l.v["experiments.machines_reused"] = float64(s.MachinesReused)
	var busy, all float64
	for _, w := range s.Workers {
		busy += float64(w.BusyNs)
		all += float64(w.BusyNs + w.IdleNs)
	}
	l.v["experiments.worker_busy_frac"] = busy / all
	for _, w := range walls {
		l.sample("experiments.unit_ms", w/1e6)
	}
}

// overhead records the traced pass's slowdown over the untraced pass
// of the same work, and the untraced simulated-access rate.
func (l *layers) overhead(plain, traced time.Duration) {
	accesses := l.v["sim.loads"] + l.v["sim.stores"] + l.v["sim.persists"] + l.v["sim.fences"]
	l.v["sim.accesses_per_s"] = accesses / plain.Seconds()
	l.v["trace.overhead_frac"] = 1 - plain.Seconds()/traced.Seconds()
}

// metrics derives the reported values; every perLayer metric must have
// been measured.
func (l *layers) metrics() (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range l.v {
		out[k] = v
	}
	for k, s := range l.samples {
		out[k] = median(s)
	}
	unitMs := append([]float64(nil), l.samples["experiments.unit_ms"]...)
	slices.Sort(unitMs)
	out["experiments.unit_ms_p50"] = quantile(unitMs, 0.5)
	out["experiments.unit_ms_p90"] = quantile(unitMs, 0.9)
	out["cache.meta_hit_ratio"] = l.v["meta_hits"] / l.v["meta_lookups"]
	out["sim.host_ns_per_nvm_access"] = l.v["steps_s"] * 1e9 / (l.v["nvm.reads"] + l.v["nvm.writes"])
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	return out, nil
}

// --- timing wrappers ------------------------------------------------------

// callStats counts calls exactly and times one in 64 of them: the clock
// read costs about 60 ns, as much as a fast-suite MAC. The sample is
// picked by a hash of the call number, so a workload's periodic call
// pattern (say, one expensive persist in every eight) cannot line up
// with it. It is safe for concurrent use.
type callStats struct {
	calls, timed atomic.Uint64
	spent        atomic.Int64 // ns in the timed calls
}

func (c *callStats) time(fn func()) {
	n := c.calls.Add(1)
	n ^= n >> 33
	n *= 0xff51afd7ed558ccd
	if (n^n>>33)&63 != 0 {
		fn()
		return
	}
	t := time.Now()
	fn()
	c.spent.Add(int64(time.Since(t)))
	c.timed.Add(1)
}

// seconds extrapolates the timed calls' host time to all calls, less
// clock, the time a timed empty call reads.
func (c *callStats) seconds(clock time.Duration) float64 {
	if k := c.timed.Load(); k > 0 {
		spent := time.Duration(c.spent.Load()) - time.Duration(k)*clock
		return spent.Seconds() * float64(c.calls.Load()) / float64(k)
	}
	return 0
}

// clockCost is the mean time a timed empty region reads: the part of
// the two clock reads that falls inside the timed interval.
func clockCost() time.Duration {
	const n = 1 << 16
	var total time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		total += time.Since(t)
	}
	return total / n
}

// timedMemory is the heap.Memory a traced unit's workload runs on: it
// forwards every call to the machine, counting each kind and timing a
// sample of loads, stores and persists into its current memStats.
type timedMemory struct {
	m *sim.Machine
	*memStats
}

type memStats struct{ loads, stores, persists, fences callStats }

func (t *timedMemory) Load(addr uint64, buf []byte) { t.loads.time(func() { t.m.Load(addr, buf) }) }

func (t *timedMemory) Store(addr uint64, data []byte) {
	t.stores.time(func() { t.m.Store(addr, data) })
}

func (t *timedMemory) Persist(addr uint64, size int) {
	t.persists.time(func() { t.m.Persist(addr, size) })
}

func (t *timedMemory) Fence() {
	t.fences.calls.Add(1)
	t.m.Fence()
}

// timedSuite wraps a crypto suite, counting every OTP and MAC and timing
// a sample of them. Forks of the machine share it.
type timedSuite struct {
	inner    simcrypto.Suite
	otp, mac callStats
}

func (s *timedSuite) OTP(lineAddr, counter uint64) (pad memline.Line) {
	s.otp.time(func() { pad = s.inner.OTP(lineAddr, counter) })
	return pad
}

func (s *timedSuite) MAC(msg []byte) (v uint64) {
	s.mac.time(func() { v = s.inner.MAC(msg) })
	return v
}

// --- ladder -----------------------------------------------------------------

// ladder measures each layer alone: host ns per call at fixed iteration
// counts, independent of the workload.
func (b *bench) ladder(parent *span) error {
	sp := b.tr.begin("ladder", parent, 0)
	defer sp.end()
	n := b.sz.ladderN
	perOp := func(name string, iters int, fn func(i int)) {
		runtime.GC()
		t := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		b.lay.v[name] = float64(time.Since(t)) / float64(iters)
	}
	var line memline.Line

	// Table I's L2: 512 KiB, 8-way, filled, then hit in address order;
	// inserts of new lines each evict one.
	c, err := cache.New(cache.Config{SizeBytes: 512 << 10, Ways: 8})
	if err != nil {
		return err
	}
	lines := c.Lines()
	for i := 0; i < lines; i++ {
		c.Insert(uint64(i)*memline.Size, line, false, nil)
	}
	perOp("cache.lookup_ns", n, func(i int) { c.Lookup(uint64(i%lines) * memline.Size) })
	perOp("cache.insert_ns", n, func(i int) { c.Insert(uint64(lines+i)*memline.Size, line, i&1 == 0, nil) })

	// A 64 MiB device, overwritten then read at scattered lines. The
	// untimed first writes take the page allocations out of the timing.
	dev, err := nvm.New(nvm.Config{CapacityBytes: 64 << 20})
	if err != nil {
		return err
	}
	scatter := func(i int, region uint64) uint64 {
		return uint64(i) * 7919 % (region / memline.Size) * memline.Size
	}
	for i := 0; i < n; i++ {
		dev.Write(scatter(i, 64<<20), line)
	}
	perOp("nvm.write_ns", n, func(i int) { dev.Write(scatter(i, 64<<20), line) })
	perOp("nvm.read_ns", n, func(i int) { dev.Read(scatter(i, 64<<20)) })

	// Both suites on a 64-byte message.
	msg := make([]byte, memline.Size)
	for _, s := range []struct {
		name  string
		suite simcrypto.Suite
		iters int
	}{{"fast", simcrypto.NewFast(1), n}, {"real", simcrypto.NewReal(realKey), n / 4}} {
		perOp("simcrypto."+s.name+"_otp_ns", s.iters, func(i int) { s.suite.OTP(uint64(i)*memline.Size, uint64(i)) })
		perOp("simcrypto."+s.name+"_mac_ns", s.iters, func(i int) {
			msg[0] = byte(i)
			s.suite.MAC(msg)
		})
	}

	// The engine's write then read path under each scheme, at scattered
	// lines already written once, on the engine of a fresh machine (so
	// the scheme is set up exactly as sim installs it).
	for _, scheme := range schemes {
		cfg := b.sz.machine
		cfg.Scheme, cfg.Seed = scheme, b.seed
		m, err := sim.NewMachine(cfg)
		if err != nil {
			return err
		}
		e := m.Engine()
		var lineErr error
		check := func(err error) {
			if err != nil && lineErr == nil {
				lineErr = err
			}
		}
		write := func(i int) { check(e.WriteLine(scatter(i, cfg.DataBytes), line)) }
		for i := 0; i < n/8; i++ {
			write(i)
		}
		perOp("secmem.write_line_ns."+scheme, n/8, write)
		perOp("secmem.read_line_ns."+scheme, n/8, func(i int) {
			_, err := e.ReadLine(scatter(i, cfg.DataBytes))
			check(err)
		})
		if lineErr != nil {
			return fmt.Errorf("ladder %s: %w", scheme, lineErr)
		}
	}

	// Fork and Reset of a star machine that has run queue steps.
	cfg := b.sz.machine
	cfg.Scheme, cfg.Seed = "star", b.seed
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return err
	}
	run := func() error {
		s, err := m.NewSession("queue")
		if err != nil {
			return err
		}
		return s.StepN(b.sz.ladderSteps)
	}
	if err := run(); err != nil {
		return err
	}
	perOp("sim.fork_ns", 16, func(int) { m.Fork() })
	var reset time.Duration
	const resets = 8
	for i := 0; i < resets; i++ {
		if err := run(); err != nil {
			return err
		}
		runtime.GC()
		t := time.Now()
		m.Reset(b.seed)
		reset += time.Since(t)
	}
	b.lay.v["sim.reset_ns"] = float64(reset) / resets
	return nil
}
