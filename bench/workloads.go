package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"nvmstar/internal/experiments"
	"nvmstar/internal/heap"
	"nvmstar/internal/provenance"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
	"nvmstar/internal/simcrypto"
)

// sizes fixes how much work each workload does. "full" is the
// benchmark; "tiny" is the smoke test's size and has no references.
type sizes struct {
	machine        sim.Config // the machine of every workload, the sweep included
	sweepOps       int
	sweepWorkloads []string // nil: the paper's seven
	probe          string   // paper-sweep's single-machine unit (under star) in traced runs and set-ups
	miniOps        int      // ops of the experiments-layer sweep of traced single-machine runs
	persistOps     int
	cacheOps       int
	crashOps       int
	crashPoints    int
	setups         int // set-ups per paper-sweep run
	minPasses      int // passes per single-machine run, whatever -seconds says
	ladderN        int // iterations of the cheapest per-layer ladder steps
	ladderSteps    int // workload steps before the ladder forks and resets a machine
}

// evalConfig is starbench's evaluation machine (-data-mb 64 -meta-kb
// 256): Table I with 64 MiB of protected data and a 256 KiB metadata
// cache.
func evalConfig() sim.Config {
	cfg := sim.Default()
	cfg.DataBytes = 64 << 20
	cfg.MetaCache.SizeBytes = 256 << 10
	return cfg
}

// smallConfig is a one-core machine whose workload set-up is an eighth
// of the evaluation machine's.
func smallConfig() sim.Config {
	cfg := sim.Default()
	cfg.Cores = 1
	cfg.DataBytes = 16 << 20
	cfg.MetaCache.SizeBytes = 64 << 10
	return cfg
}

var sizeTable = map[string]sizes{
	"full": {
		machine: evalConfig(), sweepOps: 20000, probe: "hash", miniOps: 300,
		persistOps: 20000, cacheOps: 80000, crashOps: 10000, crashPoints: 32,
		setups: 3, minPasses: 3, ladderN: 200000, ladderSteps: 2000,
	},
	"tiny": {
		machine: smallConfig(), sweepOps: 200, sweepWorkloads: []string{"queue", "tpcc"}, probe: "tpcc", miniOps: 100,
		persistOps: 300, cacheOps: 500, crashOps: 300, crashPoints: 4,
		setups: 2, minPasses: 1, ladderN: 2000, ladderSteps: 100,
	},
}

// miniWorkloads are the experiments-layer sweep's workloads, on
// smallConfig machines: the two with the cheapest set-up.
var miniWorkloads = []string{"queue", "tpcc"}

// schemes are the five persistence schemes sim.NewMachine installs.
var schemes = []string{"wb", "strict", "anubis", "star", "phoenix"}

// realKey keys the real AES/SHA-256 suite. It is fixed so the seed
// reaches only sim.Config.Seed.
var realKey = [16]byte{'n', 'v', 'm', 's', 't', 'a', 'r', '-', 'b', 'e', 'n', 'c', 'h'}

//go:embed reference.json
var referenceJSON []byte

// unit is one workload run on a fresh machine: set-up, measured steps,
// Verify. A unit with crash points forks, crashes and recovers the
// machine at each of them on its way through the steps.
type unit struct {
	workload, scheme string
	ops              int
	points           int
	real             bool // the real AES/SHA-256 suite, not the fast one
	cfg              sim.Config
}

func (u unit) key() string { return u.workload + "/" + u.scheme }

func workloadUnits(name string, sz sizes) []unit {
	var us []unit
	switch name {
	case "persist-heavy":
		for _, w := range []string{"tpcc", "queue"} {
			for _, s := range schemes {
				us = append(us, unit{workload: w, scheme: s, ops: sz.persistOps, cfg: sz.machine})
			}
		}
	case "cache-resident":
		us = append(us, unit{workload: "skiplist", scheme: "star", ops: sz.cacheOps, cfg: sz.machine})
	case "crash-recover":
		for _, w := range []string{"hash", "tpcc"} {
			for _, s := range []string{"star", "anubis"} {
				us = append(us, unit{workload: w, scheme: s, ops: sz.crashOps, points: sz.crashPoints, real: true, cfg: sz.machine})
			}
		}
	}
	return us
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	size     string
	sz       sizes
	budget   time.Duration
	traced   bool
	workers  int
	ref      map[string]string // unit → digest; nil when the seed has none
	log      io.Writer

	tr   *tracer // nil when untraced
	root *span
	lay  *layers // nil when untraced

	// End-to-end samples, one per pass (set-ups: one per set-up on
	// paper-sweep, one per pass elsewhere), and every operation time of
	// the run, ns.
	passNs, setupNs, allocB, heapB, ops []float64
	passSetup                           time.Duration // set-up time of the current pass so far
	passHeap                            uint64        // largest live heap of the current pass so far
	instr                               float64       // simulated instructions of the measured phases
	measured                            time.Duration // host time of the measured phases

	digests   map[string]string
	checks    []digestCheck
	attempted int
	failed    int
	errs      []string
	units     int
}

func newBench(workload string, seed uint64, size string, sz sizes, budget time.Duration, traced bool, log io.Writer) (*bench, error) {
	b := &bench{
		workload: workload, seed: seed, size: size, sz: sz, budget: budget, traced: traced,
		workers: min(runtime.NumCPU(), 4), log: log, digests: map[string]string{},
	}
	if size == "full" {
		var refs map[string]map[string]map[string]string
		if err := json.Unmarshal(referenceJSON, &refs); err != nil {
			return nil, fmt.Errorf("reference.json: %w", err)
		}
		b.ref = refs[workload][strconv.FormatUint(seed, 10)]
	}
	if traced {
		b.tr = newTracer()
		b.lay = newLayers()
	}
	return b, nil
}

// run measures the workload and assembles its result.
func (b *bench) run() (*result, error) {
	b.root = b.tr.begin("run "+b.workload, nil, 0)
	var err error
	switch {
	case b.workload == "paper-sweep" && b.traced:
		err = b.tracedSweep()
	case b.workload == "paper-sweep":
		err = b.paperSweep()
	case b.traced:
		err = b.tracedMachines(workloadUnits(b.workload, b.sz))
	default:
		err = b.machines(workloadUnits(b.workload, b.sz))
	}
	if err == nil && b.traced {
		err = b.ladder(b.root)
	}
	b.root.end()
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: b.workload, Seed: b.seed, Size: b.size, Traced: b.traced,
		Passes: len(b.passNs), PassSecs: scale(b.passNs, 1e-9), Attempted: b.attempted, Failed: b.failed,
		Correct: b.failed == 0 && b.attempted > 0, Digests: b.checks, Errors: b.errs,
		Metrics: map[string]metric{},
	}
	var values map[string]float64
	if b.traced {
		res.order = perLayer
		values, err = b.lay.metrics()
		if err != nil {
			return nil, err
		}
	} else {
		res.order = endToEnd
		slices.Sort(b.ops)
		values = map[string]float64{
			"sweep_s":      median(b.passNs) / 1e9,
			"setup_s":      median(b.setupNs) / 1e9,
			"instr_per_s":  b.instr / b.measured.Seconds(),
			"op_us_p50":    quantile(b.ops, 0.5) / 1e3,
			"op_us_p90":    quantile(b.ops, 0.9) / 1e3,
			"alloc_mb":     median(b.allocB) / 1e6,
			"live_heap_mb": median(b.heapB) / 1e6,
		}
	}
	for _, d := range res.order {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// account records one attempted unit: a unit fails on an error or when
// its digest differs from the reference or from the run's earlier
// passes. An empty digest is not checked.
func (b *bench) account(key, digest string, err error) {
	b.attempted++
	if err == nil && digest != "" {
		err = b.checkDigest(key, digest)
	}
	if err != nil {
		b.failed++
		msg := fmt.Sprintf("%s: %v", key, err)
		b.errs = append(b.errs, msg)
		fmt.Fprintf(b.log, "bench: %s: FAILED %s\n", b.workload, msg)
	}
}

func (b *bench) checkDigest(key, d string) error {
	if first, ok := b.digests[key]; ok {
		if first != d {
			return fmt.Errorf("digest %.16s differs from the run's first %.16s", d, first)
		}
		return nil
	}
	b.digests[key] = d
	c := digestCheck{Unit: key, Digest: d, Status: "unchecked"}
	var err error
	if b.ref != nil {
		switch want, ok := b.ref[key]; {
		case !ok:
			c.Status, err = "missing", errors.New("no reference digest for this unit")
		case want != d:
			c.Status, err = "mismatch", fmt.Errorf("digest %.16s, reference %.16s", d, want)
		default:
			c.Status = "ok"
		}
	}
	b.checks = append(b.checks, c)
	return err
}

// timeBoxed runs passes until the next one would overrun the time
// budget, and at least minPasses of them, recording each pass's wall
// time and allocation. Room for a pass's opsPerPass operation times is
// made before the pass, so that it allocates nothing for them.
func (b *bench) timeBoxed(minPasses, opsPerPass int, pass func(*span)) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < minPasses || time.Since(start)+last <= b.budget; n++ {
		b.passSetup, b.passHeap = 0, 0
		b.ops = slices.Grow(b.ops, max(opsPerPass, len(b.ops)))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		sp := b.tr.begin("pass", b.root, 0)
		t := time.Now()
		pass(sp)
		last = time.Since(t)
		sp.end()
		runtime.ReadMemStats(&ms)
		b.passNs = append(b.passNs, float64(last))
		b.allocB = append(b.allocB, float64(ms.TotalAlloc-alloc))
		if b.passSetup > 0 {
			b.setupNs = append(b.setupNs, float64(b.passSetup))
		}
		if b.passHeap > 0 {
			b.heapB = append(b.heapB, float64(b.passHeap))
		}
	}
}

// machines is an untraced single-machine run: time-boxed passes over
// the workload's units.
func (b *bench) machines(units []unit) error {
	ops := 0
	for _, u := range units {
		if u.points > 0 {
			ops += u.points
		} else {
			ops += u.ops
		}
	}
	b.timeBoxed(b.sz.minPasses, ops, func(sp *span) { b.unitPass(units, false, sp) })
	return nil
}

func (b *bench) unitPass(units []unit, traced bool, parent *span) {
	for _, u := range units {
		d, err := b.runUnit(u, traced, parent)
		b.account(u.key(), d, err)
	}
}

// tracedMachines is a traced single-machine run: a traced pass between
// two untraced ones, then the experiments-layer sweep. The traced
// digests must equal the untraced ones, which shows the wrappers change
// no simulated output. The first pass warms the process up; the tracing
// overhead is measured against the second.
func (b *bench) tracedMachines(units []unit) error {
	pass := func(name string, traced bool) time.Duration {
		sp := b.tr.begin(name, b.root, 0)
		defer sp.end()
		start := b.measured
		b.unitPass(units, traced, sp)
		return b.measured - start
	}
	pass("pass untraced", false)
	traced := pass("pass traced", true)
	b.lay.overhead(pass("pass untraced", false), traced)
	return b.sweepPass(b.root, &sweepSpec{cfg: smallConfig(), ops: b.sz.miniOps, workloads: miniWorkloads})
}

// runUnit runs one unit and returns the digest of its results (and,
// with crash points, of its recovery reports). Traced, the machine runs
// with the timing wrappers and telemetry on and the unit ends with a
// fork, crash, recovery and reset of its machine.
func (b *bench) runUnit(u unit, traced bool, parent *span) (string, error) {
	b.units++
	id := b.units
	sp := b.tr.begin(u.key(), parent, id)
	defer sp.end()

	cfg := u.cfg
	cfg.Scheme, cfg.Seed = u.scheme, b.seed
	if u.real {
		cfg.Suite = simcrypto.NewReal(realKey)
	}
	var suite *timedSuite
	if traced {
		if cfg.Suite == nil {
			// The suite sim.NewMachine derives when Suite is nil.
			cfg.Suite = simcrypto.NewFast(0x57a7 + b.seed)
		}
		suite = &timedSuite{inner: cfg.Suite}
		cfg.Suite = suite
		cfg.Telemetry = true
	}

	runtime.GC()
	ssp := b.tr.begin("setup", sp, id)
	t0 := time.Now()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	var mem heap.Memory = m
	var tm *timedMemory
	if traced {
		tm = &timedMemory{m: m, memStats: &memStats{}}
		mem = tm
	}
	s, err := m.NewSessionOn(u.workload, mem)
	if err != nil {
		return "", err
	}
	t2 := time.Now()
	ssp.end()
	b.passSetup += t2.Sub(t0)

	runtime.GC()
	measured := b.measured
	var reports []*secmem.RecoveryReport
	stsp := b.tr.begin("steps", sp, id)
	if tm != nil {
		tm.memStats = &memStats{} // count the measured phase only
	}
	res, err := m.Measure(u.workload, func() error {
		if u.points == 0 {
			return b.timeSteps(s, u.ops)
		}
		var err error
		reports, err = b.crashSteps(m, s, u, traced, stsp, id)
		return err
	})
	stsp.end()
	if err != nil {
		return "", err
	}
	var stepMem *memStats
	if tm != nil {
		stepMem, tm.memStats = tm.memStats, &memStats{}
	}
	res.Ops = u.ops
	b.instr += float64(res.Instructions)
	steps := b.measured - measured

	vsp := b.tr.begin("verify", sp, id)
	t3 := time.Now()
	err = s.Verify()
	verify := time.Since(t3)
	vsp.end()
	if err != nil {
		return "", err
	}

	var d string
	if u.points == 0 {
		d, err = provenance.Digest(res)
	} else {
		d, err = provenance.Digest(struct {
			Results    *sim.Results
			Recoveries []*secmem.RecoveryReport
		}{res, reports})
	}
	if err != nil {
		return "", err
	}

	// The live heap less the run's own operation-time buffer, which
	// grows with the number of passes.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.passHeap = max(b.passHeap, ms.HeapAlloc-uint64(cap(b.ops))*8)
	runtime.KeepAlive(s)

	if traced {
		b.lay.unit(m, res, stepMem, suite, t1.Sub(t0), t2.Sub(t1), steps, verify)
		if err := b.lifecycle(m, u.points == 0, sp, id); err != nil {
			return "", err
		}
	}
	return d, nil
}

// timeSteps runs n workload steps, timing each one.
func (b *bench) timeSteps(s *sim.Session, n int) error {
	start := time.Now()
	prev := start
	for i := 0; i < n; i++ {
		if err := s.StepN(1); err != nil {
			return err
		}
		now := time.Now()
		b.ops = append(b.ops, float64(now.Sub(prev)))
		prev = now
	}
	b.measured += prev.Sub(start)
	return nil
}

// crashSteps runs the unit's steps in u.points equal segments. After
// each segment it forks the machine, crashes the fork and recovers it;
// the recovery must verify. Each fork-crash-recover variant is timed
// as one operation and attempted as one unit.
func (b *bench) crashSteps(m *sim.Machine, s *sim.Session, u unit, traced bool, parent *span, id int) ([]*secmem.RecoveryReport, error) {
	var reports []*secmem.RecoveryReport
	done := 0
	for k := 1; k <= u.points; k++ {
		point := u.ops * k / u.points
		t := time.Now()
		if err := s.StepN(point - done); err != nil {
			return nil, err
		}
		b.measured += time.Since(t)
		done = point

		runtime.GC()
		fork, crash, rec, rep, err := b.forkCrashRecover(m, parent, id)
		b.ops = append(b.ops, float64(fork+crash+rec))
		if err == nil && !rep.Verified {
			err = errors.New("recovery not verified")
		}
		if traced && err == nil {
			b.lay.recovery(fork, crash, rec, rep)
		}
		b.account(fmt.Sprintf("%s/crash@%d", u.key(), point), "", err)
		if err == nil {
			reports = append(reports, rep)
		}
	}
	return reports, nil
}

// lifecycle forks the traced unit's machine, crashes and recovers the
// fork (when the unit has no crash points of its own and the scheme
// can recover), then resets the machine, timing each step.
func (b *bench) lifecycle(m *sim.Machine, recoverFork bool, parent *span, id int) error {
	if recoverFork {
		fork, crash, rec, rep, err := b.forkCrashRecover(m, parent, id)
		switch {
		case errors.Is(err, secmem.ErrRecoveryUnsupported):
			b.lay.recovery(fork, crash, 0, nil)
		case err != nil:
			return fmt.Errorf("recovering a fork: %w", err)
		case !rep.Verified:
			return errors.New("recovering a fork: not verified")
		default:
			b.lay.recovery(fork, crash, rec, rep)
		}
	}
	rsp := b.tr.begin("reset", parent, id)
	t := time.Now()
	m.Reset(b.seed)
	b.lay.sample("sim.reset_ms", ms(time.Since(t)))
	rsp.end()
	return nil
}

// forkCrashRecover forks m, crashes the fork and recovers it, timing
// each step.
func (b *bench) forkCrashRecover(m *sim.Machine, parent *span, id int) (fork, crash, rec time.Duration, rep *secmem.RecoveryReport, err error) {
	t0 := time.Now()
	f := m.Fork()
	t1 := time.Now()
	f.Crash()
	t2 := time.Now()
	rep, err = f.Recover()
	t3 := time.Now()
	b.tr.complete("fork", parent, id, t0, t1.Sub(t0))
	b.tr.complete("crash", parent, id, t1, t2.Sub(t1))
	b.tr.complete("recover", parent, id, t2, t3.Sub(t2))
	return t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), rep, err
}

// --- paper-sweep ------------------------------------------------------------

// paperSweep is an untraced paper-sweep run: the set-ups first, then
// full sweeps (at least one) within the time budget.
func (b *bench) paperSweep() error {
	for i := 0; i < b.sz.setups; i++ {
		if err := b.sweepSetup(); err != nil {
			return err
		}
	}
	var err error
	b.timeBoxed(1, 256, func(sp *span) {
		if e := b.sweepPass(sp, b.paperSpec()); e != nil && err == nil {
			err = e
		}
	})
	return err
}

func (b *bench) paperSpec() *sweepSpec {
	return &sweepSpec{cfg: b.sz.machine, ops: b.sz.sweepOps, workloads: b.sz.sweepWorkloads, checked: true}
}

// sweepSetup times one set-up of the sweep machine with the probe
// workload loaded, and takes its live heap.
func (b *bench) sweepSetup() error {
	cfg := b.sz.machine
	cfg.Scheme, cfg.Seed = "star", b.seed
	runtime.GC()
	t := time.Now()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return err
	}
	s, err := m.NewSession(b.sz.probe)
	if err != nil {
		return err
	}
	b.setupNs = append(b.setupNs, float64(time.Since(t)))
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	b.heapB = append(b.heapB, float64(st.HeapAlloc))
	runtime.KeepAlive(s)
	return nil
}

// tracedSweep is a traced paper-sweep run: one traced sweep, then the
// probe unit traced between two untraced runs of it, as in
// tracedMachines. Every probe digest must equal the sweep's digest of
// the same cell.
func (b *bench) tracedSweep() error {
	spec := b.paperSpec()
	if err := b.sweepPass(b.root, spec); err != nil {
		return err
	}
	u := unit{workload: b.sz.probe, scheme: "star", ops: b.sz.sweepOps, cfg: b.sz.machine}
	probe := func(traced bool) time.Duration {
		start := b.measured
		d, err := b.runUnit(u, traced, b.root)
		if err == nil && d != spec.cellDigest {
			err = fmt.Errorf("digest %.16s differs from the sweep's fig10 cell %.16s", d, spec.cellDigest)
		}
		b.account(fmt.Sprintf("probe %s traced=%t", u.key(), traced), "", err)
		return b.measured - start
	}
	probe(false)
	traced := probe(true)
	b.lay.overhead(probe(false), traced)
	return nil
}

// sweepSpec is one experiments.Runner sweep: the full paper sweep
// (checked against the reference) or the experiments-layer probe of
// traced single-machine runs.
type sweepSpec struct {
	cfg        sim.Config
	ops        int
	workloads  []string
	checked    bool
	cellDigest string // set by sweepPass: the fig10 probe/star cell's digest
}

// sweepPass runs the six figure sweeps of "starbench -exp all" on one
// runner. Every runner unit is attempted as a unit; the sweep's sealed
// manifest digest is checked when spec.checked.
func (b *bench) sweepPass(parent *span, spec *sweepSpec) error {
	sweep := b.tr.begin("sweep", parent, 0)
	defer sweep.end()
	coll := provenance.NewCollector()
	var (
		mu     sync.Mutex
		instr  float64
		walls  []float64
		failed []experiments.Progress
		fig    *span
	)
	opts := []experiments.Option{
		experiments.WithOps(spec.ops),
		experiments.WithParallelism(b.workers),
		experiments.WithConfig(func() sim.Config {
			cfg := spec.cfg
			cfg.Seed = b.seed
			return cfg
		}),
		experiments.WithCollector(coll),
		experiments.WithProgress(func(p experiments.Progress) {
			end := time.Now()
			mu.Lock()
			defer mu.Unlock()
			walls = append(walls, float64(p.CellWall))
			if p.Err != nil {
				failed = append(failed, p)
			}
			b.units++
			b.tr.complete(cellName(p.Cell), fig, b.units, end.Add(-p.CellWall), p.CellWall)
		}),
		experiments.WithResultObserver(func(_ experiments.Cell, r *sim.Results) {
			mu.Lock()
			instr += float64(r.Instructions)
			mu.Unlock()
		}),
	}
	if spec.workloads != nil {
		opts = append(opts, experiments.WithWorkloads(spec.workloads...))
	}
	r := experiments.NewRunner(opts...)
	ctx := context.Background()
	figures := []struct {
		name string
		run  func() error
	}{
		{"fig10", func() error { _, err := r.Fig10(ctx); return err }},
		{"schemes", func() error { _, err := r.SchemeComparison(ctx, nil); return err }},
		{"table2", func() error { _, err := r.Table2(ctx, nil); return err }},
		{"fig14a", func() error { _, err := r.Fig14a(ctx); return err }},
		{"fig14b", func() error { _, err := r.Fig14b(ctx, nil); return err }},
		{"ablation", func() error { _, err := r.AblationIndex(ctx); return err }},
	}
	var sweepErr error
	start := time.Now()
	for _, f := range figures {
		sp := b.tr.begin(f.name, sweep, 0)
		mu.Lock()
		fig = sp
		mu.Unlock()
		t := time.Now()
		err := f.run()
		b.lay.add("experiments."+f.name+"_s", time.Since(t).Seconds())
		sp.end()
		if err != nil && sweepErr == nil {
			sweepErr = fmt.Errorf("%s: %w", f.name, err)
		}
	}
	wall := time.Since(start)

	// The runner's reporter goroutine has finished: every figure call
	// returned after its progress callbacks ran.
	b.ops = append(b.ops, walls...)
	b.attempted += len(walls) - len(failed)
	for _, p := range failed {
		b.account(cellName(p.Cell), "", p.Err)
	}
	if b.lay != nil {
		b.lay.sweep(r.Snapshot(), walls)
	}
	if !spec.checked {
		return nil
	}
	b.measured += wall
	b.instr += instr
	man, err := r.BuildManifest("bench")
	if err != nil {
		return err
	}
	b.account("sweep", man.Digest, sweepErr)
	for _, c := range coll.Cells() {
		if c.Sweep == "fig10" && c.Workload == b.sz.probe && c.Scheme == "star" {
			spec.cellDigest = c.Digest
		}
	}
	return nil
}

func cellName(c experiments.Cell) string {
	name := c.Workload + "/" + c.Scheme
	if c.Label != "" {
		name += " " + c.Label
	}
	return name
}

// --- statistics ---------------------------------------------------------------

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
