package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/provenance"
	"nvmstar/internal/sim"
	"nvmstar/internal/telemetry"
	"nvmstar/internal/workload"
)

// Runner executes the evaluation's (workload, scheme, seed) cell
// matrix over a bounded worker pool. The schedulable grain is one
// simulator run (a workUnit — for seed-averaged sweeps that is one
// cell × seed, not the whole cell), dispatched longest-expected-first
// so a heavy strict-scheme cell cannot strand the sweep's tail on one
// worker. Every worker keeps a private pool of machines (one per
// distinct configuration, Reset between units), preserving the
// simulator's single-goroutine invariant per run, and every result
// lands in a slot fixed by its unit index with seed merges folding
// slots in ascending seed order — output is bit-identical to a
// sequential fresh-machine sweep regardless of pool width or dispatch
// order, because Machine.Reset(seed) is equivalent to building a new
// machine with that seed. A run the runner has already computed — same
// seeded configuration, workload and operation count — is not
// simulated again: the run memo hands later units a copy of the first
// unit's Results.
type Runner struct {
	ops       int
	seeds     int
	workloads []string
	config    func() sim.Config
	parallel  int
	progress  func(Progress)
	trace     *telemetry.Trace
	collector *provenance.Collector
	observers []func(Cell, *sim.Results)

	// crashPoints is the WithCrashPoints axis: the mid-run operation
	// counts at which crash-family sweeps fork and crash their base
	// runs. Empty means one crash at the end of the run.
	crashPoints []int

	// costs prices units for longest-expected-first dispatch; it
	// persists across this runner's sweeps so observed wall times from
	// one sweep refine the next one's schedule.
	costs *costModel

	// memo holds every run this runner has completed, across sweeps.
	memo runMemo

	// Live sweep introspection, cumulative across this runner's sweeps
	// and read lock-free by Snapshot (expvar handlers poll it from
	// other goroutines while a sweep runs).
	cellsDone      atomic.Int64
	cellsTotal     atomic.Int64
	machinesBuilt  atomic.Int64
	machinesReused atomic.Int64
	runsShared     atomic.Int64
	sweepDone      atomic.Int64 // units completed in the active sweep
	sweepStart     atomic.Int64 // UnixNano of the active sweep's start
	sweepEnd       atomic.Int64 // UnixNano of the active sweep's completion (0 while running)
	wallNs         atomic.Int64 // total sweep wall time across this runner's sweeps

	// Per-worker busy/idle accounting (index = worker lane), cumulative
	// across sweeps; Snapshot exposes it so pool imbalance is visible
	// in starbench -http.
	workerBusyNs []atomic.Int64
	workerIdleNs []atomic.Int64
	workerUnits  []atomic.Int64
}

// Option configures a Runner (functional options).
type Option func(*Runner)

// WithOps sets the number of measured operations per workload run
// (default 20000).
func WithOps(n int) Option { return func(r *Runner) { r.ops = n } }

// WithSeeds averages every seed-averaged cell over n PRNG seeds
// (default 1). The simulator is deterministic per seed; multiple seeds
// estimate workload-randomness sensitivity. Each seed is its own
// schedulable unit, so seed-averaged sweeps parallelize at seed grain.
func WithSeeds(n int) Option { return func(r *Runner) { r.seeds = n } }

// WithWorkloads restricts the workload set; with no names, all seven
// paper workloads run.
func WithWorkloads(names ...string) Option {
	return func(r *Runner) {
		if len(names) > 0 {
			r.workloads = names
		}
	}
}

// WithConfig supplies a fresh machine configuration per cell; nil uses
// the evaluation default (64 MiB data, 1 MiB L3, 256 KiB metadata
// cache). The function is called from worker goroutines and must be
// safe for concurrent use (returning a fresh value each call is
// enough).
func WithConfig(fn func() sim.Config) Option { return func(r *Runner) { r.config = fn } }

// WithParallelism bounds the worker pool to n concurrent units;
// n <= 0 means runtime.GOMAXPROCS(0). Results and provenance digests
// are identical at every width — WithParallelism(1) runs one unit at
// a time (in cost-ranked dispatch order, not submission order), it
// does not change any value.
func WithParallelism(n int) Option { return func(r *Runner) { r.parallel = n } }

// WithCrashPoints sets the operation counts at which crash-family
// sweeps (CrashPoints) fork and crash their base runs, enabling
// mid-run multi-crash-point sweeps: all K points of a (workload,
// scheme) pair share one base run, forked at each point, so the sweep
// costs one run plus K recoveries instead of K runs. Points are
// normalized per scheme — sorted, deduplicated, clamped to the
// scheme's operation count. With no points (the default) crash
// families crash once, at the end of the run.
func WithCrashPoints(points ...int) Option {
	return func(r *Runner) { r.crashPoints = append([]int(nil), points...) }
}

// WithProgress registers a callback invoked after every completed
// unit. Callbacks run on a dedicated reporter goroutine, strictly
// ordered by completion number (Done is contiguous 1..Total), so a
// slow callback delays reporting but never blocks pool workers.
func WithProgress(fn func(Progress)) Option { return func(r *Runner) { r.progress = fn } }

// WithTrace attaches a Chrome trace-event buffer to the runner: every
// completed unit becomes one complete ("X") event on the lane of the
// worker that ran it, timestamped with wall-clock time relative to the
// sweep's start. Events are appended by the reporter goroutine, off
// the workers' critical path.
func WithTrace(tr *telemetry.Trace) Option { return func(r *Runner) { r.trace = tr } }

// WithResultObserver registers a callback invoked with every completed
// cell whose value is a *sim.Results (seed-merged cells observe the
// merged value; failed cells are not observed). Callbacks run on
// worker goroutines as cells complete and must be safe for concurrent
// use — the Observatory aggregator behind starbench -observe is the
// intended consumer. The option composes: each
// registration appends an observer, and every observer sees every
// cell in registration order.
func WithResultObserver(fn func(Cell, *sim.Results)) Option {
	return func(r *Runner) {
		if fn != nil {
			r.observers = append(r.observers, fn)
		}
	}
}

// WithCollector attaches a provenance collector: every completed cell
// of every sweep on this runner is digested into it (canonical-JSON
// SHA-256 of the cell's Results, or of the recovery report for crash
// cells), and BuildManifest assembles the run manifest from it after
// the sweeps finish. Recording is concurrency-safe and ordered
// deterministically, so manifests are independent of pool width and
// scheduling. Seed-averaged sweeps record the merged (averaged) cell,
// exactly as the sequential path did.
func WithCollector(c *provenance.Collector) Option { return func(r *Runner) { r.collector = c } }

// NewRunner builds a Runner; the zero-option form uses the evaluation
// defaults with a GOMAXPROCS-wide worker pool.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{ops: 20000, seeds: 1}
	for _, opt := range opts {
		opt(r)
	}
	if r.ops <= 0 {
		r.ops = 20000
	}
	if r.seeds <= 0 {
		r.seeds = 1
	}
	if r.parallel <= 0 {
		r.parallel = runtime.GOMAXPROCS(0)
	}
	r.costs = newCostModel()
	r.workerBusyNs = make([]atomic.Int64, r.parallel)
	r.workerIdleNs = make([]atomic.Int64, r.parallel)
	r.workerUnits = make([]atomic.Int64, r.parallel)
	return r
}

// Parallelism returns the worker-pool bound.
func (r *Runner) Parallelism() int { return r.parallel }

// Cell identifies one simulator run of the evaluation matrix.
type Cell struct {
	Workload string
	Scheme   string
	// Seed is the seed index within the sweep (0-based); the PRNG seed
	// is the configuration's base seed offset by Seed*7919.
	Seed int
	// Label optionally annotates non-matrix sweeps (e.g. "adr=16") for
	// progress output.
	Label string
}

// CellResult is one completed cell: its identity, the measured
// results (nil if the cell failed or never ran) and the error if any.
type CellResult struct {
	Cell
	Results *sim.Results
	Err     error
	Wall    time.Duration // wall-clock time this cell took
}

// Progress reports one completed unit of a sweep.
type Progress struct {
	Done  int  // units completed so far, including this one
	Total int  // units in the sweep
	Cell  Cell // the unit that just completed
	Err   error

	CellWall    time.Duration // wall time of this unit
	Elapsed     time.Duration // wall time from sweep start to this unit's completion
	ETA         time.Duration // estimated time to sweep completion (0 when done)
	CellsPerSec float64       // completed units per wall-clock second so far
}

// WorkerStat is one pool lane's cumulative busy/idle accounting.
type WorkerStat struct {
	Worker int   `json:"worker"`
	Units  int64 `json:"units"`
	BusyNs int64 `json:"busy_ns"`
	IdleNs int64 `json:"idle_ns"`
}

// Stats is a point-in-time snapshot of a Runner's live counters,
// cumulative across its sweeps. Safe to call from any goroutine while
// a sweep runs; the -http expvar endpoint of starbench publishes it.
type Stats struct {
	CellsDone      int64        // units completed (all sweeps on this runner)
	CellsTotal     int64        // units enqueued
	MachinesBuilt  int64        // simulator machines constructed from scratch
	MachinesReused int64        // units served by Reset-ing a pooled machine
	RunsShared     int64        // units served by the run memo, with no machine at all
	CellsPerSec    float64      // completion rate of the active/last sweep
	Workers        []WorkerStat // per-lane busy/idle accounting (empty before any sweep)
}

// Snapshot returns the runner's live counters. While a sweep runs,
// CellsPerSec is the live completion rate; once the sweep finishes it
// freezes at the final rate (elapsed measured to the sweep's end, not
// to whenever Snapshot is called), so headless consumers — manifests
// and -progress summaries — read stable final Stats without the -http
// expvar server.
func (r *Runner) Snapshot() Stats {
	s := Stats{
		CellsDone:      r.cellsDone.Load(),
		CellsTotal:     r.cellsTotal.Load(),
		MachinesBuilt:  r.machinesBuilt.Load(),
		MachinesReused: r.machinesReused.Load(),
		RunsShared:     r.runsShared.Load(),
	}
	if start := r.sweepStart.Load(); start != 0 {
		if done := r.sweepDone.Load(); done > 0 {
			el := time.Since(time.Unix(0, start)).Seconds()
			if end := r.sweepEnd.Load(); end > start {
				el = time.Duration(end - start).Seconds()
			}
			if el > 0 {
				s.CellsPerSec = float64(done) / el
			}
		}
	}
	for w := range r.workerUnits {
		if n := r.workerUnits[w].Load(); n > 0 {
			s.Workers = append(s.Workers, WorkerStat{
				Worker: w,
				Units:  n,
				BusyNs: r.workerBusyNs[w].Load(),
				IdleNs: r.workerIdleNs[w].Load(),
			})
		}
	}
	return s
}

// WallTime returns the total wall-clock time this runner has spent
// inside completed sweeps.
func (r *Runner) WallTime() time.Duration { return time.Duration(r.wallNs.Load()) }

// record digests one completed cell into the attached collector (a
// no-op without one). v is the cell's result value; it must be nil
// when err is non-nil. wall is the cell's total compute time (for
// seed-merged cells, the sum of its units' wall times).
func (r *Runner) record(sweep string, c Cell, wall time.Duration, v any, err error) {
	if len(r.observers) > 0 && err == nil {
		if res, ok := v.(*sim.Results); ok && res != nil {
			for _, obs := range r.observers {
				obs(c, res)
			}
		}
	}
	if r.collector == nil {
		return
	}
	r.collector.Record(sweep, c.Workload, c.Scheme, c.Seed, c.Label, wall, v, err)
}

// BuildManifest assembles the provenance manifest of everything the
// attached collector has recorded: environment, seedless config
// fingerprint, seed matrix, final Stats, wall and simulated time, and
// the per-cell digest trail. The recorded cells/s is the whole run's
// rate — every completed unit over the wall time of all sweeps — not
// the last sweep's. gitRev overrides git-revision detection
// (empty runs `git rev-parse` best-effort). Call it after the sweeps
// of interest have completed; the manifest is sealed with its own
// digest over the run-invariant subset.
func (r *Runner) BuildManifest(gitRev string) (*provenance.Manifest, error) {
	if r.collector == nil {
		return nil, errors.New("experiments: BuildManifest requires a runner built WithCollector")
	}
	cfg := r.cfg()
	seeds := make([]uint64, r.seeds)
	for i := range seeds {
		seeds[i] = cfg.Seed + uint64(i)*7919
	}
	stats := r.Snapshot()
	wall := r.WallTime()
	var cellsPerSec float64
	if wall > 0 {
		cellsPerSec = float64(stats.CellsDone) / wall.Seconds()
	}
	m := &provenance.Manifest{
		Schema:    provenance.SchemaVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Env:       provenance.CaptureEnv(gitRev),
		Config: provenance.RunConfig{
			Fingerprint: provenance.ConfigFingerprint(cfg),
			Ops:         r.ops,
			Seeds:       r.seeds,
			BaseSeed:    cfg.Seed,
			SeedMatrix:  seeds,
			Workloads:   r.workloadList(),
			Parallelism: r.parallel,
		},
		Stats: provenance.RunnerStats{
			CellsDone:      stats.CellsDone,
			MachinesBuilt:  stats.MachinesBuilt,
			MachinesReused: stats.MachinesReused,
			CellsPerSec:    cellsPerSec,
		},
		WallNs:    wall.Nanoseconds(),
		SimTimeNs: r.collector.SimTimeNs(),
		Cells:     r.collector.Cells(),
	}
	m.Seal()
	return m, nil
}

// Matrix expands workloads x schemes x the runner's seed count into
// cells in deterministic (workload-major) order. Empty workloads means
// the runner's workload set; empty schemes defaults to the paper's
// four-scheme evaluation set.
func (r *Runner) Matrix(workloads, schemes []string) []Cell {
	if len(workloads) == 0 {
		workloads = r.workloadList()
	}
	if len(schemes) == 0 {
		schemes = []string{"wb", "star", "anubis", "strict"}
	}
	var cells []Cell
	for _, w := range workloads {
		for _, s := range schemes {
			for seed := 0; seed < r.seeds; seed++ {
				cells = append(cells, Cell{Workload: w, Scheme: s, Seed: seed})
			}
		}
	}
	return cells
}

// Run executes every cell over the worker pool and returns results in
// cell order (slot i belongs to cells[i]). A cell's simulation error
// is recorded in its CellResult and does not abort the sweep; only
// context cancellation does, in which case the returned error is
// ctx.Err() and unreached cells have nil Results and a nil Err.
func (r *Runner) Run(ctx context.Context, cells []Cell) ([]CellResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]CellResult, len(cells))
	err := r.forEach(ctx, cells, func(ctx context.Context, mp *machinePool, i int) error {
		start := time.Now()
		res, runErr := r.runSeed(ctx, mp, cells[i])
		wall := time.Since(start)
		out[i] = CellResult{Cell: cells[i], Results: res, Err: runErr, Wall: wall}
		if runErr != nil {
			r.record("matrix", cells[i], wall, nil, runErr)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return nil
		}
		r.record("matrix", cells[i], wall, res, nil)
		return nil
	})
	return out, err
}

// --- pool ----------------------------------------------------------------

// machinePool caches one sim.Machine per distinct configuration for a
// single pool worker. Rebuilding a machine per cell dominated sweep
// cost (the NVM paged store, caches and engine are re-allocated from
// scratch, hammering the allocator shared by every worker); recycling
// via Machine.Reset makes the steady-state sweep allocation-light.
// Each worker goroutine owns exactly one pool, so machines never cross
// goroutines and the simulator's single-goroutine invariant holds.
type machinePool struct {
	machines map[string]*sim.Machine
	// built/reused report pool effectiveness into the owning runner's
	// live counters (nil in tests that construct pools directly).
	built  *atomic.Int64
	reused *atomic.Int64
	// shared is set by the run memo when the worker's current unit was
	// served from another unit's run; dispatch clears it per unit.
	shared bool
}

func bump(c *atomic.Int64) {
	if c != nil {
		c.Add(1)
	}
}

// machine returns a machine for cfg, reusing (and Resetting) a cached
// one when the configuration — everything except the seed, which Reset
// re-derives — has been seen before. A caller-supplied crypto suite
// may be stateful and is not fingerprintable, so that rare case falls
// back to a fresh machine per cell.
//
// Reset runs on EVERY reuse checkout, unconditionally — that is the
// pool's whole safety argument, so do not "optimize" it away. A unit
// that errors, crashes without recovering, or forks and leaves COW
// pages shared with live children returns its machine to the pool in
// exactly that dirty state; the next checkout's Reset rewinds all of
// it (the Reset invariant covers crashed and forked machines alike).
// TestMachinePoolPoisonedCheckout pins this.
func (p *machinePool) machine(cfg sim.Config) (*sim.Machine, error) {
	if cfg.Suite != nil {
		bump(p.built)
		return sim.NewMachine(cfg)
	}
	seed := cfg.Seed
	cfg.Seed = 0
	key := fmt.Sprintf("%+v", cfg)
	if m, ok := p.machines[key]; ok {
		m.Reset(seed)
		bump(p.reused)
		return m, nil
	}
	cfg.Seed = seed
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	bump(p.built)
	if p.machines == nil {
		p.machines = make(map[string]*sim.Machine)
	}
	p.machines[key] = m
	return m, nil
}

// completion is one finished unit on its way to the reporter.
type completion struct {
	unit   workUnit
	err    error
	done   int           // completion number, 1-based
	worker int           // pool lane that ran the unit
	start  time.Duration // offset of the unit's start from the sweep's start
	wall   time.Duration
}

// dispatch runs job over every unit on at most r.parallel workers,
// handing each worker its own machinePool. Units are handed out
// longest-expected-first via the runner's cost model; each job owns
// its unit's output slot, which keeps assembled output deterministic
// regardless of dispatch order. Progress callbacks and trace events
// are emitted by a dedicated reporter goroutine in completion-number
// order, so workers never serialize on user callbacks. The first
// non-nil job error cancels the remaining units and is returned;
// otherwise the (possibly canceled) context's error is.
func (r *Runner) dispatch(parent context.Context, units []workUnit, job func(ctx context.Context, mp *machinePool, u workUnit) error) error {
	if parent == nil {
		parent = context.Background()
	}
	if len(units) == 0 {
		return parent.Err()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	workers := r.parallel
	if workers > len(units) {
		workers = len(units)
	}

	start := time.Now()
	r.cellsTotal.Add(int64(len(units)))
	r.sweepDone.Store(0)
	r.sweepEnd.Store(0)
	r.sweepStart.Store(start.UnixNano())

	keys := make([]string, len(units))
	static := make([]float64, len(units))
	for i, u := range units {
		keys[i] = costKey(u.cell)
		static[i] = r.staticCost(u.cell)
	}
	d := newDispatcher(len(units), func(i int) float64 {
		return r.costs.estimate(keys[i], static[i])
	})

	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	// Workers never block on reporting: the channel holds every
	// possible completion, and the reporter reorders out-of-order
	// arrivals by completion number so Done is contiguous.
	var doneCount atomic.Int64
	events := make(chan completion, len(units))
	var reporter sync.WaitGroup
	reporter.Add(1)
	go func() {
		defer reporter.Done()
		pending := make(map[int]completion, workers)
		next := 1
		for ev := range events {
			pending[ev.done] = ev
			for {
				e, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				r.report(e, len(units))
				next++
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			mp := &machinePool{built: &r.machinesBuilt, reused: &r.machinesReused}
			idleSince := time.Now()
			for ctx.Err() == nil {
				i, ok := d.next()
				if !ok {
					break
				}
				unitStart := time.Now()
				r.workerIdleNs[worker].Add(unitStart.Sub(idleSince).Nanoseconds())
				mp.shared = false
				err := job(ctx, mp, units[i])
				wall := time.Since(unitStart)
				idleSince = time.Now()
				r.workerBusyNs[worker].Add(wall.Nanoseconds())
				r.workerUnits[worker].Add(1)
				// A memo hit's near-zero wall says nothing about what
				// its cost key takes to simulate.
				if mp.shared {
					r.runsShared.Add(1)
				} else {
					r.costs.observe(keys[i], static[i], wall)
				}
				r.cellsDone.Add(1)
				r.sweepDone.Add(1)
				if err != nil {
					fail(err)
				}
				events <- completion{
					unit: units[i], err: err, done: int(doneCount.Add(1)),
					worker: worker, start: unitStart.Sub(start), wall: wall,
				}
			}
			r.workerIdleNs[worker].Add(time.Since(idleSince).Nanoseconds())
		}(w)
	}
	wg.Wait()
	close(events)
	reporter.Wait()
	// Freeze the sweep clock so Snapshot's CellsPerSec stops decaying
	// once the sweep is over, and fold this sweep into the runner's
	// total wall time.
	r.sweepEnd.Store(time.Now().UnixNano())
	r.wallNs.Add(time.Since(start).Nanoseconds())
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}

// report emits one completion's trace event and progress callback.
// Runs only on the reporter goroutine, in completion-number order.
func (r *Runner) report(ev completion, total int) {
	if r.trace != nil {
		c := ev.unit.cell
		name := c.Workload + "/" + c.Scheme
		if c.Label != "" {
			name += " " + c.Label
		}
		r.trace.CompleteAt(name, "sweep",
			float64(ev.start.Nanoseconds()), float64(ev.wall.Nanoseconds()), ev.worker)
	}
	if r.progress != nil {
		p := Progress{
			Done: ev.done, Total: total, Cell: ev.unit.cell, Err: ev.err,
			CellWall: ev.wall, Elapsed: ev.start + ev.wall,
		}
		if ev.done < total {
			p.ETA = time.Duration(float64(p.Elapsed) / float64(ev.done) * float64(total-ev.done))
		}
		if secs := p.Elapsed.Seconds(); secs > 0 {
			p.CellsPerSec = float64(ev.done) / secs
		}
		r.progress(p)
	}
}

// forEach runs job(i) over the pool with one unit per cell (slot i).
// Sweeps whose cells are single simulator runs use it directly;
// seed-averaged sweeps go through runCellsAveraged, which expands
// cells into per-seed units first so the schedulable grain stays one
// run.
func (r *Runner) forEach(parent context.Context, cells []Cell, job func(ctx context.Context, mp *machinePool, i int) error) error {
	units := make([]workUnit, len(cells))
	for i, c := range cells {
		units[i] = workUnit{cell: c, slot: i}
	}
	return r.dispatch(parent, units, func(ctx context.Context, mp *machinePool, u workUnit) error {
		return job(ctx, mp, u.slot)
	})
}

// --- cell execution ------------------------------------------------------

func (r *Runner) cfg() sim.Config {
	if r.config != nil {
		return r.config()
	}
	cfg := sim.Default()
	cfg.DataBytes = 64 << 20
	cfg.L3 = cache.Config{SizeBytes: 1 << 20, Ways: 8}
	cfg.MetaCache = cache.Config{SizeBytes: 256 << 10, Ways: 8}
	return cfg
}

func (r *Runner) workloadList() []string {
	if len(r.workloads) > 0 {
		return r.workloads
	}
	return workload.Names()
}

func (r *Runner) opsFor(scheme string) int {
	if scheme == "strict" {
		// Strict persistence is ~tree-height times slower by design;
		// a shorter run keeps the sweep tractable without changing
		// per-op ratios.
		return r.ops / 4
	}
	return r.ops
}

// runSeed executes one single-seed cell.
func (r *Runner) runSeed(ctx context.Context, mp *machinePool, c Cell) (*sim.Results, error) {
	cfg := r.cfg()
	cfg.Scheme = c.Scheme
	cfg.Seed += uint64(c.Seed) * 7919
	return r.run(ctx, mp, cfg, c.Workload, r.opsFor(c.Scheme))
}

// --- run memo ------------------------------------------------------------

// runMemo is a Runner's single-flight memo of completed simulator runs.
// The simulator is deterministic, so a run is a function of its seeded
// configuration, workload and operation count: an equal key means an
// equal run. The paper's sweeps repeat many runs — Fig. 10, Figs.
// 11–13, Fig. 14a and Table II's default ADR point all simulate the
// same default wb and star runs — and the memo computes each once per
// Runner. It is always on; there is nothing to tune.
type runMemo struct {
	mu   sync.Mutex
	runs map[string]*memoRun
}

// memoRun is one run, in flight or completed. done closes when the
// unit running it finishes; res is then the stored result, or nil if
// the run failed (failed runs are dropped from the memo, not stored).
type memoRun struct {
	done chan struct{}
	res  *sim.Results
}

// run returns the Results of running workload for ops operations on a
// machine configured by cfg. The first unit with a key simulates it on
// a pooled machine; a unit arriving while that run is in flight waits
// for it (or for ctx); later units get a copy of the stored Results.
// Every caller gets Results it owns — seed merges mutate them in place
// — so the stored value is never handed out. A caller-supplied crypto
// suite is not fingerprintable, so such configs bypass the memo as
// they bypass the machine pool.
func (r *Runner) run(ctx context.Context, mp *machinePool, cfg sim.Config, workload string, ops int) (*sim.Results, error) {
	if cfg.Suite != nil {
		return simulate(ctx, mp, cfg, workload, ops)
	}
	key := memoKey(cfg, workload, ops)
	for {
		r.memo.mu.Lock()
		e, found := r.memo.runs[key]
		if !found {
			e = &memoRun{done: make(chan struct{})}
			if r.memo.runs == nil {
				r.memo.runs = make(map[string]*memoRun)
			}
			r.memo.runs[key] = e
		}
		r.memo.mu.Unlock()
		if !found {
			res, err := simulate(ctx, mp, cfg, workload, ops)
			r.memo.mu.Lock()
			if err != nil {
				delete(r.memo.runs, key)
			} else {
				e.res = res.Clone()
			}
			r.memo.mu.Unlock()
			close(e.done)
			return res, err
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.res != nil {
			mp.shared = true
			return e.res.Clone(), nil
		}
		// The run failed; run it again under this unit's own context.
	}
}

// memoKey identifies a run: the full seeded configuration, printed as
// machinePool prints it, plus the workload and operation count.
func memoKey(cfg sim.Config, workload string, ops int) string {
	return fmt.Sprintf("%+v %s %d", cfg, workload, ops)
}

// simulate runs workload for ops operations on a pooled machine.
func simulate(ctx context.Context, mp *machinePool, cfg sim.Config, workload string, ops int) (*sim.Results, error) {
	m, err := mp.machine(cfg)
	if err != nil {
		return nil, err
	}
	return m.RunCtx(ctx, workload, ops)
}

// runCellsAveraged executes seed-averaged cells at seed-unit grain:
// every (cell, seed) pair is one schedulable unit with its own output
// slot, and after the dispatch the per-seed slots of each cell are
// folded in ascending seed order via Results.Accumulate/DivideBy —
// exactly the legacy sequential seed loop's accumulation, so averaged
// values stay bit-identical to it at any pool width. The merged cell
// (seed index 0, wall = sum of its units' wall times) is what reaches
// the provenance collector, preserving historical manifest cell keys
// and digests.
//
// The returned slice is cell-indexed; out[i] is nil if cells[i] failed
// or was canceled before all of its seeds ran. The error is the
// dispatch error (first job error, else the context's).
func (r *Runner) runCellsAveraged(ctx context.Context, sweep string, cells []Cell) ([]*sim.Results, error) {
	units := make([]workUnit, 0, len(cells)*r.seeds)
	for ci, c := range cells {
		for s := 0; s < r.seeds; s++ {
			u := c
			u.Seed = s
			units = append(units, workUnit{cell: u, slot: ci*r.seeds + s})
		}
	}
	perSeed := make([]*sim.Results, len(units))
	walls := make([]time.Duration, len(units))
	errs := make([]error, len(units))
	dispatchErr := r.dispatch(ctx, units, func(ctx context.Context, mp *machinePool, u workUnit) error {
		start := time.Now()
		res, err := r.runSeed(ctx, mp, u.cell)
		perSeed[u.slot] = res
		walls[u.slot] = time.Since(start)
		errs[u.slot] = err
		return err
	})
	out := make([]*sim.Results, len(cells))
	for ci, c := range cells {
		base := ci * r.seeds
		var wall time.Duration
		var cellErr error
		complete := true
		for s := 0; s < r.seeds; s++ {
			wall += walls[base+s]
			if cellErr == nil {
				cellErr = errs[base+s]
			}
			if perSeed[base+s] == nil {
				complete = false
			}
		}
		if cellErr != nil {
			r.record(sweep, c, wall, nil, cellErr)
			continue
		}
		if !complete {
			continue // canceled before every seed of this cell ran
		}
		acc := perSeed[base]
		for s := 1; s < r.seeds; s++ {
			acc.Accumulate(perSeed[base+s])
		}
		acc.DivideBy(r.seeds)
		out[ci] = acc
		r.record(sweep, c, wall, acc, nil)
	}
	if dispatchErr != nil {
		return nil, dispatchErr
	}
	return out, nil
}

// --- figure sweeps -------------------------------------------------------

// Fig10 measures how rarely STAR's bitmap lines reach NVM compared
// with the baseline's ordinary writes; the per-workload (wb, star)
// pairs fan out over the pool at seed grain.
func (r *Runner) Fig10(ctx context.Context) ([]Fig10Row, error) {
	workloads := r.workloadList()
	schemes := []string{"wb", "star"}
	var cells []Cell
	for _, name := range workloads {
		for _, scheme := range schemes {
			cells = append(cells, Cell{Workload: name, Scheme: scheme})
		}
	}
	results, err := r.runCellsAveraged(ctx, "fig10", cells)
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for w, name := range workloads {
		wbRes, starRes := results[w*2], results[w*2+1]
		row := Fig10Row{
			Workload:     name,
			WBWrites:     wbRes.Dev.Writes,
			BitmapWrites: starRes.Bitmap.NVMWrites(),
			BitmapReads:  starRes.Bitmap.NVMReads(),
		}
		denom := row.BitmapWrites
		if denom == 0 {
			denom = 1
		}
		row.Ratio = float64(row.WBWrites) / float64(denom)
		rows = append(rows, row)
	}
	return rows, nil
}

// SchemeComparison runs the workload x scheme matrix behind Figs. 11,
// 12 and 13 over the pool and assembles rows in workload-major order,
// normalized to the WB baseline of the same workload.
func (r *Runner) SchemeComparison(ctx context.Context, schemes []string) ([]SchemeRow, error) {
	if len(schemes) == 0 {
		schemes = []string{"wb", "star", "anubis", "strict"}
	}
	workloads := r.workloadList()
	var cells []Cell
	for _, name := range workloads {
		for _, scheme := range schemes {
			cells = append(cells, Cell{Workload: name, Scheme: scheme})
		}
	}
	results, err := r.runCellsAveraged(ctx, "scheme-comparison", cells)
	if err != nil {
		return nil, err
	}
	var rows []SchemeRow
	for w, name := range workloads {
		var base SchemeRow
		for s, scheme := range schemes {
			res := results[w*len(schemes)+s]
			ops := float64(res.Ops)
			row := SchemeRow{
				Workload:    name,
				Scheme:      scheme,
				WritesPerOp: float64(res.Dev.Writes) / ops,
				IPC:         res.IPC,
				EnergyPerOp: res.EnergyPJ() / ops,
			}
			if scheme == "wb" {
				base = row
			}
			if base.WritesPerOp > 0 {
				row.WriteRatio = row.WritesPerOp / base.WritesPerOp
				row.IPCRatio = row.IPC / base.IPC
				row.EnergyRatio = row.EnergyPerOp / base.EnergyPerOp
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table2 sweeps the number of bitmap lines held in ADR and reports the
// average hit ratio, as in Table II; every (lines, workload) point is
// one pool cell.
func (r *Runner) Table2(ctx context.Context, lineCounts []int) ([]Table2Row, error) {
	if len(lineCounts) == 0 {
		lineCounts = []int{2, 4, 8, 16, 32}
	}
	workloads := r.workloadList()
	type point struct {
		lines int
		l2    int
	}
	points := make([]point, len(lineCounts))
	var cells []Cell
	for i, lines := range lineCounts {
		l2 := lines / 8
		if l2 == 0 {
			l2 = 1
		}
		points[i] = point{lines: lines, l2: l2}
		for _, name := range workloads {
			cells = append(cells, Cell{Workload: name, Scheme: "star", Label: fmt.Sprintf("adr=%d", lines)})
		}
	}
	ratios := make([]float64, len(cells))
	err := r.forEach(ctx, cells, func(ctx context.Context, mp *machinePool, i int) error {
		start := time.Now()
		p := points[i/len(workloads)]
		cfg := r.cfg()
		cfg.Scheme = "star"
		cfg.Bitmap = bitmap.Config{ADRL1Lines: p.lines - p.l2, ADRL2Lines: p.l2}
		res, err := r.run(ctx, mp, cfg, cells[i].Workload, r.opsFor("star"))
		if err != nil {
			r.record("table2", cells[i], time.Since(start), nil, err)
			return err
		}
		r.record("table2", cells[i], time.Since(start), res, nil)
		ratios[i] = res.Bitmap.HitRatio()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for pi, p := range points {
		row := Table2Row{ADRLines: p.lines, PerWorkload: make(map[string]float64)}
		var sum float64
		for wi, name := range workloads {
			hr := ratios[pi*len(workloads)+wi]
			row.PerWorkload[name] = hr
			sum += hr
		}
		row.HitRatio = sum / float64(len(workloads))
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig14a measures the fraction of the metadata cache that is dirty at
// the end of a run — the stale metadata a crash would leave behind.
func (r *Runner) Fig14a(ctx context.Context) ([]Fig14aRow, error) {
	workloads := r.workloadList()
	cells := make([]Cell, len(workloads))
	for i, name := range workloads {
		cells[i] = Cell{Workload: name, Scheme: "star"}
	}
	results, err := r.runCellsAveraged(ctx, "fig14a", cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig14aRow, len(cells))
	for i, res := range results {
		rows[i] = Fig14aRow{Workload: cells[i].Workload, DirtyFrac: res.DirtyMetaFrac}
	}
	return rows, nil
}

// Fig14b and AblationIndex — the crash-family sweeps — live in
// crash.go, decomposed into shared base runs plus forked recovery
// units.
