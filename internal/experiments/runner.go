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
	"nvmstar/internal/provenance"
	"nvmstar/internal/sim"
	"nvmstar/internal/telemetry"
	"nvmstar/internal/workload"
)

// Runner executes the evaluation's (workload, scheme, seed) cell
// matrix over a bounded worker pool. The schedulable grain is one
// simulator run (a workUnit — for seed-averaged sweeps that is one
// cell × seed, not the whole cell); units are ranked once by static
// cost and handed out longest-expected-first, so a heavy strict-scheme
// cell cannot strand the sweep's tail on one worker. A run may drive a
// lock-step group (sim.NewGroup): one simulated CPU side feeding
// several back ends that differ only below the CPU caches, so Table
// II's ADR points of one workload are one unit, and Fig. 14b's cache
// sizes of one scheme one crash-family unit. Every worker keeps a
// private pool of machines (one per distinct configuration list, Reset
// between units), preserving the simulator's single-goroutine
// invariant per run, and every result lands in a slot fixed by its
// unit index with seed merges folding slots in ascending seed order —
// output is bit-identical to a sequential fresh-machine sweep
// regardless of pool width, dispatch order or grouping, because
// Machine.Reset(seed) is equivalent to building a new machine with
// that seed and back end i of a group is equivalent to a solo machine
// of its configuration. A run the runner has already completed — same
// seeded configuration, workload and operation count — is not
// simulated again: the run memo hands later units a copy of the stored
// Results, member by member.
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

	// memo holds every run this runner has completed, across sweeps.
	memo runMemo

	// Sweep accounting, cumulative across this runner's sweeps and
	// read lock-free by Snapshot.
	cellsDone      atomic.Int64
	cellsTotal     atomic.Int64
	machinesBuilt  atomic.Int64
	machinesReused atomic.Int64
	runsShared     atomic.Int64
	wallNs         atomic.Int64 // total sweep wall time across this runner's sweeps

	// Per-worker busy/idle accounting (index = worker lane), cumulative
	// across sweeps; Snapshot exposes it so pool imbalance is visible
	// in starbench's final stats.
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
// sim.Evaluation(). The function is called from worker goroutines and
// must be safe for concurrent use (returning a fresh value each call
// is enough).
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

// name is the cell's progress and trace label.
func (c Cell) name() string {
	name := c.Workload + "/" + c.Scheme
	if c.Label != "" {
		name += " " + c.Label
	}
	return name
}

// Progress reports one completed cell of a sweep. A unit that runs a
// lock-step group completes all of its cells at once: each gets its
// own event, with an even share of the unit's wall time. A crash-family
// unit's cells are its forked recoveries: each cell's wall is its own
// fork, crash and recovery, and the base run they share is in none.
type Progress struct {
	Done  int  // cells completed so far, including this one
	Total int  // cells in the sweep
	Cell  Cell // the cell that just completed
	Err   error

	CellWall    time.Duration // wall time of this cell
	Elapsed     time.Duration // wall time from sweep start to this cell's completion
	ETA         time.Duration // estimated time to sweep completion (0 when done)
	CellsPerSec float64       // completed cells per wall-clock second so far
}

// WorkerStat is one pool lane's cumulative busy/idle accounting.
type WorkerStat struct {
	Worker int   `json:"worker"`
	Units  int64 `json:"units"`
	BusyNs int64 `json:"busy_ns"`
	IdleNs int64 `json:"idle_ns"`
}

// Stats is a point-in-time snapshot of a Runner's counters,
// cumulative across its sweeps. Safe to call from any goroutine while
// a sweep runs.
type Stats struct {
	CellsDone      int64        // cells completed (all sweeps on this runner)
	CellsTotal     int64        // cells enqueued
	MachinesBuilt  int64        // simulator machines (solo or lock-step groups) constructed from scratch
	MachinesReused int64        // units served by Reset-ing a pooled machine
	RunsShared     int64        // units served by the run memo, with no machine at all
	Workers        []WorkerStat // per-lane busy/idle accounting (empty before any sweep)
}

// Snapshot returns the runner's counters; the completion rate is
// CellsDone over WallTime.
func (r *Runner) Snapshot() Stats {
	s := Stats{
		CellsDone:      r.cellsDone.Load(),
		CellsTotal:     r.cellsTotal.Load(),
		MachinesBuilt:  r.machinesBuilt.Load(),
		MachinesReused: r.machinesReused.Load(),
		RunsShared:     r.runsShared.Load(),
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

// --- pool ----------------------------------------------------------------

// machinePool caches one sim.Machine per distinct configuration list
// (one config, or a lock-step group's) for a single pool worker.
// Rebuilding a machine per cell dominated sweep cost (the NVM paged
// store, caches and engine are re-allocated from scratch, hammering
// the allocator shared by every worker); recycling via Machine.Reset
// makes the steady-state sweep allocation-light.
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

// machine returns a machine for cfgs — a solo machine for one config,
// a lock-step group for several — reusing (and Resetting) a cached one
// when the configuration list — everything except the seed, which
// Reset re-derives and which group members share — has been seen
// before. A caller-supplied crypto suite may be stateful and is not
// fingerprintable, so that rare case falls back to a fresh machine per
// cell.
//
// Reset runs on EVERY reuse checkout, unconditionally — that is the
// pool's whole safety argument, so do not "optimize" it away. A unit
// that errors, crashes without recovering, or forks and leaves COW
// pages shared with live children returns its machine to the pool in
// exactly that dirty state; the next checkout's Reset rewinds all of
// it (the Reset invariant covers crashed and forked machines alike).
// TestMachinePoolPoisonedCheckout pins this.
func (p *machinePool) machine(cfgs ...sim.Config) (*sim.Machine, error) {
	if cfgs[0].Suite != nil {
		bump(p.built)
		return sim.NewGroup(cfgs...)
	}
	seed := cfgs[0].Seed
	var key string
	for _, cfg := range cfgs {
		cfg.Seed = 0
		key += fmt.Sprintf("%+v\n", cfg)
	}
	if m, ok := p.machines[key]; ok {
		m.Reset(seed)
		bump(p.reused)
		return m, nil
	}
	m, err := sim.NewGroup(cfgs...)
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

// completion is one finished cell on its way to the reporter.
type completion struct {
	cell   Cell
	err    error
	done   int           // completion number, 1-based
	worker int           // pool lane that ran the cell's unit
	start  time.Duration // offset of the cell's start from the sweep's start
	wall   time.Duration // the cell's wall time
}

// unitJob runs one unit on a worker's machine pool. It returns the wall
// time of each of the unit's cells, or nil when the cells completed
// together and share the unit's wall evenly. The cells are reported
// back to back, ending when the unit ends.
type unitJob func(ctx context.Context, mp *machinePool, u workUnit) ([]time.Duration, error)

// dispatch runs job over every unit on at most r.parallel workers,
// handing each worker its own machinePool. Units are handed out
// longest-expected-first (lptOrder over each unit's summed staticCost);
// each job owns its unit's output slot, which keeps assembled output
// deterministic regardless of dispatch order. Progress callbacks and
// trace events are emitted per cell by a dedicated reporter goroutine
// in completion-number order, so workers never serialize on user
// callbacks. The first non-nil job error cancels the remaining units
// and is returned; otherwise the (possibly canceled) context's error
// is.
func (r *Runner) dispatch(parent context.Context, units []workUnit, job unitJob) error {
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
	cells := 0
	costs := make([]float64, len(units))
	for i, u := range units {
		cells += len(u.cells)
		for _, c := range u.cells {
			costs[i] += r.staticCost(c)
		}
	}
	r.cellsTotal.Add(int64(cells))
	queue := make(chan int, len(units))
	for _, i := range lptOrder(costs) {
		queue <- i
	}
	close(queue)

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
	events := make(chan completion, cells)
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
				r.report(e, cells)
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
			for i := range queue {
				if ctx.Err() != nil {
					break
				}
				unitStart := time.Now()
				r.workerIdleNs[worker].Add(unitStart.Sub(idleSince).Nanoseconds())
				mp.shared = false
				walls, err := job(ctx, mp, units[i])
				wall := time.Since(unitStart)
				idleSince = time.Now()
				r.workerBusyNs[worker].Add(wall.Nanoseconds())
				r.workerUnits[worker].Add(1)
				if mp.shared {
					r.runsShared.Add(1)
				}
				n := len(units[i].cells)
				r.cellsDone.Add(int64(n))
				if err != nil {
					fail(err)
				}
				if walls == nil {
					walls = make([]time.Duration, n)
					for k := range walls {
						walls[k] = wall / time.Duration(n)
					}
				}
				offset := unitStart.Sub(start) + wall
				for _, w := range walls {
					offset -= w
				}
				first := int(doneCount.Add(int64(n))) - n + 1
				for k, c := range units[i].cells {
					events <- completion{
						cell: c, err: err, done: first + k, worker: worker,
						start: offset, wall: walls[k],
					}
					offset += walls[k]
				}
			}
			r.workerIdleNs[worker].Add(time.Since(idleSince).Nanoseconds())
		}(w)
	}
	wg.Wait()
	close(events)
	reporter.Wait()
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
		r.trace.CompleteAt(ev.cell.name(), "sweep",
			float64(ev.start.Nanoseconds()), float64(ev.wall.Nanoseconds()), ev.worker)
	}
	if r.progress != nil {
		p := Progress{
			Done: ev.done, Total: total, Cell: ev.cell, Err: ev.err,
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

// --- cell execution ------------------------------------------------------

func (r *Runner) cfg() sim.Config {
	if r.config != nil {
		return r.config()
	}
	return sim.Evaluation()
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

// runMemo is a Runner's memo of completed simulator runs. The
// simulator is deterministic, so a run is a function of its seeded
// configuration, workload and operation count: an equal key means an
// equal run. The paper's sweeps repeat many runs — Fig. 10, Figs.
// 11–13, Fig. 14a and Table II's default ADR point all simulate the
// same default wb and star runs — and the memo computes each once per
// Runner, as long as the sweeps that repeat it run one after another.
// It is always on; there is nothing to tune.
type runMemo struct {
	mu   sync.Mutex
	runs map[string]*sim.Results
}

// run returns the Results of running workload for ops operations on a
// solo machine configured by cfg, through the run memo (runGroup).
func (r *Runner) run(ctx context.Context, mp *machinePool, cfg sim.Config, workload string, ops int) (*sim.Results, error) {
	rs, err := r.runGroup(ctx, mp, []sim.Config{cfg}, workload, ops)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// runGroup returns, for each of cfgs, the Results of running workload
// for ops operations on a machine configured by it. Each member is a
// memo entry of its own: stored members are copied out, and the rest
// are simulated together on one pooled machine — a lock-step group
// when there are several — and stored. Every caller gets Results it
// owns — seed merges mutate them in place — so a stored value is never
// handed out. Failed runs are not stored. A caller-supplied crypto
// suite is not fingerprintable, so such configs bypass the memo as
// they bypass the machine pool.
func (r *Runner) runGroup(ctx context.Context, mp *machinePool, cfgs []sim.Config, workload string, ops int) ([]*sim.Results, error) {
	if cfgs[0].Suite != nil {
		return simulate(ctx, mp, cfgs, workload, ops)
	}
	out := make([]*sim.Results, len(cfgs))
	keys := make([]string, len(cfgs))
	var missing []int
	var sub []sim.Config
	r.memo.mu.Lock()
	for i, cfg := range cfgs {
		keys[i] = memoKey(cfg, workload, ops)
		if res, ok := r.memo.runs[keys[i]]; ok {
			out[i] = res.Clone()
		} else {
			missing = append(missing, i)
			sub = append(sub, cfg)
		}
	}
	r.memo.mu.Unlock()
	if len(missing) == 0 {
		mp.shared = true
		return out, nil
	}
	rs, err := simulate(ctx, mp, sub, workload, ops)
	if err != nil {
		return nil, err
	}
	r.memo.mu.Lock()
	if r.memo.runs == nil {
		r.memo.runs = make(map[string]*sim.Results)
	}
	for k, i := range missing {
		r.memo.runs[keys[i]] = rs[k].Clone()
		out[i] = rs[k]
	}
	r.memo.mu.Unlock()
	return out, nil
}

// completed reports whether the memo holds a completed run of key.
func (m *runMemo) completed(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.runs[key]
	return ok
}

// memoKey identifies a run: the full seeded configuration, printed as
// machinePool prints it, plus the workload and operation count.
func memoKey(cfg sim.Config, workload string, ops int) string {
	return fmt.Sprintf("%+v %s %d", cfg, workload, ops)
}

// simulate runs workload for ops operations on a pooled machine for
// cfgs and returns each member's Results.
func simulate(ctx context.Context, mp *machinePool, cfgs []sim.Config, workload string, ops int) ([]*sim.Results, error) {
	m, err := mp.machine(cfgs...)
	if err != nil {
		return nil, err
	}
	return m.RunEach(ctx, workload, ops)
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
			units = append(units, workUnit{cells: []Cell{u}, slot: ci*r.seeds + s})
		}
	}
	perSeed := make([]*sim.Results, len(units))
	walls := make([]time.Duration, len(units))
	errs := make([]error, len(units))
	dispatchErr := r.dispatch(ctx, units, func(ctx context.Context, mp *machinePool, u workUnit) ([]time.Duration, error) {
		start := time.Now()
		res, err := r.runSeed(ctx, mp, u.cells[0])
		perSeed[u.slot] = res
		walls[u.slot] = time.Since(start)
		errs[u.slot] = err
		return nil, err
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
// average hit ratio, as in Table II. The ADR points change only STAR's
// back end, so the points of one workload are one unit: a lock-step
// group of star back ends, one per point, under one simulated CPU side.
// A point already in the run memo (the default split, which Fig. 10
// ran) is its own unit, served from the memo.
func (r *Runner) Table2(ctx context.Context, lineCounts []int) ([]Table2Row, error) {
	if len(lineCounts) == 0 {
		lineCounts = []int{2, 4, 8, 16, 32}
	}
	workloads := r.workloadList()
	ops := r.opsFor("star")
	cells := make([]Cell, len(lineCounts)*len(workloads))
	cfgs := make([]sim.Config, len(cells))
	for pi, lines := range lineCounts {
		split, err := bitmap.SplitADR(lines)
		if err != nil {
			return nil, err
		}
		for wi, name := range workloads {
			i := pi*len(workloads) + wi
			cells[i] = Cell{Workload: name, Scheme: "star", Label: fmt.Sprintf("adr=%d", lines)}
			cfgs[i] = r.cfg()
			cfgs[i].Scheme = "star"
			cfgs[i].Bitmap = split
		}
	}
	// members[u] lists the cell indices of unit u.
	var members [][]int
	var units []workUnit
	addUnit := func(idx []int) {
		u := workUnit{slot: len(members)}
		for _, i := range idx {
			u.cells = append(u.cells, cells[i])
		}
		members = append(members, idx)
		units = append(units, u)
	}
	for wi, name := range workloads {
		var group []int
		for pi := range lineCounts {
			i := pi*len(workloads) + wi
			if cfgs[i].Suite == nil && r.memo.completed(memoKey(cfgs[i], name, ops)) {
				addUnit([]int{i})
			} else {
				group = append(group, i)
			}
		}
		if len(group) > 0 {
			addUnit(group)
		}
	}
	ratios := make([]float64, len(cells))
	err := r.dispatch(ctx, units, func(ctx context.Context, mp *machinePool, u workUnit) ([]time.Duration, error) {
		start := time.Now()
		idx := members[u.slot]
		group := make([]sim.Config, len(idx))
		for k, i := range idx {
			group[k] = cfgs[i]
		}
		rs, err := r.runGroup(ctx, mp, group, cells[idx[0]].Workload, ops)
		wall := time.Since(start) / time.Duration(len(idx))
		for k, i := range idx {
			if err != nil {
				r.record("table2", cells[i], wall, nil, err)
				continue
			}
			r.record("table2", cells[i], wall, rs[k], nil)
			ratios[i] = rs[k].Bitmap.HitRatio()
		}
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for pi, lines := range lineCounts {
		row := Table2Row{ADRLines: lines, PerWorkload: make(map[string]float64)}
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

// Fig14b, AblationIndex and CrashPoints — the crash-family sweeps —
// live in crash.go, one unit per shared base run with its forked
// recoveries.
