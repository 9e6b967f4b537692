package sim

import (
	"context"
	"fmt"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/heap"
	"nvmstar/internal/nvm"
	"nvmstar/internal/schemes/anubis"
	"nvmstar/internal/schemes/star"
	"nvmstar/internal/secmem"
	"nvmstar/internal/workload"
)

// Results summarizes one measured workload run (the Setup/load phase
// is excluded: the paper measures steady-state behaviour).
type Results struct {
	Workload string
	Scheme   string
	Ops      int

	Instructions uint64
	TimeNs       float64 // wall clock: the slowest core's elapsed time
	Cycles       float64
	IPC          float64

	Dev    nvm.Stats    // NVM traffic and energy during the measured phase
	Engine secmem.Stats // engine-side breakdown

	Bitmap *bitmap.Stats // STAR only: ADR/bitmap-line counters
	Anubis *anubis.Stats // Anubis only: shadow-table counters

	DirtyMetaLines int     // dirty metadata cache lines at end of run
	MetaCacheLines int     // metadata cache capacity
	DirtyMetaFrac  float64 // Fig. 14a's quantity

	// WriteBreakdown (per-cause × per-bank write attribution) and
	// Latency (per-operation latency breakdown) cover the measured
	// phase when Config.Observe is set; both are nil otherwise, so
	// marshaled Results — and therefore manifest cell digests — are
	// byte-identical with the observatory disabled.
	WriteBreakdown *nvm.Breakdown    `json:",omitempty"`
	Latency        *LatencyBreakdown `json:",omitempty"`
}

// EnergyPJ returns the NVM access energy of the measured phase.
func (r *Results) EnergyPJ() float64 { return r.Dev.TotalEnergyPJ() }

// String renders a one-line summary.
func (r *Results) String() string {
	return fmt.Sprintf("%s/%s: ops=%d IPC=%.3f writes=%d reads=%d energy=%.2fuJ dirty=%.1f%%",
		r.Workload, r.Scheme, r.Ops, r.IPC, r.Dev.Writes, r.Dev.Reads,
		r.EnergyPJ()/1e6, 100*r.DirtyMetaFrac)
}

// Run executes ops operations of the named workload (after its setup
// phase) and returns measured-phase results. The workload's own
// consistency check runs after measurement; a failure is returned as
// an error.
func (m *Machine) Run(name string, ops int) (*Results, error) {
	return m.run(context.Background(), name, ops, true)
}

// RunCtx is Run under a context: cancellation or timeout aborts the
// run mid-workload (setup, measured steps and verification all poll
// the context) and returns ctx.Err().
func (m *Machine) RunCtx(ctx context.Context, name string, ops int) (*Results, error) {
	return m.run(ctx, name, ops, true)
}

// RunUnverified is Run without the trailing consistency sweep. Crash
// experiments need it: the sweep's read misses evict (and thereby
// persist) every dirty metadata line, which would leave nothing stale
// for recovery to restore.
func (m *Machine) RunUnverified(name string, ops int) (*Results, error) {
	return m.run(context.Background(), name, ops, false)
}

func (m *Machine) run(ctx context.Context, name string, ops int, verify bool) (*Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prevCtx, prevDone := m.ctx, m.ctxDone
	m.SetContext(ctx)
	defer func() { m.ctx, m.ctxDone = prevCtx, prevDone }()

	s, err := m.NewSession(name)
	if err != nil {
		return nil, err
	}
	res, err := m.Measure(name, func() error { return s.StepN(ops) })
	if err != nil {
		return nil, err
	}
	res.Ops = ops
	if verify {
		if err := s.Verify(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Session is a workload instance set up on a machine, ready to step.
// It gives benchmark harnesses control over exactly how many measured
// operations run (testing.B's b.N).
type Session struct {
	m    *Machine
	name string
	w    workload.Workload
	ctx  *workload.Ctx
	step int
}

// NewSession constructs the named workload and runs its setup (load)
// phase.
func (m *Machine) NewSession(name string) (*Session, error) {
	return m.NewSessionOn(name, m)
}

// NewSessionOn is NewSession with the workload running against an
// arbitrary memory front end (e.g. a trace.Recorder wrapping this
// machine).
func (m *Machine) NewSessionOn(name string, mem heap.Memory) (*Session, error) {
	w, err := workload.New(name)
	if err != nil {
		return nil, err
	}
	h, err := heap.New(mem, 0, m.cfg.DataBytes)
	if err != nil {
		return nil, err
	}
	ctx := workload.NewCtx(h, m.cfg.Cores, m.cfg.Seed)
	m.curCore = 0
	if err := w.Setup(ctx); err != nil {
		return nil, fmt.Errorf("sim: %s setup: %w", name, err)
	}
	if m.err != nil {
		return nil, m.err
	}
	return &Session{m: m, name: name, w: w, ctx: ctx}, nil
}

// StepN runs n operations, round-robin across cores.
func (s *Session) StepN(n int) error {
	for i := 0; i < n; i++ {
		t := s.step % s.m.cfg.Cores
		s.step++
		s.m.curCore = t
		if err := s.w.Step(s.ctx, t); err != nil {
			return fmt.Errorf("sim: %s step %d: %w", s.name, s.step-1, err)
		}
		if len(s.m.obs) > 0 {
			s.m.emit(Event{Kind: EvStepEnd, Core: t, T: s.m.coreNow[t]})
		}
		if s.m.err != nil {
			return s.m.err
		}
	}
	return nil
}

// Verify runs the workload's consistency check through the machine.
func (s *Session) Verify() error {
	s.m.curCore = 0
	if err := s.w.Verify(s.ctx); err != nil {
		return fmt.Errorf("sim: %s verify: %w", s.name, err)
	}
	return s.m.err
}

// Measure runs fn and captures machine-level deltas around it.
func (m *Machine) Measure(name string, fn func() error) (*Results, error) {
	devBefore := m.engine.Device().Stats()
	obsBefore := m.observed.clone()
	engBefore := m.engine.Stats()
	timeBefore := make([]float64, m.cfg.Cores)
	copy(timeBefore, m.coreNow)
	instrBefore := make([]uint64, m.cfg.Cores)
	copy(instrBefore, m.instr)
	var bmBefore bitmap.Stats
	var anBefore anubis.Stats
	scheme := m.engine.Scheme()
	if s, ok := scheme.(*star.Scheme); ok {
		bmBefore = s.Tracker().Stats()
	}
	if s, ok := scheme.(*anubis.Scheme); ok {
		anBefore = s.Stats()
	}

	if err := fn(); err != nil {
		return nil, err
	}

	res := &Results{
		Workload: name,
		Scheme:   scheme.Name(),
		Dev:      m.engine.Device().Stats().Sub(devBefore),
		Engine:   m.engine.Stats().Sub(engBefore),
	}
	var instr uint64
	var maxTime float64
	for c := 0; c < m.cfg.Cores; c++ {
		instr += m.instr[c] - instrBefore[c]
		if dt := m.coreNow[c] - timeBefore[c]; dt > maxTime {
			maxTime = dt
		}
	}
	res.Instructions = instr
	res.TimeNs = maxTime
	res.Cycles = maxTime * m.cfg.FreqGHz
	if res.Cycles > 0 {
		res.IPC = float64(instr) / res.Cycles
	}
	if s, ok := scheme.(*star.Scheme); ok {
		d := s.Tracker().Stats().Sub(bmBefore)
		res.Bitmap = &d
	}
	if s, ok := scheme.(*anubis.Scheme); ok {
		d := s.Stats().Sub(anBefore)
		res.Anubis = &d
	}
	res.DirtyMetaLines = m.engine.MetaCache().DirtyCount()
	res.MetaCacheLines = m.engine.MetaCache().Lines()
	if res.MetaCacheLines > 0 {
		res.DirtyMetaFrac = float64(res.DirtyMetaLines) / float64(res.MetaCacheLines)
	}
	if m.observed != nil {
		res.WriteBreakdown, res.Latency = m.observed.since(obsBefore)
	}
	m.emit(Event{Kind: EvMeasureEnd, T: m.maxTimeNs(), Results: res})
	return res, nil
}

// RunScenario builds a machine and runs one workload — the one-call
// entry point used by the benchmark harness and the CLI.
func RunScenario(cfg Config, workloadName string, ops int) (*Results, *Machine, error) {
	return RunScenarioCtx(context.Background(), cfg, workloadName, ops)
}

// RunScenarioCtx is RunScenario under a context; the experiment
// runner's worker pool uses it so a canceled sweep aborts mid-cell.
func RunScenarioCtx(ctx context.Context, cfg Config, workloadName string, ops int) (*Results, *Machine, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.RunCtx(ctx, workloadName, ops)
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}
