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
// phase) and returns member 0's measured-phase results. The workload's
// own consistency check runs after measurement; a failure is returned
// as an error.
func (m *Machine) Run(name string, ops int) (*Results, error) {
	return first(m.run(context.Background(), name, ops, true))
}

// RunCtx is Run under a context: cancellation or timeout aborts the
// run mid-workload (setup, measured steps and verification all poll
// the context) and returns ctx.Err().
func (m *Machine) RunCtx(ctx context.Context, name string, ops int) (*Results, error) {
	return first(m.run(ctx, name, ops, true))
}

// RunEach is RunCtx returning every member's results, in member order.
func (m *Machine) RunEach(ctx context.Context, name string, ops int) ([]*Results, error) {
	return m.run(ctx, name, ops, true)
}

// RunUnverified is Run without the trailing consistency sweep. Crash
// experiments need it: the sweep's read misses evict (and thereby
// persist) every dirty metadata line, which would leave nothing stale
// for recovery to restore.
func (m *Machine) RunUnverified(name string, ops int) (*Results, error) {
	return first(m.run(context.Background(), name, ops, false))
}

// first passes on member 0's results of a group call.
func first(rs []*Results, err error) (*Results, error) {
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

func (m *Machine) run(ctx context.Context, name string, ops int, verify bool) ([]*Results, error) {
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
	rs, err := m.MeasureEach(name, func() error { return s.StepN(ops) })
	if err != nil {
		return nil, err
	}
	for _, res := range rs {
		res.Ops = ops
	}
	if verify {
		if err := s.Verify(); err != nil {
			return nil, err
		}
	}
	return rs, nil
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
// arbitrary memory front end (e.g. a wrapper that times each access
// before passing it on to this machine).
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
	m.curCore, m.step = 0, stepSetup
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
	m := s.m
	for i := 0; i < n; i++ {
		t := s.step % m.cfg.Cores
		m.step = s.step
		s.step++
		m.curCore = t
		if err := s.w.Step(s.ctx, t); err != nil {
			return fmt.Errorf("sim: %s step %d: %w", s.name, s.step-1, err)
		}
		for _, b := range m.be {
			if len(b.obs) > 0 {
				b.emit(Event{Kind: EvStepEnd, Core: t, T: b.coreNow[t]})
			}
		}
		if m.err != nil {
			return m.err
		}
	}
	return nil
}

// Verify runs the workload's consistency check through the machine.
func (s *Session) Verify() error {
	s.m.curCore, s.m.step = 0, stepVerify
	if err := s.w.Verify(s.ctx); err != nil {
		return fmt.Errorf("sim: %s verify: %w", s.name, err)
	}
	return s.m.err
}

// Measure runs fn and returns member 0's machine-level deltas around
// it.
func (m *Machine) Measure(name string, fn func() error) (*Results, error) {
	return first(m.MeasureEach(name, fn))
}

// MeasureEach runs fn and returns every member's machine-level deltas
// around it, in member order.
func (m *Machine) MeasureEach(name string, fn func() error) ([]*Results, error) {
	instrBefore := append([]uint64(nil), m.instr...)
	marks := make([]mark, len(m.be))
	for i, b := range m.be {
		marks[i] = b.mark()
	}
	if err := fn(); err != nil {
		return nil, err
	}
	var instr uint64
	for c := range m.instr {
		instr += m.instr[c] - instrBefore[c]
	}
	rs := make([]*Results, len(m.be))
	for i, b := range m.be {
		rs[i] = b.results(name, instr, &marks[i])
	}
	return rs, nil
}

// mark is a back end's state at the start of a measured phase.
type mark struct {
	dev      nvm.Stats
	engine   secmem.Stats
	observed *observatory
	coreNow  []float64
	bitmap   bitmap.Stats
	anubis   anubis.Stats
}

func (b *backEnd) mark() mark {
	k := mark{
		dev:      b.engine.Device().Stats(),
		observed: b.observed.clone(),
		engine:   b.engine.Stats(),
		coreNow:  append([]float64(nil), b.coreNow...),
	}
	switch s := b.engine.Scheme().(type) {
	case *star.Scheme:
		k.bitmap = s.Tracker().Stats()
	case *anubis.Scheme:
		k.anubis = s.Stats()
	}
	return k
}

// results returns b's measured-phase Results since k, given the
// front end's retired instructions over the phase, and emits them as
// the phase's measure-end event.
func (b *backEnd) results(name string, instr uint64, k *mark) *Results {
	scheme := b.engine.Scheme()
	res := &Results{
		Workload: name,
		Scheme:   scheme.Name(),
		Dev:      b.engine.Device().Stats().Sub(k.dev),
		Engine:   b.engine.Stats().Sub(k.engine),
	}
	var maxTime float64
	for c, now := range b.coreNow {
		if dt := now - k.coreNow[c]; dt > maxTime {
			maxTime = dt
		}
	}
	res.Instructions = instr
	res.TimeNs = maxTime
	res.Cycles = maxTime * freqGHz
	if res.Cycles > 0 {
		res.IPC = float64(instr) / res.Cycles
	}
	switch s := scheme.(type) {
	case *star.Scheme:
		d := s.Tracker().Stats().Sub(k.bitmap)
		res.Bitmap = &d
	case *anubis.Scheme:
		d := s.Stats().Sub(k.anubis)
		res.Anubis = &d
	}
	res.DirtyMetaLines = b.engine.MetaCache().DirtyCount()
	res.MetaCacheLines = b.engine.MetaCache().Lines()
	if res.MetaCacheLines > 0 {
		res.DirtyMetaFrac = float64(res.DirtyMetaLines) / float64(res.MetaCacheLines)
	}
	if b.observed != nil {
		res.WriteBreakdown, res.Latency = b.observed.since(k.observed)
	}
	b.emit(Event{Kind: EvMeasureEnd, T: b.maxTimeNs(), Results: res})
	return res
}

// RunScenario builds a machine and runs one workload in one call, for
// tests that need a single run's results and machine.
func RunScenario(cfg Config, workloadName string, ops int) (*Results, *Machine, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run(workloadName, ops)
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}
