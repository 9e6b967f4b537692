package sim

import (
	"fmt"

	"nvmstar/internal/nvm"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
	"nvmstar/internal/telemetry"
)

// The per-operation latency half of the observatory. Config.Observe
// gives the machine a latRecorder that brackets every engine-level operation —
// data read, data write, persist/flush, recovery — and records its
// end-to-end simulated latency into a log-bucketed histogram per op
// kind, decomposed along the critical path into components (memory
// controller and cache probes, bank queue wait, metadata fetch by tree
// level, write-queue stalls by write cause, recovery phases).
//
// The recorder is part of the built-in observatory (observe.go) and
// reads only the observation stream: op begin/end brackets, component
// charges and device accesses from the timing model, and recovery
// ends. Disabled (the default), Results marshal byte-identically to
// builds without the feature.

// latOp enumerates the bracketed operation kinds.
type latOp uint8

const (
	opRead     latOp = iota // engine-level data read (cache-miss fill)
	opWrite                 // engine-level line write (evict, persist, flush)
	opPersist               // a whole Persist (CLWB range) call
	opRecovery              // crash-recovery replay (report-modeled)
	numLatOps
)

// latOpNames is indexed by latOp; the names are the stable labels used
// in Results.Latency, trace events, reports and latency documents.
var latOpNames = [numLatOps]string{"read", "write", "persist", "recovery"}

func (o latOp) String() string {
	if o < numLatOps {
		return latOpNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ValidLatOpName reports whether s is one of the stable op-kind
// labels. Trace consumers (cmd/tracecheck) use it to validate
// "lat:<op>" event names against this table rather than a copy of it.
func ValidLatOpName(s string) bool {
	for _, n := range latOpNames {
		if n == s {
			return true
		}
	}
	return false
}

// latComp enumerates the critical-path components an operation's time
// decomposes into. Every simulated-time charge inside an op bracket is
// attributed to exactly one component, so per-op component sums equal
// the op's end-to-end latency (up to float summation order).
type latComp uint8

const (
	compMC           latComp = iota // cache-hierarchy probes + memory-controller processing
	compBankWait                    // read serialized behind a busy PCM bank
	compReadData                    // data-line read service time
	compReadCounter                 // SIT leaf counter-node read service time
	compReadTree                    // SIT interior-node read service time
	compReadOther                   // recovery-area / shadow-table read service time
	compStallData                   // write-queue-full stall behind a data-line write
	compStallCounter                // ... behind a counter write
	compStallTree                   // ... behind an interior tree-node write
	compStallMAC                    // ... behind a MAC / shadow-table write
	compStallADR                    // ... behind an ADR-flush or bitmap-line write
	compStallOther                  // ... behind any other write cause
	compRecScan                     // recovery: bitmap/index or ST scan
	compRecRestore                  // recovery: node restoration reads
	compRecWriteback                // recovery: restored-node write-back
	numLatComps
)

// latCompNames is indexed by latComp.
var latCompNames = [numLatComps]string{
	"mc", "bank-wait",
	"read-data", "read-counter", "read-tree", "read-other",
	"stall-data", "stall-counter", "stall-tree", "stall-mac", "stall-adr", "stall-other",
	"recovery-scan", "recovery-restore", "recovery-writeback",
}

// stallCompOf maps a write cause onto its stall component.
func stallCompOf(c nvm.Cause) latComp {
	switch c {
	case nvm.CauseData:
		return compStallData
	case nvm.CauseCounter:
		return compStallCounter
	case nvm.CauseTreeNode:
		return compStallTree
	case nvm.CauseMAC:
		return compStallMAC
	case nvm.CauseADRFlush, nvm.CauseBitmap:
		return compStallADR
	default:
		return compStallOther
	}
}

// numLatBounds is the number of finite latency buckets.
const numLatBounds = 40

// latBounds are the latency buckets' upper bounds.
var latBounds = telemetry.ExpBuckets(1, 2, numLatBounds)

// LatencyBuckets returns the latency buckets' upper bounds: 40
// power-of-two buckets from 1 ns to 2^39 ns (~9 simulated minutes),
// wide enough that no modeled operation — including multi-millisecond
// recoveries — lands in the overflow bucket.
func LatencyBuckets() []float64 { return append([]float64(nil), latBounds...) }

// latFrame is one active operation bracket.
type latFrame struct {
	op    latOp
	start float64 // issuing core's clock at begin
}

// latRecorder counts the machine's per-op latency state in plain values
// — per op kind a bucket vector (latBounds plus overflow), a time sum and
// component times — so a copy is a snapshot. Driving goroutine only.
type latRecorder struct {
	geo    *sit.Geometry // classifies device reads by region and tree level
	counts [numLatOps][numLatBounds + 1]uint64
	sums   [numLatOps]float64
	comps  [numLatOps][numLatComps]float64
	// Op brackets nest (a write evicted inside a read fill, per-line
	// writes inside a persist); components accrue into every active
	// frame so each op kind's component sum matches its own
	// end-to-end time. Depth never exceeds 2 today; 4 leaves headroom.
	stack [4]latFrame
	depth int
}

// record counts one op of kind op that took ns.
func (r *latRecorder) record(op latOp, ns float64) {
	r.counts[op][telemetry.BucketIndex(latBounds, ns)]++
	r.sums[op] += ns
}

// observe records one event of the observation stream.
func (r *latRecorder) observe(ev Event) {
	switch ev.Kind {
	case EvOpBegin:
		r.begin(ev.Op, ev.T)
	case EvOpEnd:
		r.end(ev.T)
	case EvComponent:
		r.note(ev.Comp, ev.Ns)
	case EvAccess:
		if r.depth == 0 {
			return
		}
		switch ev.Access {
		case nvm.AccessRead:
			r.note(compBankWait, ev.WaitNs)
			r.note(r.readComp(ev.Addr), ev.ServiceNs)
		case nvm.AccessWrite:
			if ev.WaitNs > 0 {
				r.note(stallCompOf(ev.Cause), ev.WaitNs)
			}
		}
	case EvRecoveryEnd:
		if ev.Report != nil {
			r.observeRecovery(ev.Report)
		}
	}
}

// readComp classifies a device read's service time by the region
// (and, for metadata, the tree level) of the address.
func (r *latRecorder) readComp(addr uint64) latComp {
	switch r.geo.RegionOf(addr) {
	case sit.RegionData:
		return compReadData
	case sit.RegionMeta:
		if id, ok := r.geo.NodeAt(addr); ok && id.Level == 0 {
			return compReadCounter
		}
		return compReadTree
	default:
		return compReadOther
	}
}

func (r *latRecorder) begin(op latOp, now float64) {
	if r.depth >= len(r.stack) {
		return // beyond modeled nesting; drop rather than corrupt
	}
	r.stack[r.depth] = latFrame{op: op, start: now}
	r.depth++
}

func (r *latRecorder) end(now float64) {
	if r.depth == 0 {
		return
	}
	r.depth--
	f := r.stack[r.depth]
	r.record(f.op, now-f.start)
}

// note attributes ns of simulated time to component comp in every
// active op frame.
func (r *latRecorder) note(comp latComp, ns float64) {
	for i := 0; i < r.depth; i++ {
		r.comps[r.stack[i].op][comp] += ns
	}
}

// observeRecovery records one recovery as a single operation with the
// report's modeled end-to-end time and per-phase components. Recovery
// replay's device accesses are deliberately not core-clock-bracketed:
// the paper models recovery at 100 ns/line (RecoveryLineNs), and the
// phases sum exactly to that model's total.
func (r *latRecorder) observeRecovery(rep *secmem.RecoveryReport) {
	ph := rep.PhaseTimes()
	r.record(opRecovery, rep.TimeNs())
	r.comps[opRecovery][compRecScan] += ph.ScanNs
	r.comps[opRecovery][compRecRestore] += ph.RestoreNs
	r.comps[opRecovery][compRecWriteback] += ph.WritebackNs
}

// ComponentNs is one critical-path component's accumulated time within
// an operation kind.
type ComponentNs struct {
	Component string
	Ns        float64
}

// OpLatency summarizes one operation kind's latency distribution over
// a measured phase: observation count, total time, the full bucket
// vector (LatencyBuckets bounds plus one overflow count), derived tail
// percentiles, and the per-component decomposition. Components always
// lists every component in enum order, so the JSON shape — and
// therefore manifest cell digests — depends only on the numbers.
type OpLatency struct {
	Op        string
	Count     uint64
	SumNs     float64
	BucketsNs []uint64 // len(LatencyBuckets())+1; last is overflow
	P50Ns     float64
	P90Ns     float64
	P99Ns     float64
	P999Ns    float64
	// MaxNs is the upper bound of the highest occupied bucket — a
	// bucketed estimate, chosen because an exact running maximum cannot
	// be phase-subtracted or seed-averaged deterministically.
	MaxNs      float64
	Components []ComponentNs
}

// LatencyBreakdown is Results.Latency: one OpLatency per operation
// kind, always all four in enum order.
type LatencyBreakdown struct {
	Ops []OpLatency
}

// Op returns the row for the named operation kind (nil if absent).
func (l *LatencyBreakdown) Op(name string) *OpLatency {
	if l == nil {
		return nil
	}
	for i := range l.Ops {
		if l.Ops[i].Op == name {
			return &l.Ops[i]
		}
	}
	return nil
}

// derive recomputes the percentile fields of one row from its bucket
// vector — the deterministic pure function every construction and
// merge path shares.
func (o *OpLatency) derive() {
	o.P50Ns = telemetry.QuantileFromBuckets(latBounds, o.BucketsNs, 0, 0.50)
	o.P90Ns = telemetry.QuantileFromBuckets(latBounds, o.BucketsNs, 0, 0.90)
	o.P99Ns = telemetry.QuantileFromBuckets(latBounds, o.BucketsNs, 0, 0.99)
	o.P999Ns = telemetry.QuantileFromBuckets(latBounds, o.BucketsNs, 0, 0.999)
	o.MaxNs = 0
	for i := len(o.BucketsNs) - 1; i >= 0; i-- {
		if o.BucketsNs[i] == 0 {
			continue
		}
		if i < len(latBounds) {
			o.MaxNs = latBounds[i]
		} else {
			o.MaxNs = latBounds[len(latBounds)-1]
		}
		break
	}
}

// breakdown builds the serializable view of the recorder's counts
// since before, a copy taken earlier (nil = since construction).
func (r *latRecorder) breakdown(before *latRecorder) *LatencyBreakdown {
	lb := &LatencyBreakdown{Ops: make([]OpLatency, numLatOps)}
	for op := latOp(0); op < numLatOps; op++ {
		counts, sum, comps := r.counts[op], r.sums[op], r.comps[op]
		if before != nil {
			for i := range counts {
				counts[i] -= before.counts[op][i]
			}
			sum -= before.sums[op]
			for comp := range comps {
				comps[comp] -= before.comps[op][comp]
			}
		}
		row := OpLatency{Op: op.String(), SumNs: sum, BucketsNs: counts[:]}
		for _, c := range counts {
			row.Count += c
		}
		for comp, ns := range comps {
			row.Components = append(row.Components, ComponentNs{Component: latCompNames[comp], Ns: ns})
		}
		row.derive()
		lb.Ops[op] = row
	}
	return lb
}

// Copy returns a deep copy.
func (l *LatencyBreakdown) Copy() *LatencyBreakdown {
	if l == nil {
		return nil
	}
	out := &LatencyBreakdown{Ops: make([]OpLatency, len(l.Ops))}
	for i, o := range l.Ops {
		o.BucketsNs = append([]uint64(nil), o.BucketsNs...)
		o.Components = append([]ComponentNs(nil), o.Components...)
		out.Ops[i] = o
	}
	return out
}

// Accumulate adds o into l — one step of the seed-averaging fold (and
// of any cross-cell aggregation): bucket vectors, counts, sums and
// component times add element-wise, then the derived percentiles are
// recomputed from the merged buckets. Deterministic: pure integer and
// float addition in fixed order, the histogram-merge property the
// seed-averaged Results.Latency rests on. Rows match by position; both
// sides always carry all op kinds in enum order.
func (l *LatencyBreakdown) Accumulate(o *LatencyBreakdown) {
	if l == nil || o == nil {
		return
	}
	for i := range l.Ops {
		if i >= len(o.Ops) {
			break
		}
		a, b := &l.Ops[i], &o.Ops[i]
		a.Count += b.Count
		a.SumNs += b.SumNs
		for j := range a.BucketsNs {
			if j < len(b.BucketsNs) {
				a.BucketsNs[j] += b.BucketsNs[j]
			}
		}
		for j := range a.Components {
			if j < len(b.Components) {
				a.Components[j].Ns += b.Components[j].Ns
			}
		}
		a.derive()
	}
}

// DivideBy turns n accumulated seeds into their mean: integer counts
// divide with truncation (matching Results.DivideBy semantics), float
// sums divide exactly, percentiles are recomputed from the divided
// buckets. n <= 1 is a no-op; nil-safe.
func (l *LatencyBreakdown) DivideBy(n int) {
	if l == nil || n <= 1 {
		return
	}
	un := uint64(n)
	fn := float64(n)
	for i := range l.Ops {
		o := &l.Ops[i]
		o.Count /= un
		o.SumNs /= fn
		for j := range o.BucketsNs {
			o.BucketsNs[j] /= un
		}
		for j := range o.Components {
			o.Components[j].Ns /= fn
		}
		o.derive()
	}
}

// LatencySnapshot returns member 0's cumulative latency breakdown since
// machine construction (or Reset) — everything the recorder has seen,
// setup phases and post-measure recoveries included. Nil when
// Config.Observe is off. Results.Latency is the measured-phase delta;
// this is the whole-life view CLI tools print after a crash/recover
// sequence.
func (m *Machine) LatencySnapshot() *LatencyBreakdown {
	if m.be[0].observed == nil {
		return nil
	}
	return m.be[0].observed.lat.breakdown(nil)
}
