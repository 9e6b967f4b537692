// Command starsim is the one single-machine command. It runs one
// workload on the simulated secure NVM machine under one or more
// metadata persistence schemes, prints the measured-phase statistics
// and, with -crash, pulls the plug and recovers:
//
//	starsim -workload hash -scheme star -ops 20000 -crash -audit
//	starsim -workload hash -scheme wb,star,anubis -observe
//	starsim -workload btree -attack replay      # recovery REJECTED, exit 0
//	starsim -workload btree -scheme anubis -attack st
//
// Schemes: wb (write-back baseline, no recovery), strict (write-through
// persistence), anubis (shadow table), star (the paper's scheme),
// phoenix (Anubis's shadow table for tree nodes plus Osiris-style
// counter blocks, an extension).
//
// A comma-separated -scheme list runs every scheme on one access
// stream: one lock-step group (sim.NewGroup) runs the workload's
// set-up and measured phase once, and each scheme gets its own results
// block, audit, crash and recovery, on a fork of its member. The
// output is byte-identical to the solo runs' outputs in list order,
// and the exit code is the largest of theirs.
//
// -attack implies -crash: the victim line is written and snapshotted
// before the run and rewritten after it, then the crashed image is
// attacked before recovery. A detected attack exits 0.
//
// -observe prints per-op tail latencies, and -trace-out writes the
// run's structured events as Chrome trace-event JSON. -svg DIR samples
// the run's telemetry and draws the single-run figures: the dirty
// metadata fraction, cache hit ratios and write amplification over
// simulated time, and the per-bank NVM wear heatmap; with -trace-out
// the dirty fraction also becomes a counter track of the trace, and
// with -observe the run's write causes are printed. -attack, -svg and
// -trace-out take a single scheme:
//
//	starsim -workload hash -ops 8000 -svg figures -trace-out figures/timeline_trace.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"nvmstar/internal/attack"
	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
	"nvmstar/internal/workload"
)

// main delegates to run so deferred file closes execute on every exit
// path; os.Exit would skip them and truncate written artifacts.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// attackSchemes maps each -attack to the schemes whose recovery area
// it reaches: only STAR keeps bitmap lines, only Anubis and Phoenix a
// shadow table, and wb cannot recover at all.
var attackSchemes = map[string][]string{
	"replay": {"star", "anubis", "phoenix", "strict"},
	"bitmap": {"star"},
	"st":     {"anubis", "phoenix"},
}

// victimAddr is the data line the attacks' victim write, snapshot and
// rewrite use.
const victimAddr = 42 * memline.Size

type options struct {
	workload, scheme, attack   string
	traceOut, svg              string
	ops, dataMB, metaKB, cores int
	seed                       uint64
	crash, audit, observe      bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("starsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "hash", "workload: "+strings.Join(workload.Names(), "|"))
	fs.StringVar(&o.scheme, "scheme", "star", "comma-separated schemes, run on one access stream: wb|strict|anubis|star|phoenix")
	fs.IntVar(&o.ops, "ops", 20000, "measured operations")
	fs.IntVar(&o.dataMB, "data-mb", 64, "protected data size in MiB")
	fs.IntVar(&o.metaKB, "meta-kb", 256, "metadata cache size in KiB")
	fs.IntVar(&o.cores, "cores", 8, "cores / workload threads")
	fs.Uint64Var(&o.seed, "seed", 1, "workload PRNG seed")
	fs.BoolVar(&o.crash, "crash", false, "crash after the run and attempt recovery")
	fs.BoolVar(&o.audit, "audit", false, "audit the full metadata tree after the run (and after recovery)")
	fs.StringVar(&o.attack, "attack", "", "attack the crashed image before recovery (implies -crash; one scheme): replay|bitmap|st")
	fs.BoolVar(&o.observe, "observe", false, "enable the observatory: print per-op tail latencies and add lat:<op> instants to -trace-out")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the run's structured events as Chrome trace-event JSON to this file (one scheme)")
	fs.StringVar(&o.svg, "svg", "", "write the run's timeline and wear-heatmap SVG figures to this directory (one scheme)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "starsim: "+format+"\n", a...)
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"ops", o.ops}, {"data-mb", o.dataMB}, {"meta-kb", o.metaKB}, {"cores", o.cores}} {
		if f.v <= 0 {
			return usage("-%s %d: must be positive", f.name, f.v)
		}
	}
	schemes := strings.Split(o.scheme, ",")
	for i, s := range schemes {
		if slices.Contains(schemes[:i], s) {
			return usage("-scheme lists %q twice", s)
		}
	}
	if len(schemes) > 1 {
		// Each of these acts on, or observes, member 0 only.
		for _, f := range []struct{ name, v string }{{"attack", o.attack}, {"svg", o.svg}, {"trace-out", o.traceOut}} {
			if f.v != "" {
				return usage("-%s takes one scheme, not -scheme %s", f.name, o.scheme)
			}
		}
	}
	if o.attack != "" {
		reached, ok := attackSchemes[o.attack]
		if !ok {
			return usage("unknown attack %q (replay|bitmap|st)", o.attack)
		}
		if !slices.Contains(reached, o.scheme) {
			return usage("-attack %s applies to schemes %s, not %s", o.attack, strings.Join(reached, ", "), o.scheme)
		}
		o.crash = true
	}

	cfgs := make([]sim.Config, len(schemes))
	for i, s := range schemes {
		cfg := sim.Evaluation()
		cfg.DataBytes = uint64(o.dataMB) << 20
		cfg.MetaCache.SizeBytes = o.metaKB << 10
		cfg.Cores = o.cores
		cfg.Scheme = s
		cfg.Seed = o.seed
		cfg.Observe = o.observe
		cfg.Telemetry = o.svg != ""
		cfg.TrackWear = o.svg != ""
		cfgs[i] = cfg
	}
	code, err := simulate(cfgs, &o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "starsim:", err)
		return 1
	}
	return code
}

// simulate runs the workload once on the lock-step group of cfgs and
// then reports each member in turn (see member); it returns the
// largest of the members' exit codes.
func simulate(cfgs []sim.Config, o *options, w io.Writer) (code int, err error) {
	m, err := sim.NewGroup(cfgs...)
	if err != nil {
		return 0, err
	}
	var sampler *sim.Sampler
	var timelines []sim.Timeline
	if o.svg != "" {
		if sampler, err = sim.NewSampler(m.Telemetry(), sampleNs); err != nil {
			return 0, err
		}
		m.Attach(sampler)
	}
	var tracer *sim.Tracer
	if o.traceOut != "" {
		tracer = sim.NewTracer()
		m.Attach(tracer)
		defer func() {
			if err != nil {
				return
			}
			tr := tracer.Trace()
			for _, tl := range timelines {
				if tl.Name == "meta.dirty_frac" {
					for i, t := range tl.TimesNs {
						tr.CounterAt(tl.Name, t, tl.Values[i])
					}
				}
			}
			if err = tr.WriteFile(o.traceOut); err == nil {
				fmt.Fprintf(w, "wrote %d trace events to %s (load in Perfetto)\n", tr.Len(), o.traceOut)
			}
		}()
	}
	var snap attack.DataSnapshot
	if o.attack != "" {
		if err := m.Engine().WriteLine(victimAddr, memline.Line{1}); err != nil {
			return 0, err
		}
		snap = attack.SnapshotData(m.Engine(), victimAddr)
	}
	s, err := m.NewSession(o.workload)
	if err != nil {
		return 0, err
	}
	rs, err := m.MeasureEach(o.workload, func() error { return s.StepN(o.ops) })
	if err != nil {
		return 0, err
	}
	// A crashed run skips the workload's consistency sweep: its read
	// misses evict (and thereby persist) every dirty metadata line,
	// which would leave nothing stale for recovery to restore.
	if !o.crash {
		if err := s.Verify(); err != nil {
			return 0, err
		}
	}
	if sampler != nil {
		timelines = sampler.Timelines()
	}
	for i, res := range rs {
		res.Ops = o.ops
		f := m.ForkMember(i)
		if tracer != nil {
			// A fork inherits no subscriber, and the crash and
			// recovery it runs belong in the trace.
			f.Attach(tracer)
		}
		c, err := member(f, o, res, snap, timelines, w)
		if err != nil {
			return 0, err
		}
		code = max(code, c)
	}
	return code, nil
}

// member prints one scheme's results block — the block a solo run of
// that scheme prints — from its measured-phase results and f, its
// member forked out of the group after the run: the -svg figures, and
// the audit, power failure, attack and recovery of -audit and -crash.
// It returns the member's exit code.
func member(f *sim.Machine, o *options, res *sim.Results, snap attack.DataSnapshot, timelines []sim.Timeline, w io.Writer) (int, error) {
	fmt.Fprintf(w, "workload          %s (%d threads, %d ops, seed %d)\n", o.workload, o.cores, o.ops, o.seed)
	printResults(w, res)
	if o.svg != "" {
		if err := writeFigures(w, o.svg, f, res, timelines); err != nil {
			return 0, err
		}
	}
	if o.audit {
		reportAudit(w, f)
	}
	if !o.crash {
		return 0, nil
	}
	engine := f.Engine()
	if o.attack != "" {
		if err := engine.WriteLine(victimAddr, memline.Line{2}); err != nil {
			return 0, err
		}
	}

	fmt.Fprintln(w, "\n-- power failure --")
	f.Crash()
	if err := tamper(engine, o.attack, snap, w); err != nil {
		return 0, err
	}
	rep, err := f.Recover()
	if err != nil {
		if o.attack != "" && errors.Is(err, secmem.ErrRecoveryVerification) {
			fmt.Fprintf(w, "recovery REJECTED: %v\n", err)
			fmt.Fprintln(w, "the attack was detected; the system refuses the corrupted state")
			return 0, nil
		}
		fmt.Fprintf(w, "recovery FAILED: %v\n", err)
		return 1, nil
	}
	fmt.Fprintf(w, "recovery          %s, verified=%v\n", rep.Scheme, rep.Verified)
	fmt.Fprintf(w, "stale nodes       %d\n", rep.StaleNodes)
	fmt.Fprintf(w, "line accesses     %d index + %d node reads + %d writes\n",
		rep.IndexReads, rep.NodeReads, rep.NodeWrites)
	ph := rep.PhaseTimes()
	fmt.Fprintf(w, "recovery time     %.4f s (at %.0f ns/line: %.0f us scan + %.0f us restore + %.0f us write-back)\n",
		rep.TimeSeconds(), secmem.RecoveryLineNs, ph.ScanNs/1e3, ph.RestoreNs/1e3, ph.WritebackNs/1e3)
	if o.audit {
		reportAudit(w, f)
	}
	if o.attack == "" {
		return 0, nil
	}

	// An attack that slipped past recovery because it hit
	// recovery-unrelated metadata must be caught at first use (paper
	// §III-F: such attacks "will be detected by SIT root or other
	// verified nodes in the cache during running time").
	got, err := engine.ReadLine(victimAddr)
	var ierr *secmem.IntegrityError
	if errors.As(err, &ierr) {
		fmt.Fprintf(w, "attack detected at first use: %v\n", err)
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "attack NOT detected: post-recovery read of the victim line returned %d (want 2)\n", got[0])
	return 1, nil
}

// tamper applies the -attack (none when atk is empty) to the crashed
// image.
func tamper(engine *secmem.Engine, atk string, snap attack.DataSnapshot, w io.Writer) error {
	switch atk {
	case "replay":
		fmt.Fprintln(w, "attacker replays an old (data, MAC, LSB) tuple...")
		snap.Replay(engine)
	case "bitmap":
		fmt.Fprintln(w, "attacker flips bits in a recovery-area bitmap line...")
		for bit := uint(0); bit < 64; bit++ {
			if err := attack.TamperBitmapLine(engine, 0, bit); err != nil {
				return err
			}
		}
	case "st":
		fmt.Fprintln(w, "attacker tampers with a shadow-table block...")
		geo := engine.Geometry()
		for slot := uint64(0); slot < geo.STLines(); slot++ {
			if _, present := engine.Device().Peek(geo.STAddr(slot)); present {
				return attack.TamperST(engine, slot, 7)
			}
		}
		return fmt.Errorf("no shadow-table block was written to tamper with")
	}
	return nil
}

func printResults(w io.Writer, res *sim.Results) {
	perOp := func(n uint64) string { return fmt.Sprintf(" (%.2f/op)", float64(n)/float64(res.Ops)) }
	fmt.Fprintf(w, "scheme            %s\n", res.Scheme)
	fmt.Fprintf(w, "instructions      %d\n", res.Instructions)
	fmt.Fprintf(w, "time              %.3f ms\n", res.TimeNs/1e6)
	fmt.Fprintf(w, "IPC               %.4f\n", res.IPC)
	fmt.Fprintf(w, "NVM reads         %d%s\n", res.Dev.Reads, perOp(res.Dev.Reads))
	fmt.Fprintf(w, "NVM writes        %d%s\n", res.Dev.Writes, perOp(res.Dev.Writes))
	fmt.Fprintf(w, "  user data       %d\n", res.Engine.DataNVMWrites)
	fmt.Fprintf(w, "  metadata        %d\n", res.Engine.MetaNVMWrites)
	fmt.Fprintf(w, "  forced flushes  %d\n", res.Engine.ForcedFlushes)
	if res.Bitmap != nil {
		fmt.Fprintf(w, "  bitmap lines    %d written, %d read (ADR hit ratio %.2f%%)\n",
			res.Bitmap.NVMWrites(), res.Bitmap.NVMReads(), 100*res.Bitmap.HitRatio())
	}
	if res.Anubis != nil {
		fmt.Fprintf(w, "  shadow table    %d written\n", res.Anubis.STWrites)
	}
	fmt.Fprintf(w, "energy            %.2f uJ\n", res.EnergyPJ()/1e6)
	fmt.Fprintf(w, "dirty metadata    %d/%d lines (%.1f%%)\n",
		res.DirtyMetaLines, res.MetaCacheLines, 100*res.DirtyMetaFrac)
	if res.Latency == nil {
		return
	}
	for _, op := range res.Latency.Ops {
		if op.Count > 0 {
			fmt.Fprintf(w, "%-18s p50 %.0f ns, p99 %.0f ns, max %.0f ns (%d observed)\n",
				op.Op+" latency", op.P50Ns, op.P99Ns, op.MaxNs, op.Count)
		}
	}
}

func reportAudit(w io.Writer, m *sim.Machine) {
	violations := m.Engine().AuditTree()
	badData := m.Engine().AuditData()
	if len(violations) == 0 && len(badData) == 0 {
		fmt.Fprintln(w, "audit             clean (every NVM metadata block and data line consistent)")
		return
	}
	fmt.Fprintf(w, "audit             %d metadata violations, %d bad data lines\n", len(violations), len(badData))
	for i, v := range violations {
		if i == 8 {
			fmt.Fprintln(w, "                  ...")
			break
		}
		fmt.Fprintf(w, "                  %s\n", v)
	}
}
