// Command startrace records and replays memory traces, NVMain-style:
//
//	startrace -record /tmp/hash.trc -workload hash -ops 10000
//	startrace -replay /tmp/hash.trc -scheme star
//	startrace -replay /tmp/hash.trc -scheme anubis
//
// Recording captures every load/store/persist/fence the workload
// issues (setup phase included); replaying drives the same access
// stream against any scheme, so one capture supports a whole scheme
// sweep — or traces can be synthesized by external tools in the
// documented text format (see internal/trace).
//
// -trace-out attaches a sim.Tracer to the machine and writes the run's
// structured events (forced flushes, sampled metadata evictions, and
// with -observe the replay's lat:<op> instants) as Chrome trace-event
// JSON.
package main

import (
	"flag"
	"fmt"
	"os"

	"nvmstar/internal/sim"
	"nvmstar/internal/trace"
)

// main delegates to run so error paths return instead of os.Exit-ing:
// an exit mid-function skips deferred file closes, which for written
// artifacts means silently truncated traces on full disks.
func main() { os.Exit(run()) }

func run() int {
	record := flag.String("record", "", "record a workload trace to this file")
	replay := flag.String("replay", "", "replay a trace from this file")
	wl := flag.String("workload", "hash", "workload to record")
	ops := flag.Int("ops", 10000, "operations to record")
	scheme := flag.String("scheme", "star", "scheme for recording/replaying")
	dataMB := flag.Int("data-mb", 64, "protected data size in MiB")
	traceOut := flag.String("trace-out", "", "also write the run's structured events (forced flushes, sampled evictions) as Chrome trace-event JSON")
	observe := flag.Bool("observe", false, "enable the observatory on replay: print per-op tail latencies and add lat:<op> instants to -trace-out")
	flag.Parse()

	cfg := sim.Default()
	cfg.DataBytes = uint64(*dataMB) << 20
	cfg.MetaCache.SizeBytes = 256 << 10
	cfg.Scheme = *scheme
	cfg.Observe = *observe

	var err error
	switch {
	case *record != "" && *replay != "":
		err = fmt.Errorf("choose -record or -replay, not both")
	case *record != "":
		err = doRecord(cfg, *record, *wl, *ops, *traceOut)
	case *replay != "":
		err = doReplay(cfg, *replay, *traceOut)
	default:
		flag.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "startrace:", err)
		return 1
	}
	return 0
}

// newMachine builds the machine, with a tracer attached when
// -trace-out asked for one (nil otherwise).
func newMachine(cfg sim.Config, traceOut string) (*sim.Machine, *sim.Tracer, error) {
	m, err := sim.NewMachine(cfg)
	if err != nil || traceOut == "" {
		return m, nil, err
	}
	tracer := sim.NewTracer()
	m.Attach(tracer)
	return m, tracer, nil
}

// writeEventTrace writes the tracer's events (when -trace-out asked
// for them). Close errors on this written artifact are reported, not
// swallowed — a full disk must not leave a silently truncated trace
// behind.
func writeEventTrace(tracer *sim.Tracer, path string) error {
	if tracer == nil {
		return nil
	}
	tr := tracer.Trace()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d trace events to %s (load in Perfetto)\n", tr.Len(), path)
	return nil
}

func doRecord(cfg sim.Config, path, wl string, ops int, traceOut string) (err error) {
	m, tracer, merr := newMachine(cfg, traceOut)
	if merr != nil {
		return merr
	}
	f, cerr := os.Create(path)
	if cerr != nil {
		return cerr
	}
	// The trace file is a written artifact: its Close error matters on
	// every path (deferred so early error returns still close it; the
	// Close result only surfaces when nothing already failed).
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	tw := trace.NewWriter(f)
	rec := &trace.Recorder{Inner: m, CoreFn: m.CurrentCore, W: tw}
	s, err := m.NewSessionOn(wl, rec)
	if err != nil {
		return err
	}
	if err := s.StepN(ops); err != nil {
		return err
	}
	if rec.Err != nil {
		return rec.Err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses of %s (%d ops) to %s\n", tw.Count(), wl, ops, path)
	return writeEventTrace(tracer, traceOut)
}

func doReplay(cfg sim.Config, path, traceOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// Read-only file: the Close result cannot lose data.
	defer f.Close()
	entries, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	m, tracer, err := newMachine(cfg, traceOut)
	if err != nil {
		return err
	}
	res, err := m.Measure("trace", func() error {
		return trace.Replay(m, m, entries, cfg.Cores)
	})
	if err != nil {
		return err
	}
	if m.Err() != nil {
		return m.Err()
	}
	fmt.Printf("replayed %d accesses under %s:\n", len(entries), cfg.Scheme)
	fmt.Printf("  time        %.3f ms\n", res.TimeNs/1e6)
	fmt.Printf("  NVM reads   %d\n", res.Dev.Reads)
	fmt.Printf("  NVM writes  %d\n", res.Dev.Writes)
	fmt.Printf("  energy      %.2f uJ\n", res.EnergyPJ()/1e6)
	fmt.Printf("  dirty meta  %.1f%%\n", 100*res.DirtyMetaFrac)
	if res.Latency != nil {
		for _, o := range res.Latency.Ops {
			if o.Count == 0 {
				continue
			}
			fmt.Printf("  %-7s lat  p50 %.0f ns, p99 %.0f ns, max %.0f ns (%d observed)\n",
				o.Op, o.P50Ns, o.P99Ns, o.MaxNs, o.Count)
		}
	}
	return writeEventTrace(tracer, traceOut)
}
