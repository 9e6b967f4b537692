// Command starsim runs one benchmark workload on the simulated secure
// NVM machine under a chosen metadata persistence scheme and prints
// detailed statistics:
//
//	starsim -workload hash -scheme star -ops 20000
//
// Available workloads: array, btree, hash, queue, rbtree, tpcc, ycsb.
// Available schemes: wb (write-back baseline, no recovery), strict
// (write-through persistence), anubis (shadow table), star (the
// paper's scheme), phoenix (Anubis's shadow table for tree nodes plus
// Osiris-style counter blocks, an extension).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
	"nvmstar/internal/workload"
)

// main delegates to run so deferred cleanup in future growth (and the
// startrace/starplot exit-code convention) holds here too: error paths
// return an exit code instead of calling os.Exit mid-function.
func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "hash", "workload: "+strings.Join(workload.Names(), "|"))
	scheme := flag.String("scheme", "star", "scheme: wb|strict|anubis|star|phoenix")
	ops := flag.Int("ops", 20000, "measured operations")
	dataMB := flag.Int("data-mb", 64, "protected data size in MiB")
	metaKB := flag.Int("meta-kb", 256, "metadata cache size in KiB")
	cores := flag.Int("cores", 8, "cores / workload threads")
	seed := flag.Uint64("seed", 1, "workload PRNG seed")
	crash := flag.Bool("crash", false, "crash after the run and attempt recovery")
	audit := flag.Bool("audit", false, "audit the full metadata tree after the run (and after recovery)")
	flag.Parse()

	cfg := sim.Default()
	cfg.DataBytes = uint64(*dataMB) << 20
	cfg.MetaCache.SizeBytes = *metaKB << 10
	cfg.Cores = *cores
	cfg.Scheme = *scheme
	cfg.Seed = *seed

	m, err := sim.NewMachine(cfg)
	if err != nil {
		return fail(err)
	}
	var res *sim.Results
	if *crash {
		res, err = m.RunUnverified(*wl, *ops)
	} else {
		res, err = m.Run(*wl, *ops)
	}
	if err != nil {
		return fail(err)
	}

	fmt.Printf("workload          %s (%d threads, %d ops, seed %d)\n", *wl, *cores, *ops, *seed)
	fmt.Printf("scheme            %s\n", res.Scheme)
	fmt.Printf("instructions      %d\n", res.Instructions)
	fmt.Printf("time              %.3f ms\n", res.TimeNs/1e6)
	fmt.Printf("IPC               %.4f\n", res.IPC)
	fmt.Printf("NVM reads         %d (%.2f/op)\n", res.Dev.Reads, float64(res.Dev.Reads)/float64(*ops))
	fmt.Printf("NVM writes        %d (%.2f/op)\n", res.Dev.Writes, float64(res.Dev.Writes)/float64(*ops))
	fmt.Printf("  user data       %d\n", res.Engine.DataNVMWrites)
	fmt.Printf("  metadata        %d\n", res.Engine.MetaNVMWrites)
	fmt.Printf("  forced flushes  %d\n", res.Engine.ForcedFlushes)
	if res.Bitmap != nil {
		fmt.Printf("  bitmap lines    %d written, %d read (ADR hit ratio %.2f%%)\n",
			res.Bitmap.NVMWrites(), res.Bitmap.NVMReads(), 100*res.Bitmap.HitRatio())
	}
	if res.Anubis != nil {
		fmt.Printf("  shadow table    %d written\n", res.Anubis.STWrites)
	}
	fmt.Printf("energy            %.2f uJ\n", res.EnergyPJ()/1e6)
	fmt.Printf("dirty metadata    %d/%d lines (%.1f%%)\n",
		res.DirtyMetaLines, res.MetaCacheLines, 100*res.DirtyMetaFrac)

	if *audit {
		reportAudit(m)
	}

	if *crash {
		fmt.Println("\n-- power failure --")
		m.Crash()
		rep, err := m.Recover()
		if err != nil {
			fmt.Printf("recovery FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("recovery          %s, verified=%v\n", rep.Scheme, rep.Verified)
		fmt.Printf("stale nodes       %d\n", rep.StaleNodes)
		fmt.Printf("line accesses     %d index + %d node reads + %d writes\n",
			rep.IndexReads, rep.NodeReads, rep.NodeWrites)
		ph := rep.PhaseTimes()
		fmt.Printf("recovery time     %.4f s (at %.0f ns/line: %.0f us scan + %.0f us restore + %.0f us write-back)\n",
			rep.TimeSeconds(), secmem.RecoveryLineNs, ph.ScanNs/1e3, ph.RestoreNs/1e3, ph.WritebackNs/1e3)
		if *audit {
			reportAudit(m)
		}
	}
	return 0
}

func reportAudit(m *sim.Machine) {
	violations := m.Engine().AuditTree()
	badData := m.Engine().AuditData()
	if len(violations) == 0 && len(badData) == 0 {
		fmt.Println("audit             clean (every NVM metadata block and data line consistent)")
		return
	}
	fmt.Printf("audit             %d metadata violations, %d bad data lines\n", len(violations), len(badData))
	for i, v := range violations {
		if i == 8 {
			fmt.Println("                  ...")
			break
		}
		fmt.Printf("                  %s\n", v)
	}
}

// fail reports err and returns the exit code for run to propagate.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "starsim:", err)
	return 1
}
