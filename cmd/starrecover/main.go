// Command starrecover demonstrates crash recovery and attack
// detection end to end: it runs a workload, pulls the plug, optionally
// lets an attacker replay an old (data, MAC, LSB) tuple or tamper with
// the recovery area, and then attempts recovery.
//
//	starrecover -scheme star -workload btree
//	starrecover -scheme star -attack replay     # detected, recovery fails
//	starrecover -scheme star -attack bitmap     # detected, recovery fails
//	starrecover -scheme anubis -attack st       # detected, recovery fails
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"nvmstar/internal/attack"
	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sim"
)

// main delegates to run so error paths return exit codes instead of
// calling os.Exit mid-function (which would skip deferred cleanup if
// any is ever added — the bug class fixed in startrace and starplot).
func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "btree", "workload to run before the crash")
	scheme := flag.String("scheme", "star", "scheme: wb|strict|anubis|star|phoenix")
	ops := flag.Int("ops", 10000, "operations before the crash")
	atk := flag.String("attack", "none", "attack during recovery: none|replay|bitmap|st")
	flag.Parse()

	cfg := sim.Default()
	cfg.DataBytes = 64 << 20
	cfg.MetaCache.SizeBytes = 256 << 10
	cfg.Scheme = *scheme

	m, err := sim.NewMachine(cfg)
	if err != nil {
		return fail(err)
	}
	engine := m.Engine()

	// A replay attack needs an old consistent tuple: write a line,
	// snapshot it, write it again so the snapshot goes stale. The
	// second write happens after the workload so the victim's counter
	// block is dirty (stale in NVM) at the crash — the replayed child
	// is then an input to recovery and the cache-tree must expose it.
	const victimAddr = 42 * memline.Size
	if err := engine.WriteLine(victimAddr, memline.Line{1}); err != nil {
		return fail(err)
	}
	snap := attack.SnapshotData(engine, victimAddr)

	fmt.Printf("running %s/%s for %d ops...\n", *wl, *scheme, *ops)
	if _, err := m.RunUnverified(*wl, *ops); err != nil {
		return fail(err)
	}
	if err := engine.WriteLine(victimAddr, memline.Line{2}); err != nil {
		return fail(err)
	}
	dirty := engine.MetaCache().DirtyCount()
	fmt.Printf("dirty metadata lines at crash: %d\n", dirty)

	fmt.Println("-- power failure --")
	m.Crash()

	switch *atk {
	case "none":
	case "replay":
		fmt.Println("attacker replays an old (data, MAC, LSB) tuple...")
		snap.Replay(engine)
	case "bitmap":
		fmt.Println("attacker flips bits in a recovery-area bitmap line...")
		for bit := uint(0); bit < 64; bit++ {
			if err := attack.TamperBitmapLine(engine, 0, bit); err != nil {
				return fail(err)
			}
		}
	case "st":
		fmt.Println("attacker tampers with a shadow-table block...")
		geo := engine.Geometry()
		for slot := uint64(0); slot < geo.STLines(); slot++ {
			if _, present := engine.Device().Peek(geo.STAddr(slot)); present {
				if err := attack.TamperST(engine, slot, 7); err != nil {
					return fail(err)
				}
				break
			}
		}
	default:
		return fail(fmt.Errorf("unknown attack %q", *atk))
	}

	rep, err := m.Recover()
	switch {
	case errors.Is(err, secmem.ErrRecoveryVerification):
		fmt.Printf("recovery REJECTED: %v\n", err)
		fmt.Println("the attack was detected; the system refuses the corrupted state")
		return 0
	case errors.Is(err, secmem.ErrRecoveryUnsupported):
		fmt.Println("scheme cannot recover: stale metadata remain broken after the crash")
		return 0
	case err != nil:
		return fail(err)
	}
	fmt.Printf("recovery OK: %d stale nodes restored, %d line accesses, %.4f s, verified=%v\n",
		rep.StaleNodes, rep.LineAccesses(), rep.TimeSeconds(), rep.Verified)

	// Prove the restored state is usable: read the victim line back.
	// If an attack slipped past recovery because it hit
	// recovery-unrelated metadata, this first use detects it (the
	// paper's Section III-F: such attacks "will be detected by SIT
	// root or other verified nodes in the cache during running time").
	got, err := engine.ReadLine(victimAddr)
	var ierr *secmem.IntegrityError
	if errors.As(err, &ierr) {
		fmt.Printf("attack detected at first use: %v\n", err)
		return 0
	}
	if err != nil {
		return fail(err)
	}
	fmt.Printf("post-recovery read of victim line: %d (want 2)\n", got[0])
	return 0
}

// fail reports err and returns the exit code for run to propagate.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "starrecover:", err)
	return 1
}
