// Command tracecheck validates a Chrome trace-event JSON file as
// produced by -trace-out (starplot -timeline, startrace, starbench):
// it must parse in either the object or bare-array form Perfetto
// accepts and contain at least -min events. The CI verify-telemetry target uses it
// as the machine check that tracing produced a loadable, non-empty
// trace. With -names it additionally validates every event's name
// against the simulator's known emission points — crash/recovery
// phases, secmem flush events, the "attr:<cause>" attribution
// instants and the "lat:<op>" latency-observatory instants — so a
// renamed or misspelled emitter fails CI instead of silently breaking
// trace consumers.
//
//	tracecheck -min 1 -names figures/timeline_trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nvmstar/internal/nvm"
	"nvmstar/internal/sim"
	"nvmstar/internal/telemetry"
)

func main() {
	min := flag.Int("min", 1, "minimum number of trace events required")
	names := flag.Bool("names", false, "validate event names against the simulator's known emission points")
	quiet := flag.Bool("q", false, "suppress per-file summaries")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-min N] [-names] file.json...")
		os.Exit(2)
	}
	code := 0
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracecheck:", err)
			code = 1
			continue
		}
		events, err := telemetry.ParseTraceJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			code = 1
			continue
		}
		if len(events) < *min {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %d events, want at least %d\n", path, len(events), *min)
			code = 1
			continue
		}
		if *names {
			if bad := checkNames(events); len(bad) > 0 {
				for _, v := range bad {
					fmt.Fprintf(os.Stderr, "tracecheck: %s: %s\n", path, v)
				}
				code = 1
				continue
			}
		}
		if !*quiet {
			fmt.Printf("%s: ok (%d events)\n", path, len(events))
		}
	}
	os.Exit(code)
}

// checkNames validates event names per category against the
// simulator's emission points (sim.Tracer in
// internal/sim/telemetry.go). Categories with
// free-form names — sweep lanes (one per cell), counter series — are
// not constrained. Returns one violation string per bad (cat, name)
// pair, deduplicated.
func checkNames(events []telemetry.Event) []string {
	var out []string
	seen := map[[2]string]bool{}
	for _, e := range events {
		if nameOK(e) {
			continue
		}
		key := [2]string{e.Cat, e.Name}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, fmt.Sprintf("unknown event %q in category %q", e.Name, e.Cat))
	}
	return out
}

func nameOK(e telemetry.Event) bool {
	switch e.Cat {
	case "sim":
		if e.Name == "crash" {
			return true
		}
		if op, ok := strings.CutPrefix(e.Name, "lat:"); ok {
			return sim.ValidLatOpName(op)
		}
		scheme, ok := strings.CutPrefix(e.Name, "recovery:")
		return ok && scheme != ""
	case "recovery":
		switch e.Name {
		case "scan_index", "restore_nodes", "write_back":
			return true
		}
		cause, ok := strings.CutPrefix(e.Name, "attr:")
		return ok && nvm.ValidCauseName(cause)
	case "secmem":
		return e.Name == "forced_flush" || e.Name == "meta_evict"
	default:
		// Sweep lanes ("workload/scheme"), counter timelines and other
		// tools' categories are free-form.
		return true
	}
}
