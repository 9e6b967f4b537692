// Command stardiff compares two nvmstar measurement artifacts — run
// provenance manifests, shapes reports, or tail-latency documents —
// and renders a markdown verdict. The artifact kind is sniffed from the
// JSON, so the same invocation works for all three:
//
//	stardiff [-tol regress.tolerance.json] old.json new.json
//
// Exit codes: 0 clean (drift within tolerance), 1 regression detected,
// 2 usage error, unreadable or unrecognized input, or refused
// comparison (different run configs — the numbers measure different
// things).
package main

import (
	"flag"
	"fmt"
	"os"

	"nvmstar/internal/regress"
)

func main() {
	tolPath := flag.String("tol", "", "tolerance config JSON (default: built-in thresholds)")
	quiet := flag.Bool("q", false, "suppress the markdown report; exit code only")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: stardiff [-tol file] [-q] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	tol := regress.DefaultTolerance()
	if *tolPath != "" {
		var err error
		if tol, err = regress.LoadTolerance(*tolPath); err != nil {
			fatal(err)
		}
	}

	old, err := regress.ReadDoc(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	new, err := regress.ReadDoc(flag.Arg(1))
	if err != nil {
		fatal(err)
	}

	v, err := regress.CompareDocs(old, new, tol)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("# stardiff: %s\n\n%s vs %s\n\n%s", v.Kind, flag.Arg(0), flag.Arg(1), v.Markdown())
	}
	if v.Regressed() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stardiff:", err)
	os.Exit(2)
}
