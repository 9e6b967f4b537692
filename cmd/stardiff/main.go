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
	"io"
	"os"

	"nvmstar/internal/regress"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams, returning
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stardiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tolPath := fs.String("tol", "", "tolerance config JSON (default: built-in thresholds)")
	quiet := fs.Bool("q", false, "suppress the markdown report; exit code only")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: stardiff [-tol file] [-q] old.json new.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "stardiff:", err)
		return 2
	}

	tol := regress.DefaultTolerance()
	if *tolPath != "" {
		var err error
		if tol, err = regress.LoadTolerance(*tolPath); err != nil {
			return fail(err)
		}
	}
	old, err := regress.ReadDoc(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	new, err := regress.ReadDoc(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	v, err := regress.CompareDocs(old, new, tol)
	if err != nil {
		return fail(err)
	}
	if !*quiet {
		fmt.Fprintf(stdout, "# stardiff: %s\n\n%s vs %s\n\n%s", v.Kind, fs.Arg(0), fs.Arg(1), v.Markdown())
	}
	if v.Regressed() {
		return 1
	}
	return 0
}
