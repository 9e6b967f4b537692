package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// small is a machine small enough for a test to run every mode.
var small = []string{"-data-mb", "16", "-ops", "600"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append(append([]string(nil), small...), args...), &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun runs the command, expecting exit code want.
func mustRun(t *testing.T, want int, args ...string) string {
	t.Helper()
	code, out, errOut := runCLI(t, args...)
	if code != want {
		t.Fatalf("%v: exit %d, want %d; stdout:\n%s\nstderr:\n%s", args, code, want, out, errOut)
	}
	return out
}

func TestPlainRunPrintsStats(t *testing.T) {
	out := mustRun(t, 0)
	for _, line := range []string{"workload          hash (8 threads, 600 ops, seed 1)", "scheme            star", "NVM writes", "bitmap lines", "dirty metadata"} {
		if !strings.Contains(out, line) {
			t.Fatalf("stats block lacks %q:\n%s", line, out)
		}
	}
	if strings.Contains(out, "power failure") {
		t.Fatalf("a run without -crash crashed:\n%s", out)
	}
}

func TestCrashAuditRecoversVerified(t *testing.T) {
	out := mustRun(t, 0, "-crash", "-audit")
	if !strings.Contains(out, "recovery          star, verified=true") {
		t.Fatalf("recovery not verified:\n%s", out)
	}
	if n := strings.Count(out, "audit             clean"); n != 2 {
		t.Fatalf("want a clean audit before and after recovery, got %d:\n%s", n, out)
	}
}

func TestAttacksDetected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-attack", "replay"}, "recovery REJECTED"},
		{[]string{"-attack", "bitmap"}, "recovery REJECTED"},
		{[]string{"-scheme", "anubis", "-attack", "st"}, "recovery REJECTED"},
		{[]string{"-scheme", "strict", "-attack", "replay"}, "attack detected at first use"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out := mustRun(t, 0, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Fatalf("want %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestSchemeListEqualsSoloRuns holds a -scheme list to its contract:
// the one lock-step run prints exactly what the solo runs print, in
// list order, and exits with the largest of their exit codes.
func TestSchemeListEqualsSoloRuns(t *testing.T) {
	schemes := []string{"wb", "star", "anubis", "phoenix", "strict"}
	size := []string{"-ops", "300", "-data-mb", "8"}
	for _, flags := range [][]string{
		{"-workload", "queue"},
		{"-workload", "queue", "-observe"},
		{"-workload", "hash", "-crash", "-audit"},
	} {
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			var want strings.Builder
			wantCode := 0
			for _, s := range schemes {
				code, out, _ := runCLI(t, slices.Concat(size, flags, []string{"-scheme", s})...)
				want.WriteString(out)
				wantCode = max(wantCode, code)
			}
			code, out, errOut := runCLI(t, slices.Concat(size, flags, []string{"-scheme", strings.Join(schemes, ",")})...)
			if code != wantCode {
				t.Fatalf("list run exit %d, solo runs' largest %d; stderr:\n%s", code, wantCode, errOut)
			}
			if out != want.String() {
				t.Fatalf("list run output differs from the solo runs':\n%s\nwant:\n%s", out, want.String())
			}
		})
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"unknown attack", []string{"-attack", "rowhammer"}, "replay|bitmap|st"},
		{"bitmap attack on anubis", []string{"-scheme", "anubis", "-attack", "bitmap"}, "schemes star, not anubis"},
		{"st attack on star", []string{"-attack", "st"}, "schemes anubis, phoenix, not star"},
		{"replay attack on wb", []string{"-scheme", "wb", "-attack", "replay"}, "schemes star, anubis, phoenix, strict, not wb"},
		{"unknown flag", []string{"-baseline", "x.json"}, "-baseline"},
		{"attack on a list", []string{"-scheme", "star,strict", "-attack", "replay"}, "-attack takes one scheme"},
		{"svg on a list", []string{"-scheme", "wb,star", "-svg", "figs"}, "-svg takes one scheme"},
		{"trace-out on a list", []string{"-scheme", "wb,star", "-trace-out", "t.json"}, "-trace-out takes one scheme"},
		{"repeated scheme", []string{"-scheme", "star,wb,star"}, `-scheme lists "star" twice`},
		{"unknown scheme", []string{"-scheme", "foo"}, `-scheme foo: unknown scheme "foo"`},
		{"unknown scheme in a list", []string{"-scheme", "wb,foo"}, `-scheme wb,foo: unknown scheme "foo"`},
		{"empty scheme entry", []string{"-scheme", "star,"}, `-scheme star,: unknown scheme ""`},
		{"unknown workload", []string{"-workload", "nope"}, `-workload "nope": unknown workload`},
		{"zero ops", []string{"-ops", "0"}, "-ops 0"},
		{"negative ops", []string{"-ops", "-5"}, "-ops -5"},
		{"zero data", []string{"-data-mb", "0"}, "-data-mb 0"},
		{"zero metadata cache", []string{"-meta-kb", "0"}, "-meta-kb 0"},
		{"zero cores", []string{"-cores", "0"}, "-cores 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, errOut)
			}
			if out != "" {
				t.Fatalf("usage error printed to stdout:\n%s", out)
			}
			if !strings.Contains(errOut, tc.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.stderr, errOut)
			}
		})
	}
}
