package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

func TestRecordReplay(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.trc"), filepath.Join(dir, "b.trc")
	mustRun(t, 0, "-record", a)
	mustRun(t, 0, "-record", b)
	ta, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta) == 0 || !bytes.Equal(ta, tb) {
		t.Fatalf("two recordings differ (%d vs %d bytes)", len(ta), len(tb))
	}

	out := mustRun(t, 0, "-replay", a, "-observe")
	m := regexp.MustCompile(`(?m)^NVM writes +(\d+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("replay prints no NVM writes line:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("replay wrote nothing to NVM:\n%s", out)
	}
	if !strings.Contains(out, "read latency") {
		t.Fatalf("-observe printed no latency tails:\n%s", out)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"record and replay", []string{"-record", "a.trc", "-replay", "b.trc"}, "not both"},
		{"unknown attack", []string{"-attack", "rowhammer"}, "replay|bitmap|st"},
		{"bitmap attack on anubis", []string{"-scheme", "anubis", "-attack", "bitmap"}, "schemes star, not anubis"},
		{"st attack on star", []string{"-attack", "st"}, "schemes anubis, phoenix, not star"},
		{"replay attack on wb", []string{"-scheme", "wb", "-attack", "replay"}, "schemes star, anubis, phoenix, strict, not wb"},
		{"unknown flag", []string{"-baseline", "x.json"}, "-baseline"},
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
