package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"nvmstar/internal/telemetry"
)

// declared reads the metric names of one BENCHMARK.json section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var defs []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[section], &defs); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	slices.Sort(names)
	return names
}

// TestSmoke runs every workload at tiny size twice untraced and once
// traced. Each run must be correct and print exactly the metrics
// BENCHMARK.json declares for its mode, and all three must report the
// same digests.
func TestSmoke(t *testing.T) {
	names := map[bool][]string{false: declared(t, "end_to_end"), true: declared(t, "per_layer")}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			var digests []string
			for i, traced := range []bool{false, false, true} {
				dir := t.TempDir()
				args := []string{"-workload", w, "-size", "tiny", "-seconds", "0.001",
					"-json", filepath.Join(dir, "result.json"), "-trace-out", filepath.Join(dir, "trace.json")}
				if traced {
					args = append(args, "-trace", "1")
				}
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("run %d exited %d\n%s%s", i, code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("run %d: last line: %v", i, err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("run %d: correct %t, %d of %d failed\n%s", i, line.Correct, line.Failed, line.Attempted, stdout.String())
				}
				var printed []string
				for name := range line.Metrics {
					if !valid.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					printed = append(printed, name)
				}
				slices.Sort(printed)
				if !slices.Equal(printed, names[traced]) {
					t.Errorf("run %d (traced %t) printed %v, BENCHMARK.json declares %v", i, traced, printed, names[traced])
				}

				raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
				if err != nil {
					t.Fatal(err)
				}
				var doc struct{ Results []result }
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatal(err)
				}
				var ds []string
				for _, c := range doc.Results[0].Digests {
					ds = append(ds, c.Unit+" "+c.Digest)
				}
				got := strings.Join(ds, "\n")
				if i == 0 {
					digests = append(digests, got)
				} else if got != digests[0] {
					t.Errorf("run %d digests\n%s\ndiffer from run 0\n%s", i, got, digests[0])
				}

				if traced {
					raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
					if err != nil {
						t.Fatal(err)
					}
					events, err := telemetry.ParseTraceJSON(raw)
					if err != nil || len(events) == 0 {
						t.Fatalf("trace: %d events, %v", len(events), err)
					}
					spans := map[float64]bool{}
					for _, e := range events {
						spans[e.Args["span"]] = true
					}
					for _, e := range events {
						if p := e.Args["parent"]; p != 0 && !spans[p] {
							t.Errorf("span %q has an unknown parent %v", e.Name, p)
						}
					}
				}
			}
		})
	}
}
