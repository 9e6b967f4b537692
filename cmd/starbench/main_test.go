package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nvmstar/internal/shapes"
)

// tiny is the smallest sweep that still reaches every experiment.
var tiny = []string{"-workloads", "hash", "-ops", "300", "-parallel", "2", "-progress=false"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append(append([]string(nil), tiny...), args...), &out, &errb)
	return code, out.String(), errb.String()
}

func TestReportWritesShapesDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shapes.json")
	code, out, errOut := runCLI(t, "-exp", "report", "-gate=false", "-shapes-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.HasPrefix(out, "# Shape report: paper vs. measured\n") {
		t.Fatalf("stdout is not the shape report:\n%s", out)
	}
	rep, err := shapes.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) == 0 || len(rep.Scheme) == 0 {
		t.Fatalf("shape report has no checks or rows: %+v", rep)
	}
	again := filepath.Join(t.TempDir(), "again.json")
	if err := rep.WriteFile(again); err != nil {
		t.Fatal(err)
	}
	back, err := shapes.ReadReport(again)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatal("shape report does not round-trip through WriteFile/ReadReport")
	}
	if out != rep.Markdown() {
		t.Fatal("stdout differs from the written report's markdown")
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"latency-out without observe", []string{"-exp", "report", "-latency-out", filepath.Join(t.TempDir(), "lat.json")}},
		{"unknown experiment", []string{"-exp", "fig99"}},
		{"empty crash points", []string{"-exp", "crash-points", "-crash-points", ","}},
		{"shapes-out outside report", []string{"-exp", "fig10", "-shapes-out", filepath.Join(t.TempDir(), "s.json")}},
		{"unknown flag", []string{"-baseline", "x.json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, errOut)
			}
			if out != "" {
				t.Fatalf("usage error printed to stdout:\n%s", out)
			}
		})
	}
}

func TestSVGWritesEveryFigure(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runCLI(t, "-exp", "all", "-svg", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "== Fig. 10:") || !strings.Contains(out, "== Ablation:") {
		t.Fatalf("-exp all tables missing from stdout:\n%s", out)
	}
	for _, name := range []string{
		"fig10_bitmap_writes.svg", "fig11_write_traffic.svg", "fig12_ipc.svg",
		"fig13_energy.svg", "fig14a_dirty_fraction.svg", "fig14b_recovery_time.svg",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte("<svg")) {
			t.Fatalf("%s is not an SVG document (%d bytes)", name, len(b))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("wrote %d files, want the six figures", len(entries))
	}
}
