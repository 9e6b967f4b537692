package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nvmstar/internal/shapes"
	"nvmstar/internal/sim"
	"nvmstar/internal/svgplot"
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
		name   string
		args   []string
		stderr string
	}{
		{"latency-out without observe", []string{"-exp", "report", "-latency-out", filepath.Join(t.TempDir(), "lat.json")}, "-latency-out"},
		{"unknown experiment", []string{"-exp", "fig99"}, "fig99"},
		{"empty crash points", []string{"-exp", "crash-points", "-crash-points", ","}, "-crash-points"},
		{"shapes-out outside report", []string{"-exp", "fig10", "-shapes-out", filepath.Join(t.TempDir(), "s.json")}, "-shapes-out"},
		{"unknown flag", []string{"-baseline", "x.json"}, "-baseline"},
		{"negative ops", []string{"-ops", "-3"}, "-ops -3"},
		{"zero ops", []string{"-ops", "0"}, "-ops 0"},
		{"zero seeds", []string{"-seeds", "0"}, "-seeds 0"},
		{"zero data", []string{"-data-mb", "0"}, "-data-mb 0"},
		{"zero metadata cache", []string{"-meta-kb", "0"}, "-meta-kb 0"},
		{"negative parallel", []string{"-parallel", "-1"}, "-parallel -1"},
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

// TestObserveSVGWritesLatencyCDFs runs Figs. 11-13 observed with -svg:
// besides the three figures, each workload gets a read and a write
// latency CDF, and each curve is its scheme's own run — the CDF drawn
// from solo runs' buckets renders byte for byte what the sweep wrote.
func TestObserveSVGWritesLatencyCDFs(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := runCLI(t, "-exp", "fig11", "-observe", "-svg", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("wrote %d files, want Figs. 11-13 and two CDFs", len(entries))
	}

	const ops = 300 // tiny's -ops
	want := map[string]*svgplot.CDF{}
	for _, op := range []string{"read", "write"} {
		want[op] = &svgplot.CDF{Title: op + " latency CDF: hash (300 ops)"}
	}
	for _, scheme := range []string{"wb", "star", "anubis", "strict"} {
		cfg := sim.Evaluation()
		cfg.Scheme = scheme
		cfg.Observe = true
		n := ops
		if scheme == "strict" {
			n = ops / 4
		}
		res, _, err := sim.RunScenario(cfg, "hash", n)
		if err != nil {
			t.Fatal(err)
		}
		for op, c := range want {
			if o := res.Latency.Op(op); o.Count > 0 {
				c.Series = append(c.Series, svgplot.CDFSeries{Label: scheme, BoundsNs: sim.LatencyBuckets(), Counts: o.BucketsNs})
			}
		}
	}
	for op, c := range want {
		name := "cdf_" + op + "_latency_hash.svg"
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		svg, err := c.SVG()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != svg {
			t.Errorf("%s differs from the CDF of the solo runs' buckets", name)
		}
	}
}
