package regress

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmstar/internal/provenance"
	"nvmstar/internal/shapes"
)

func shapeReport() *shapes.Report {
	return &shapes.Report{Checks: []shapes.Check{
		{Name: "Fig11: STAR write traffic ~1.08x WB", Pass: true, Detail: "measured 1.083x", Values: []float64{1.083}},
		{Name: "Fig12: STAR IPC >= 0.95x WB", Pass: true, Detail: "measured 0.981", Values: []float64{0.981}},
	}}
}

func TestCompareShapesSelfIsClean(t *testing.T) {
	if v := CompareShapes(shapeReport(), shapeReport(), DefaultTolerance()); v.Regressed() {
		t.Fatalf("self-compare regressed: %s", v.Markdown())
	}
}

func TestCompareShapesFlagsFlipAndDrift(t *testing.T) {
	old, new := shapeReport(), shapeReport()
	new.Checks[0].Pass = false
	new.Checks[1].Values = []float64{0.90} // ~8% drift, still passing the shape window
	v := CompareShapes(old, new, DefaultTolerance())
	if !v.Regressed() {
		t.Fatal("pass->fail flip not flagged")
	}
	var flip, drift bool
	for _, it := range v.Regressions() {
		if it.Kind == "check" && it.Name == old.Checks[0].Name {
			flip = true
		}
		if it.Kind == "value" && it.Name == old.Checks[1].Name {
			drift = true
		}
	}
	if !flip || !drift {
		t.Fatalf("missing flip/drift findings: %+v", v.Regressions())
	}
}

func manifest(digest0 string) *provenance.Manifest {
	m := &provenance.Manifest{
		Schema: provenance.SchemaVersion,
		Env:    provenance.Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8},
		Config: provenance.RunConfig{Fingerprint: "fp", Ops: 1500, Seeds: 1, BaseSeed: 1,
			SeedMatrix: []uint64{1}, Workloads: []string{"hash"}, Parallelism: 4},
		Cells: []provenance.CellRecord{
			{Sweep: "matrix", Workload: "hash", Scheme: "star", Seed: 0, Digest: digest0},
			{Sweep: "matrix", Workload: "hash", Scheme: "wb", Seed: 0, Digest: strings.Repeat("bb", 32)},
		},
	}
	m.Seal()
	return m
}

func TestCompareManifestsSelfIsClean(t *testing.T) {
	v, err := CompareManifests(manifest(strings.Repeat("aa", 32)), manifest(strings.Repeat("aa", 32)), DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if v.Regressed() {
		t.Fatalf("self-compare regressed: %s", v.Markdown())
	}
}

func TestCompareManifestsLocalizesDrift(t *testing.T) {
	old := manifest(strings.Repeat("aa", 32))
	new := manifest(strings.Repeat("cc", 32))
	v, err := CompareManifests(old, new, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	regs := v.Regressions()
	if len(regs) != 1 || regs[0].Name != "matrix/hash/star/seed0" {
		t.Fatalf("drift not localized to the diverged cell: %+v", regs)
	}
}

func TestCompareManifestsSkipsFastPathOnStaleSeal(t *testing.T) {
	old := manifest(strings.Repeat("aa", 32))
	new := manifest(strings.Repeat("aa", 32))
	// Tamper with a cell after sealing: the seals still compare equal,
	// but the equal-seal fast path must not trust an unverifiable seal.
	new.Cells[0].Digest = strings.Repeat("cc", 32)
	v, err := CompareManifests(old, new, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if regs := v.Regressions(); len(regs) != 1 || regs[0].Name != "matrix/hash/star/seed0" {
		t.Fatalf("stale-seal tampering not caught: %+v", regs)
	}
}

func TestCompareManifestsRefusesConfigMismatch(t *testing.T) {
	old := manifest(strings.Repeat("aa", 32))
	new := manifest(strings.Repeat("aa", 32))
	new.Config.Ops = 9999
	new.Seal()
	_, err := CompareManifests(old, new, DefaultTolerance())
	var mismatch *ConfigMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("expected ConfigMismatchError, got %v", err)
	}
}

func TestCompareManifestsEnvDiffIsInfo(t *testing.T) {
	old := manifest(strings.Repeat("aa", 32))
	new := manifest(strings.Repeat("aa", 32))
	new.Env.CPU = "Other CPU"
	new.Env.GitRev = "deadbee"
	v, err := CompareManifests(old, new, DefaultTolerance())
	if err != nil {
		t.Fatal(err)
	}
	if v.Regressed() {
		t.Fatalf("env-only difference must not regress: %s", v.Markdown())
	}
	if v.Counts()[StatusInfo] == 0 {
		t.Fatal("env difference not surfaced as info")
	}
}

func TestLoadTolerancePartialKeepsDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tol.json")
	if err := os.WriteFile(path, []byte(`{"value_frac": 0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tol, err := LoadTolerance(path)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultTolerance()
	if tol.ValueFrac != 0.5 || tol.LatencyFrac != def.LatencyFrac || tol.LatencyP99CeilingsNs != nil {
		t.Fatalf("partial tolerance config mishandled: %+v", tol)
	}
}

// TestLoadToleranceRejectsUnknownKeys: a misspelled key must fail the
// load, not silently leave its gate at the default (for the SLO
// ceilings, switched off).
func TestLoadToleranceRejectsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tol.json")
	if err := os.WriteFile(path, []byte(`{"latency_p99_ceiling_ns": {"star/write": 1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadTolerance(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "latency_p99_ceiling_ns") {
		t.Fatalf("misspelled key not rejected with the file named: %v", err)
	}
}

// TestLoadToleranceNamesNegativeCeilingsInOrder: with several negative
// ceilings the error names all of them, sorted, so it reads the same
// on every run.
func TestLoadToleranceNamesNegativeCeilingsInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tol.json")
	body := `{"latency_p99_ceilings_ns": {"wb/read": -1, "anubis/write": 5, "star/write": -2, "phoenix/read": -3}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, err := LoadTolerance(path)
		if err == nil || !strings.HasSuffix(err.Error(), "negative p99 ceiling for phoenix/read, star/write, wb/read") {
			t.Fatalf("error %v, want every negative pair named in sorted order", err)
		}
	}
}

func TestReadDocSniffsKinds(t *testing.T) {
	dir := t.TempDir()

	mPath := filepath.Join(dir, "manifest.json")
	if err := manifest(strings.Repeat("aa", 32)).WriteFile(mPath); err != nil {
		t.Fatal(err)
	}
	lPath := filepath.Join(dir, "latency.json")
	if err := WriteLatencyDoc(lPath, latRows()); err != nil {
		t.Fatal(err)
	}
	sPath := filepath.Join(dir, "shapes.json")
	if err := shapeReport().WriteFile(sPath); err != nil {
		t.Fatal(err)
	}

	for path, kind := range map[string]string{mPath: "manifest", lPath: "latency", sPath: "shapes"} {
		doc, err := ReadDoc(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if doc.Kind != kind {
			t.Fatalf("%s sniffed as %q, want %q", path, doc.Kind, kind)
		}
		// Self-compare through the dispatcher must be clean for every kind.
		v, err := CompareDocs(doc, doc, DefaultTolerance())
		if err != nil {
			t.Fatal(err)
		}
		if v.Regressed() {
			t.Fatalf("%s self-compare regressed: %s", kind, v.Markdown())
		}
	}

	// The retired go-test benchmark document shape is not an artifact.
	bPath := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(bPath, []byte(`{"results":[{"name":"BenchmarkX","ns_per_op":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDoc(bPath); err == nil || !strings.Contains(err.Error(), "unrecognized document") {
		t.Fatalf("benchmark document not rejected as unrecognized: %v", err)
	}

	if _, err := CompareDocs(&Doc{Kind: "latency"}, &Doc{Kind: "shapes"}, DefaultTolerance()); err == nil {
		t.Fatal("kind mismatch not rejected")
	}
}

// FuzzReadDoc: stardiff reads arbitrary files from disk, so for any
// input ReadDoc returns a document or an error, and a self-compare of
// whatever it returns must not panic.
func FuzzReadDoc(f *testing.F) {
	for _, seed := range []string{"../../BASELINE_manifest.json", "../../BASELINE_shapes.json"} {
		b, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	lPath := filepath.Join(f.TempDir(), "latency.json")
	if err := WriteLatencyDoc(lPath, latRows()); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(lPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"results":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := ReadDoc(path)
		if err != nil {
			return
		}
		if _, err := CompareDocs(d, d, DefaultTolerance()); err != nil {
			t.Logf("self-compare refused: %v", err)
		}
	})
}

// FuzzLoadTolerance: the gates read their tolerance from a committed
// file, so for any input LoadTolerance returns a tolerance or an
// error. A tolerance it accepts came from exactly one JSON object and
// never makes a self-compare regress.
func FuzzLoadTolerance(f *testing.F) {
	for _, seed := range []string{"../../regress.tolerance.json", "../../regress.latency.tolerance.json"} {
		b, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A negative fraction used to load and flag every value as drift.
	f.Add([]byte(`{"value_frac": -0.5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tol.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tol, err := LoadTolerance(path)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted a file that is not one JSON value: %q", data)
		}
		if v := CompareShapes(shapeReport(), shapeReport(), tol); v.Regressed() {
			t.Fatalf("tolerance %+v makes a shapes self-compare regress:\n%s", tol, v.Markdown())
		}
		doc := &LatencyDoc{Schema: LatencyDocSchema, Latency: latRows()}
		CompareLatency(doc, doc, tol)
	})
}
