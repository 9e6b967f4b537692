package provenance

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nvmstar/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCanonicalJSONSortsKeysAndIsStable(t *testing.T) {
	a := map[string]any{"b": 1, "a": map[string]any{"z": true, "y": "s"}}
	got1, err := CanonicalJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := CanonicalJSON(a)
	if !bytes.Equal(got1, got2) {
		t.Fatalf("canonical JSON not stable: %s vs %s", got1, got2)
	}
	want := `{"a":{"y":"s","z":true},"b":1}`
	if string(got1) != want {
		t.Fatalf("canonical JSON = %s, want %s", got1, want)
	}
}

func TestCanonicalJSONPreservesLargeIntegers(t *testing.T) {
	// 2^63-1 is not representable as float64; a naive decode/encode
	// round-trip would corrupt it and silently change digests.
	v := struct {
		N uint64 `json:"n"`
	}{N: 1<<63 - 1}
	b, err := CanonicalJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"n":9223372036854775807}`; string(b) != want {
		t.Fatalf("canonical JSON = %s, want %s", b, want)
	}
}

func TestDigestDistinguishesValues(t *testing.T) {
	d1, err := Digest(map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := Digest(map[string]int{"x": 2})
	if d1 == d2 {
		t.Fatal("digests of distinct values collide")
	}
	if len(d1) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(d1))
	}
}

func TestConfigFingerprintIsSeedless(t *testing.T) {
	a := sim.Default()
	b := sim.Default()
	b.Seed = a.Seed + 12345
	if ConfigFingerprint(a) != ConfigFingerprint(b) {
		t.Fatal("fingerprint depends on the seed")
	}
	c := sim.Default()
	c.DataBytes *= 2
	if ConfigFingerprint(a) == ConfigFingerprint(c) {
		t.Fatal("fingerprint misses a config difference")
	}
}

// TestConfigFingerprintPinned pins the fingerprint of the committed
// regression baseline's configuration to the value sealed in
// BASELINE_manifest.json. It fails whenever fingerprintConfig's %+v
// rendering changes — e.g. if someone adds a sim.Config field to the
// mirror instead of mixing it into the suffix — which would silently
// orphan every sealed manifest.
func TestConfigFingerprintPinned(t *testing.T) {
	cfg := sim.Evaluation()
	const sealed = "af95daf385fd0bdc2400319d8089f6caf145ee4f445bcf91cbe69e34a93d8add"
	if got := ConfigFingerprint(cfg); got != sealed {
		t.Fatalf("baseline config fingerprint drifted:\n got %s\nwant %s", got, sealed)
	}
}

// TestConfigFingerprintAttrDistinct checks that an observed config
// never fingerprints equal to the unobserved one: its cell results
// carry WriteBreakdown and Latency.
func TestConfigFingerprintAttrDistinct(t *testing.T) {
	a := sim.Default()
	b := sim.Default()
	b.Observe = true
	if ConfigFingerprint(a) == ConfigFingerprint(b) {
		t.Fatal("observed config must not fingerprint equal to the unobserved baseline: its cell results carry WriteBreakdown and Latency")
	}
}

// TestConfigFingerprintLatencyDistinct pins the observed baseline
// config to the value that manifests of attributed, latency-recording
// runs were sealed with: Observe hashes the "+attr+lat" suffix, kept
// distinct from the write-cause-only and latency-only configs that
// earlier manifests also carry.
func TestConfigFingerprintLatencyDistinct(t *testing.T) {
	cfg := sim.Evaluation()
	cfg.Observe = true
	const sealed = "48aaa453742f7b1aee738ba51957b9b043adcb7a0381f67702e31c034cc009cd"
	if got := ConfigFingerprint(cfg); got != sealed {
		t.Fatalf("observed baseline config fingerprint drifted:\n got %s\nwant %s", got, sealed)
	}
}

func TestCaptureEnv(t *testing.T) {
	env := CaptureEnv("abc123")
	if env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" || env.NumCPU <= 0 {
		t.Fatalf("incomplete env: %+v", env)
	}
	if env.GitRev != "abc123" {
		t.Fatalf("git rev override ignored: %+v", env)
	}
}

func TestCollectorDeterministicOrder(t *testing.T) {
	// Record the same cells from concurrent goroutines in scrambled
	// order; Cells must come back identically sorted.
	mk := func() *Collector {
		c := NewCollector()
		var wg sync.WaitGroup
		for _, rec := range []CellRecord{
			{Sweep: "matrix", Workload: "queue", Scheme: "star", Seed: 1},
			{Sweep: "matrix", Workload: "array", Scheme: "wb", Seed: 0},
			{Sweep: "fig14b", Workload: "hash", Scheme: "star", Label: "meta-kb=256"},
			{Sweep: "fig14b", Workload: "hash", Scheme: "star", Label: "meta-kb=128"},
		} {
			wg.Add(1)
			go func(r CellRecord) {
				defer wg.Done()
				c.Record(r.Sweep, r.Workload, r.Scheme, r.Seed, r.Label, time.Millisecond,
					map[string]string{"cell": r.Workload + r.Label}, nil)
			}(rec)
		}
		wg.Wait()
		return c
	}
	a, b := mk().Cells(), mk().Cells()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("lost records: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() || a[i].Digest != b[i].Digest {
			t.Fatalf("order or digest not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].Sweep != "fig14b" || a[0].Label != "meta-kb=128" {
		t.Fatalf("unexpected sort order: %+v", a[0])
	}
}

func TestCollectorRecordsErrors(t *testing.T) {
	c := NewCollector()
	c.Record("matrix", "hash", "star", 0, "", time.Second, nil, os.ErrDeadlineExceeded)
	cells := c.Cells()
	if len(cells) != 1 || cells[0].Err == "" || cells[0].Digest != "" {
		t.Fatalf("error cell not recorded as such: %+v", cells)
	}
}

// goldenManifest is a fully populated manifest with fixed values — no
// clocks, no environment probes — so its JSON is reproducible.
func goldenManifest() *Manifest {
	m := &Manifest{
		Schema:    SchemaVersion,
		CreatedAt: "2026-01-02T03:04:05Z",
		Env: Env{
			GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 8, CPU: "Example CPU @ 2.70GHz", GitRev: "abc1234",
		},
		Config: RunConfig{
			Fingerprint: ConfigFingerprint(sim.Default()),
			Ops:         1500, Seeds: 2, BaseSeed: 1,
			SeedMatrix:  []uint64{1, 7920},
			Workloads:   []string{"array", "hash"},
			Parallelism: 4,
		},
		Stats:     RunnerStats{CellsDone: 3, MachinesBuilt: 2, MachinesReused: 1, CellsPerSec: 1.5},
		WallNs:    2_000_000_000,
		SimTimeNs: 123456.5,
		Cells: []CellRecord{
			{Sweep: "matrix", Workload: "array", Scheme: "star", Seed: 0,
				Digest: strings.Repeat("ab", 32), SimTimeNs: 61728.25, WallNs: 900_000_000},
			{Sweep: "matrix", Workload: "array", Scheme: "star", Seed: 1,
				Digest: strings.Repeat("cd", 32), SimTimeNs: 61728.25, WallNs: 800_000_000},
			{Sweep: "matrix", Workload: "hash", Scheme: "wb", Seed: 0,
				Label: "smoke", Err: "context canceled", WallNs: 300_000_000},
		},
	}
	m.Seal()
	return m
}

// TestGoldenManifestRoundTrip pins the manifest schema: the committed
// golden file must unmarshal and re-marshal byte-identically, and its
// recorded digest must still verify. A failure means the schema
// changed — bump SchemaVersion and regenerate with -update.
func TestGoldenManifestRoundTrip(t *testing.T) {
	path := filepath.Join("testdata", "golden_manifest.json")
	m := goldenManifest()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/provenance -update)", err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("golden manifest drifted from schema:\n--- want\n%s\n--- got\n%s", want, b)
	}

	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(loaded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), want) {
		t.Fatal("manifest does not round-trip through JSON unchanged")
	}
}

func TestManifestVerifyCatchesTampering(t *testing.T) {
	m := goldenManifest()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	m.Cells[0].Digest = strings.Repeat("ee", 32)
	if err := m.Verify(); err == nil {
		t.Fatal("Verify missed an edited cell digest")
	}
}

func TestReadFileRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	m := goldenManifest()
	m.Schema = SchemaVersion + 1
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted an unknown schema")
	}
}
