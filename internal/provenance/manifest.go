package provenance

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion identifies the manifest layout; comparators refuse
// manifests from a different schema.
const SchemaVersion = 1

// RunConfig is the sweep-defining part of a manifest: two manifests
// are comparable only when their RunConfigs match (same machine
// fingerprint, ops, seeds and workload set — everything that shapes
// the simulated results; parallelism is recorded but excluded from
// comparability, since cell results are bit-identical at any pool
// width).
type RunConfig struct {
	Fingerprint string   `json:"fingerprint"` // seedless sim.Config fingerprint
	Ops         int      `json:"ops"`
	Seeds       int      `json:"seeds"`
	BaseSeed    uint64   `json:"base_seed"`
	SeedMatrix  []uint64 `json:"seed_matrix"` // derived PRNG seed per seed index
	Workloads   []string `json:"workloads"`
	Parallelism int      `json:"parallelism"`
}

// Comparable reports whether two run configurations produce
// directly comparable cell digests.
func (c RunConfig) Comparable(o RunConfig) error {
	switch {
	case c.Fingerprint != o.Fingerprint:
		return fmt.Errorf("config fingerprints differ (%.12s vs %.12s)", c.Fingerprint, o.Fingerprint)
	case c.Ops != o.Ops:
		return fmt.Errorf("ops differ (%d vs %d)", c.Ops, o.Ops)
	case c.Seeds != o.Seeds:
		return fmt.Errorf("seed counts differ (%d vs %d)", c.Seeds, o.Seeds)
	case c.BaseSeed != o.BaseSeed:
		return fmt.Errorf("base seeds differ (%d vs %d)", c.BaseSeed, o.BaseSeed)
	}
	return nil
}

// RunnerStats is the experiment runner's final pool accounting,
// embedded so a manifest also records how the sweep was produced
// (machine reuse extends the Reset invariant: reused cells must digest
// identically to fresh ones).
type RunnerStats struct {
	CellsDone      int64   `json:"cells_done"`
	MachinesBuilt  int64   `json:"machines_built"`
	MachinesReused int64   `json:"machines_reused"`
	CellsPerSec    float64 `json:"cells_per_sec"`
}

// CellRecord is one completed cell: its identity within the run and
// the digest of its canonical-JSON results. Wall time is environment
// noise and excluded from the manifest digest; simulated time is part
// of the digested results already and recorded here only for the
// aggregate.
type CellRecord struct {
	Sweep     string  `json:"sweep"`
	Workload  string  `json:"workload"`
	Scheme    string  `json:"scheme"`
	Seed      int     `json:"seed"`
	Label     string  `json:"label,omitempty"`
	Digest    string  `json:"digest,omitempty"`
	SimTimeNs float64 `json:"sim_time_ns,omitempty"`
	WallNs    int64   `json:"wall_ns,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// Key identifies the cell across manifests.
func (c CellRecord) Key() string {
	k := fmt.Sprintf("%s/%s/%s/seed%d", c.Sweep, c.Workload, c.Scheme, c.Seed)
	if c.Label != "" {
		k += "/" + c.Label
	}
	return k
}

// Manifest is the provenance record of one run: who ran what, where,
// and a per-cell digest trail. CreatedAt, Env, WallNs and per-cell
// wall times vary run to run; everything under Config and the cells'
// identities/digests must not, and the top-level Digest seals exactly
// that invariant subset.
type Manifest struct {
	Schema    int          `json:"schema"`
	CreatedAt string       `json:"created_at,omitempty"` // RFC3339, caller-stamped
	Env       Env          `json:"env"`
	Config    RunConfig    `json:"config"`
	Stats     RunnerStats  `json:"stats"`
	WallNs    int64        `json:"wall_ns"`
	SimTimeNs float64      `json:"sim_time_ns"`
	Cells     []CellRecord `json:"cells"`
	Digest    string       `json:"digest"`
}

// cellIdentity is the digested subset of a cell record.
type cellIdentity struct {
	Sweep    string `json:"sweep"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Seed     int    `json:"seed"`
	Label    string `json:"label,omitempty"`
	Digest   string `json:"digest,omitempty"`
	Err      string `json:"err,omitempty"`
}

// ComputeDigest digests the run-invariant subset of the manifest: the
// config block plus every cell's identity and result digest (not its
// wall time). Two manifests of the same code at the same config have
// equal digests regardless of machine, pool width or scheduling.
func (m *Manifest) ComputeDigest() string {
	ids := make([]cellIdentity, len(m.Cells))
	for i, c := range m.Cells {
		ids[i] = cellIdentity{
			Sweep: c.Sweep, Workload: c.Workload, Scheme: c.Scheme,
			Seed: c.Seed, Label: c.Label, Digest: c.Digest, Err: c.Err,
		}
	}
	// Pool width is recorded but does not shape results (cells are
	// bit-identical at any parallelism), so it is excluded from the
	// sealed invariant.
	cfg := m.Config
	cfg.Parallelism = 0
	d, err := Digest(struct {
		Schema int            `json:"schema"`
		Config RunConfig      `json:"config"`
		Cells  []cellIdentity `json:"cells"`
	}{m.Schema, cfg, ids})
	if err != nil {
		// Plain structs of strings and numbers cannot fail to marshal;
		// return an impossible digest rather than panicking if they do.
		return "digest-error:" + err.Error()
	}
	return d
}

// Seal stamps the manifest's digest.
func (m *Manifest) Seal() { m.Digest = m.ComputeDigest() }

// Verify recomputes the digest and reports a mismatch (a hand-edited
// or truncated manifest).
func (m *Manifest) Verify() error {
	if got := m.ComputeDigest(); got != m.Digest {
		return fmt.Errorf("provenance: manifest digest mismatch: recorded %.12s, recomputed %.12s", m.Digest, got)
	}
	return nil
}

// CellIndex returns the cells keyed by identity for cross-manifest
// comparison.
func (m *Manifest) CellIndex() map[string]CellRecord {
	idx := make(map[string]CellRecord, len(m.Cells))
	for _, c := range m.Cells {
		idx[c.Key()] = c
	}
	return idx
}

// WriteFile marshals the manifest (indented, trailing newline) to
// path.
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a manifest and rejects unknown schemas.
func ReadFile(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("provenance: %s: %w", path, err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("provenance: %s: unsupported manifest schema %d (want %d)", path, m.Schema, SchemaVersion)
	}
	return &m, nil
}
