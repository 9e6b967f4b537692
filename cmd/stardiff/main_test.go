package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"nvmstar/internal/provenance"
)

// manifest builds a sealed two-cell manifest over ops operations.
func manifest(ops int, digests ...string) *provenance.Manifest {
	m := &provenance.Manifest{
		Schema: provenance.SchemaVersion,
		Config: provenance.RunConfig{Fingerprint: "f00d", Ops: ops, Seeds: 1, BaseSeed: 1,
			SeedMatrix: []uint64{1}, Workloads: []string{"hash"}},
	}
	for i, d := range digests {
		m.Cells = append(m.Cells, provenance.CellRecord{Sweep: "fig10", Workload: "hash",
			Scheme: []string{"wb", "star"}[i], Digest: d})
	}
	m.Seal()
	return m
}

// write stores m under dir and returns its path.
func write(t *testing.T, dir, name string, m *provenance.Manifest) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := write(t, dir, "base.json", manifest(2000, "aaaa", "bbbb"))
	drift := write(t, dir, "drift.json", manifest(2000, "aaaa", "cccc"))
	other := write(t, dir, "other.json", manifest(4000, "aaaa", "bbbb"))
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string // substring of stdout (exit 0 and 1) or stderr (exit 2)
	}{
		{"self-compare", []string{base, base}, 0, "no drift"},
		{"drifted cell digest", []string{base, drift}, 1, "fig10/hash/star/seed0"},
		{"config mismatch", []string{base, other}, 2, "ops differ"},
		{"unreadable file", []string{base, filepath.Join(dir, "missing.json")}, 2, "missing.json"},
		{"one argument", []string{base}, 2, "usage: stardiff"},
		{"three arguments", []string{base, base, base}, 2, "usage: stardiff"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			out := stdout.String()
			if tc.code == 2 {
				out = stderr.String()
			}
			if !strings.Contains(out, tc.out) {
				t.Errorf("output does not mention %q:\n%s", tc.out, out)
			}
		})
	}
}
