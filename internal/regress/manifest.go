package regress

import (
	"fmt"
	"sort"

	"nvmstar/internal/provenance"
)

// ConfigMismatchError is the refusal CompareManifests returns when the
// two runs simulated different machines or sweeps: their cell digests
// measure different things and a diff would be meaningless.
type ConfigMismatchError struct{ Reason error }

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("regress: manifests are not comparable: %v", e.Reason)
}
func (e *ConfigMismatchError) Unwrap() error { return e.Reason }

// CompareManifests diffs two run manifests cell by cell. Digests are
// exact (the simulator is deterministic): any digest change is drift,
// localized to the workload x scheme x seed cell that diverged.
// Environment differences are informational — digests are
// machine-independent — but a differing run configuration (fingerprint,
// ops, seeds) refuses the comparison with *ConfigMismatchError.
func CompareManifests(old, new *provenance.Manifest, tol Tolerance) (*Verdict, error) {
	if err := old.Config.Comparable(new.Config); err != nil {
		return nil, &ConfigMismatchError{Reason: err}
	}
	v := &Verdict{Kind: "manifest"}
	envDiffs(v, old.Env, new.Env)

	// Fast path: the sealed digests cover config + every cell, so equal
	// seals mean zero drift without walking the cells — but only when
	// both seals actually verify, so a manifest whose cells were edited
	// without resealing still gets the per-cell walk.
	if old.Digest != "" && old.Digest == new.Digest &&
		old.Verify() == nil && new.Verify() == nil {
		v.add(Item{Kind: "cell", Name: "all cells", Status: StatusOK,
			Old: short(old.Digest), New: short(new.Digest),
			Detail: fmt.Sprintf("%d cells, sealed digests equal", len(new.Cells))})
		return v, nil
	}

	newIdx := new.CellIndex()
	seen := map[string]bool{}
	for _, oc := range old.Cells {
		key := oc.Key()
		seen[key] = true
		nc, ok := newIdx[key]
		if !ok {
			v.add(Item{Kind: "cell", Name: key, Status: StatusMissing, Old: short(oc.Digest),
				Detail: "cell disappeared from the new run"})
			continue
		}
		switch {
		case oc.Err != nc.Err:
			v.add(Item{Kind: "cell", Name: key, Status: StatusRegressed,
				Old: orText(oc.Err, "ok"), New: orText(nc.Err, "ok"),
				Detail: "cell error state changed"})
		case oc.Digest != nc.Digest:
			v.add(Item{Kind: "cell", Name: key, Status: StatusRegressed,
				Old: short(oc.Digest), New: short(nc.Digest),
				Detail: "results drifted"})
		default:
			v.add(Item{Kind: "cell", Name: key, Status: StatusOK,
				Old: short(oc.Digest), New: short(nc.Digest)})
		}
	}
	var added []string
	for key := range newIdx { //detlint:ok added keys are sorted below
		if !seen[key] {
			added = append(added, key)
		}
	}
	sort.Strings(added)
	for _, key := range added {
		v.add(Item{Kind: "cell", Name: key, Status: StatusAdded, New: short(newIdx[key].Digest)})
	}
	return v, nil
}

// envDiffs reports environment changes as informational items.
func envDiffs(v *Verdict, old, new provenance.Env) {
	pairs := []struct{ name, o, n string }{
		{"go_version", old.GoVersion, new.GoVersion},
		{"goos", old.GOOS, new.GOOS},
		{"goarch", old.GOARCH, new.GOARCH},
		{"cpu", old.CPU, new.CPU},
		{"git_rev", old.GitRev, new.GitRev},
	}
	for _, p := range pairs {
		if p.o != p.n {
			v.add(Item{Kind: "env", Name: p.name, Status: StatusInfo, Old: p.o, New: p.n})
		}
	}
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

func orText(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
