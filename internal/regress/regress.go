// Package regress is the repository's statistical regression
// observatory: a benchstat-style comparator over the three kinds of
// committed evaluation artifacts — provenance run manifests,
// shapes.Report reproduction reports, and tail-latency documents.
// Each comparison yields a Verdict of per-item findings (ok /
// improved / regressed / missing / added) under a configurable noise
// tolerance; cmd/stardiff renders the verdict as markdown and `make
// regress` gates CI on it. Manifest comparisons refuse when the run
// configurations differ (different sweeps are not comparable), but
// tolerate env differences because cell digests are
// machine-independent.
package regress

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Tolerance is the noise model of a comparison: relative drift below
// the per-dimension fraction is reported as ok. Loaded from an
// in-repo JSON config (see regress.tolerance.json) so the gate's
// sensitivity is reviewed like code.
type Tolerance struct {
	// Shape reports: relative drift allowed per measured check value.
	ValueFrac float64 `json:"value_frac"`
	// Latency documents: relative p99 drift allowed per
	// (workload, scheme, op) row.
	LatencyFrac float64 `json:"latency_frac"`
	// LatencyP99CeilingsNs maps "scheme/op" -> the largest acceptable
	// p99 (ns) in the NEW latency document (absolute, unlike the
	// relative *Frac fields): the tail-latency SLO gate. A gated pair
	// with no observed rows regresses.
	LatencyP99CeilingsNs map[string]float64 `json:"latency_p99_ceilings_ns,omitempty"`
}

// DefaultTolerance returns the gate's default noise model: shape-check
// values on a fixed config are fully deterministic (2% headroom for
// float formatting churn); latency percentiles get 25%.
func DefaultTolerance() Tolerance {
	return Tolerance{
		ValueFrac:   0.02,
		LatencyFrac: 0.25,
	}
}

// LoadTolerance reads a tolerance config; fields absent from the file
// keep their defaults. An unknown key is an error, so a misspelled
// gate setting cannot silently switch its gate off; so are trailing
// data after the object and negative fractions or ceilings.
func LoadTolerance(path string) (Tolerance, error) {
	tol := DefaultTolerance()
	f, err := os.Open(path)
	if err != nil {
		return tol, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tol); err != nil {
		return tol, fmt.Errorf("regress: %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return tol, fmt.Errorf("regress: %s: trailing data after the tolerance object", path)
	}
	if tol.ValueFrac < 0 || tol.LatencyFrac < 0 {
		return tol, fmt.Errorf("regress: %s: negative drift fraction", path)
	}
	var negative []string
	for pair, ns := range tol.LatencyP99CeilingsNs { //detlint:ok offending pairs are sorted below
		if ns < 0 {
			negative = append(negative, pair)
		}
	}
	if len(negative) > 0 {
		sort.Strings(negative)
		return tol, fmt.Errorf("regress: %s: negative p99 ceiling for %s", path, strings.Join(negative, ", "))
	}
	return tol, nil
}

// Status classifies one compared item.
type Status string

const (
	StatusOK        Status = "ok"
	StatusImproved  Status = "improved"
	StatusRegressed Status = "regressed"
	StatusMissing   Status = "missing" // present in the baseline, gone in the new run
	StatusAdded     Status = "added"   // new in this run; informational
	StatusInfo      Status = "info"
)

// Item is one compared quantity.
type Item struct {
	Kind      string // "check", "value", "cell", "env", "latency" or "slo"
	Name      string // check / cell / row identity
	Status    Status
	Old, New  string  // rendered values
	DeltaFrac float64 // relative drift where meaningful (0 otherwise)
	Detail    string
}

// Verdict is the outcome of one comparison.
type Verdict struct {
	Kind  string // "manifest", "shapes" or "latency"
	Items []Item
}

func (v *Verdict) add(it Item) { v.Items = append(v.Items, it) }

// Regressed reports whether any item regressed or went missing — the
// gate condition.
func (v *Verdict) Regressed() bool {
	for _, it := range v.Items {
		if it.Status == StatusRegressed || it.Status == StatusMissing {
			return true
		}
	}
	return false
}

// Regressions returns only the gate-failing items, for terse output.
func (v *Verdict) Regressions() []Item {
	var out []Item
	for _, it := range v.Items {
		if it.Status == StatusRegressed || it.Status == StatusMissing {
			out = append(out, it)
		}
	}
	return out
}

// Counts tallies items per status.
func (v *Verdict) Counts() map[Status]int {
	c := map[Status]int{}
	for _, it := range v.Items {
		c[it.Status]++
	}
	return c
}

// Markdown renders the verdict: a one-line summary, then a table of
// every non-ok item (the interesting rows), then the regression list.
func (v *Verdict) Markdown() string {
	var b strings.Builder
	counts := v.Counts()
	verdict := "no drift"
	if v.Regressed() {
		verdict = "REGRESSION"
	} else if counts[StatusImproved] > 0 {
		verdict = "improved"
	}
	fmt.Fprintf(&b, "## %s comparison: %s\n\n", v.Kind, verdict)
	fmt.Fprintf(&b, "%d compared — %d ok, %d improved, %d regressed, %d missing, %d added, %d info\n\n",
		len(v.Items), counts[StatusOK], counts[StatusImproved], counts[StatusRegressed],
		counts[StatusMissing], counts[StatusAdded], counts[StatusInfo])
	var interesting []Item
	for _, it := range v.Items {
		if it.Status != StatusOK {
			interesting = append(interesting, it)
		}
	}
	if len(interesting) == 0 {
		return b.String()
	}
	b.WriteString("| kind | name | old | new | Δ | status |\n|---|---|---|---|---|---|\n")
	for _, it := range interesting {
		delta := "—"
		if it.DeltaFrac != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*it.DeltaFrac)
		}
		status := string(it.Status)
		if it.Status == StatusRegressed || it.Status == StatusMissing {
			status = "**" + status + "**"
		}
		name := it.Name
		if it.Detail != "" {
			name += " (" + it.Detail + ")"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n",
			it.Kind, name, orDash(it.Old), orDash(it.New), delta, status)
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

// relDelta returns (new-old)/|old|; a change from exactly zero is
// normalized against 1 so it registers as full drift instead of Inf.
func relDelta(old, new float64) float64 {
	denom := math.Abs(old)
	if denom == 0 {
		denom = 1
	}
	return (new - old) / denom
}

// classify maps a relative delta where *lower is better* onto a
// status under tol.
func classify(delta, tol float64) Status {
	switch {
	case delta > tol:
		return StatusRegressed
	case delta < -tol:
		return StatusImproved
	default:
		return StatusOK
	}
}
