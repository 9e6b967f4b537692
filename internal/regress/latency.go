package regress

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// LatencyDocSchema identifies a tail-latency document.
const LatencyDocSchema = "nvmstar/latency/v1"

// LatencyDoc is the committed tail-latency artifact: one row per
// (workload, scheme, op) carrying the merged observation count and the
// derived percentile estimates, as rendered by starbench -latency-out.
// stardiff compares two of them and enforces the absolute p99 SLO
// ceilings of the tolerance file.
type LatencyDoc struct {
	Schema  string       `json:"schema"`
	Latency []LatencyRow `json:"latency"`
}

// LatencyRow is one (workload, scheme, op) tail summary.
type LatencyRow struct {
	Workload string  `json:"workload"`
	Scheme   string  `json:"scheme"`
	Op       string  `json:"op"`
	Count    uint64  `json:"count"`
	P50Ns    float64 `json:"p50_ns"`
	P90Ns    float64 `json:"p90_ns"`
	P99Ns    float64 `json:"p99_ns"`
	P999Ns   float64 `json:"p999_ns"`
	MaxNs    float64 `json:"max_ns"`
}

func (r LatencyRow) key() string { return r.Workload + "/" + r.Scheme + "/" + r.Op }

// WriteLatencyDoc marshals rows as a latency document at path.
func WriteLatencyDoc(path string, rows []LatencyRow) error {
	doc := LatencyDoc{Schema: LatencyDocSchema, Latency: rows}
	b, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadLatencyDoc loads and validates a latency document.
func ReadLatencyDoc(path string) (*LatencyDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc LatencyDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	if doc.Schema != LatencyDocSchema {
		return nil, fmt.Errorf("regress: %s: schema %q, want %q", path, doc.Schema, LatencyDocSchema)
	}
	return &doc, nil
}

// CompareLatency compares two tail-latency documents: per-row p99
// drift against tol.LatencyFrac (lower is better), then the absolute
// SLO ceilings of tol.LatencyP99CeilingsNs — keyed "scheme/op" —
// enforced on the NEW document only, so a self-comparison (old == new)
// still gates, the same binding the metric-floor gate uses. A gated
// (scheme, op) with no observed rows regresses: silently losing the
// measurement must not pass the gate.
func CompareLatency(old, new *LatencyDoc, tol Tolerance) *Verdict {
	v := &Verdict{Kind: "latency"}
	newByKey := map[string]LatencyRow{}
	for _, r := range new.Latency {
		newByKey[r.key()] = r
	}
	seen := map[string]bool{}
	for _, o := range old.Latency {
		seen[o.key()] = true
		n, ok := newByKey[o.key()]
		if !ok {
			v.add(Item{Kind: "latency", Name: o.key(), Status: StatusMissing,
				Old: fmt.Sprintf("p99=%.1fns", o.P99Ns)})
			continue
		}
		delta := relDelta(o.P99Ns, n.P99Ns)
		v.add(Item{
			Kind: "latency", Name: o.key(),
			Status:    classify(delta, tol.LatencyFrac),
			Old:       fmt.Sprintf("p99=%.1fns", o.P99Ns),
			New:       fmt.Sprintf("p99=%.1fns", n.P99Ns),
			DeltaFrac: delta,
		})
	}
	for _, n := range new.Latency {
		if !seen[n.key()] {
			v.add(Item{Kind: "latency", Name: n.key(), Status: StatusAdded,
				New: fmt.Sprintf("p99=%.1fns", n.P99Ns)})
		}
	}

	keys := make([]string, 0, len(tol.LatencyP99CeilingsNs))
	for k := range tol.LatencyP99CeilingsNs { //detlint:ok keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ceiling := tol.LatencyP99CeilingsNs[k]
		matched := false
		for _, n := range new.Latency {
			if n.Scheme+"/"+n.Op != k {
				continue
			}
			matched = true
			status := StatusOK
			if n.P99Ns > ceiling {
				status = StatusRegressed
			}
			v.add(Item{
				Kind: "slo", Name: n.key(), Status: status,
				New:    fmt.Sprintf("p99=%.1fns", n.P99Ns),
				Detail: fmt.Sprintf("ceiling %.1fns", ceiling),
			})
		}
		if !matched {
			v.add(Item{
				Kind: "slo", Name: k, Status: StatusRegressed,
				Detail: fmt.Sprintf("ceiling %.1fns but no (scheme, op) rows observed", ceiling),
			})
		}
	}
	return v
}
