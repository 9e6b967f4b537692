package regress

import (
	"encoding/json"
	"fmt"
	"os"

	"nvmstar/internal/provenance"
	"nvmstar/internal/shapes"
)

// Doc is one loaded comparison artifact with its detected kind;
// exactly one of the payload fields is set.
type Doc struct {
	Kind     string // "manifest", "shapes" or "latency"
	Shapes   *shapes.Report
	Manifest *provenance.Manifest
	Latency  *LatencyDoc
}

// ReadDoc loads path and sniffs which artifact it is: a provenance
// manifest ("schema" + "cells"), a tail-latency document ("latency"),
// or a shapes report ("Checks").
func ReadDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("regress: %s: not a JSON object: %w", path, err)
	}
	switch {
	case probe["schema"] != nil && probe["cells"] != nil:
		m, err := provenance.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return &Doc{Kind: "manifest", Manifest: m}, nil
	case probe["latency"] != nil:
		d, err := ReadLatencyDoc(path)
		if err != nil {
			return nil, err
		}
		return &Doc{Kind: "latency", Latency: d}, nil
	case probe["Checks"] != nil:
		r, err := shapes.ReadReport(path)
		if err != nil {
			return nil, err
		}
		return &Doc{Kind: "shapes", Shapes: r}, nil
	}
	return nil, fmt.Errorf("regress: %s: unrecognized document (expected a run manifest, a shapes report or a latency doc)", path)
}

// CompareDocs dispatches on the documents' kind, which must match.
func CompareDocs(old, new *Doc, tol Tolerance) (*Verdict, error) {
	if old.Kind != new.Kind {
		return nil, fmt.Errorf("regress: cannot compare a %s document against a %s document", old.Kind, new.Kind)
	}
	switch old.Kind {
	case "shapes":
		return CompareShapes(old.Shapes, new.Shapes, tol), nil
	case "manifest":
		return CompareManifests(old.Manifest, new.Manifest, tol)
	case "latency":
		return CompareLatency(old.Latency, new.Latency, tol), nil
	}
	return nil, fmt.Errorf("regress: unknown document kind %q", old.Kind)
}
