package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzParseTraceJSON: tracecheck parses trace files from disk, so for
// any input ParseTraceJSON returns events or an error. A document it
// accepts is a JSON object or array, and its events survive a
// re-encode and re-parse.
func FuzzParseTraceJSON(f *testing.F) {
	// The golden fixture is 200 KB, too large for the fuzz engine to
	// mutate at a useful rate; the seed keeps its first event of every
	// (category, name), in both document forms.
	b, err := os.ReadFile("../../cmd/tracecheck/testdata/golden_trace.json")
	if err != nil {
		f.Fatal(err)
	}
	golden, err := ParseTraceJSON(b)
	if err != nil {
		f.Fatal(err)
	}
	var kinds []Event
	seen := map[[2]string]bool{}
	for _, e := range golden {
		if k := [2]string{e.Cat, e.Name}; !seen[k] {
			seen[k] = true
			kinds = append(kinds, e)
		}
	}
	var obj bytes.Buffer
	if err := (&Trace{events: kinds}).WriteJSON(&obj); err != nil {
		f.Fatal(err)
	}
	arr, err := json.Marshal(kinds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(obj.Bytes())
	f.Add(arr)
	// A bare null used to parse as an empty trace.
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseTraceJSON(data)
		if err != nil {
			return
		}
		if trimmed := bytes.TrimSpace(data); len(trimmed) == 0 || (trimmed[0] != '{' && trimmed[0] != '[') {
			t.Fatalf("accepted a document that is neither an object nor an array: %q", data)
		}
		out, err := json.Marshal(events)
		if err != nil {
			t.Fatalf("accepted events do not re-encode: %v", err)
		}
		again, err := ParseTraceJSON(out)
		if err != nil || len(again) != len(events) {
			t.Fatalf("re-parse of %d accepted events: %d events, err %v", len(events), len(again), err)
		}
	})
}
