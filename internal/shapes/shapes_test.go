package shapes

import (
	"context"
	"strings"
	"testing"

	"nvmstar/internal/experiments"
	"nvmstar/internal/sim"
)

// TestPaperShapes is the reproduction gate: it runs a reduced version
// of the full evaluation and asserts every relationship the paper
// reports. It is the heaviest test in the repository; -short skips it.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape evaluation is slow")
	}
	r := experiments.NewRunner(
		experiments.WithOps(5000),
		experiments.WithConfig(sim.Evaluation))
	rep, err := EvaluateCtx(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("FAIL %s (%s)", c.Name, c.Detail)
		} else {
			t.Logf("pass %s (%s)", c.Name, c.Detail)
		}
	}
	md := rep.Markdown()
	if !strings.Contains(md, "Table II") || !strings.Contains(md, "Fig. 14") {
		t.Error("markdown report incomplete")
	}
	if rep.Passed() != !t.Failed() {
		t.Error("Passed() disagrees with individual checks")
	}
}
