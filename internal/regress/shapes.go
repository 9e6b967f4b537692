package regress

import (
	"fmt"

	"nvmstar/internal/shapes"
)

// CompareShapes diffs two shape reports check by check: a pass/fail
// flip is a regression (or an improvement), and every measured value
// behind a check is compared against tol.ValueFrac — the drift that
// stays inside a shape's pass window but signals the simulation moved.
// On a fixed config the simulator is deterministic, so any value drift
// at all means the modeled machine changed.
func CompareShapes(old, new *shapes.Report, tol Tolerance) *Verdict {
	v := &Verdict{Kind: "shapes"}
	newByName := map[string]shapes.Check{}
	for _, c := range new.Checks {
		newByName[c.Name] = c
	}
	seen := map[string]bool{}
	for _, oc := range old.Checks {
		seen[oc.Name] = true
		nc, ok := newByName[oc.Name]
		if !ok {
			v.add(Item{Kind: "check", Name: oc.Name, Status: StatusMissing,
				Old: passFail(oc.Pass), Detail: "check disappeared from the new report"})
			continue
		}
		switch {
		case oc.Pass && !nc.Pass:
			v.add(Item{Kind: "check", Name: oc.Name, Status: StatusRegressed,
				Old: passFail(oc.Pass), New: passFail(nc.Pass), Detail: nc.Detail})
		case !oc.Pass && nc.Pass:
			v.add(Item{Kind: "check", Name: oc.Name, Status: StatusImproved,
				Old: passFail(oc.Pass), New: passFail(nc.Pass), Detail: nc.Detail})
		default:
			v.add(Item{Kind: "check", Name: oc.Name, Status: StatusOK,
				Old: passFail(oc.Pass), New: passFail(nc.Pass)})
		}
		compareValues(v, oc, nc, tol)
	}
	for _, nc := range new.Checks {
		if !seen[nc.Name] {
			v.add(Item{Kind: "check", Name: nc.Name, Status: StatusAdded, New: passFail(nc.Pass)})
		}
	}
	return v
}

// compareValues diffs the measured numbers behind one check.
func compareValues(v *Verdict, old, new shapes.Check, tol Tolerance) {
	if len(old.Values) != len(new.Values) {
		v.add(Item{Kind: "value", Name: old.Name, Status: StatusRegressed,
			Old:    fmt.Sprintf("%d values", len(old.Values)),
			New:    fmt.Sprintf("%d values", len(new.Values)),
			Detail: "measured value set changed shape"})
		return
	}
	for i := range old.Values {
		delta := relDelta(old.Values[i], new.Values[i])
		st := StatusOK
		if delta > tol.ValueFrac || delta < -tol.ValueFrac {
			// Direction is check-specific (a higher hit ratio is good, a
			// higher write ratio is bad); out-of-tolerance drift in either
			// direction needs a human to re-baseline deliberately.
			st = StatusRegressed
		}
		v.add(Item{
			Kind: "value", Name: old.Name, Detail: fmt.Sprintf("value[%d]", i), Status: st,
			Old: fmt.Sprintf("%.6g", old.Values[i]), New: fmt.Sprintf("%.6g", new.Values[i]),
			DeltaFrac: delta,
		})
	}
}

func passFail(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
