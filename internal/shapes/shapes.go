// Package shapes turns EXPERIMENTS.md's paper-vs-measured claims into
// executable checks: it runs the evaluation matrix and verifies the
// qualitative *shape* of every result — who wins, by roughly what
// factor, where the knees fall — against the paper's findings.
// starbench -exp report renders the outcome as a markdown report, and
// the repository's long-running shape test fails if a change to the
// simulator breaks any reproduced relationship.
package shapes

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"nvmstar/internal/experiments"
)

// Check is one verified relationship. Values carries the measured
// numbers behind Detail in order, machine-readable, so the regression
// comparator (internal/regress, cmd/stardiff) can diff two reports'
// measurements against a drift tolerance instead of re-parsing the
// formatted Detail string.
type Check struct {
	Name   string
	Pass   bool
	Detail string    // measured values, formatted for the report
	Values []float64 `json:",omitempty"` // the numeric measurements behind Detail
}

func check(name string, pass bool, format string, args ...any) Check {
	c := Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
	for _, a := range args {
		switch v := a.(type) {
		case float64:
			c.Values = append(c.Values, v)
		case int:
			c.Values = append(c.Values, float64(v))
		case uint64:
			c.Values = append(c.Values, float64(v))
		}
	}
	return c
}

// Report is the full evaluation with its checks.
type Report struct {
	Scheme []experiments.SchemeRow
	Table2 []experiments.Table2Row
	Fig14a []experiments.Fig14aRow
	Fig14b []experiments.Fig14bRow
	Checks []Check
}

// WriteFile marshals the report (indented, trailing newline) so it
// can be committed as a regression baseline and compared by stardiff.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReport loads a report written by WriteFile.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("shapes: %s: %w", path, err)
	}
	return &rep, nil
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// EvaluateCtx runs the evaluation matrix on r's worker pool and checks
// every shape; ctx cancellation aborts the sweep mid-cell.
func EvaluateCtx(ctx context.Context, r *experiments.Runner) (*Report, error) {
	rep := &Report{}

	var err error
	rep.Scheme, err = r.SchemeComparison(ctx, []string{"wb", "star", "anubis", "strict"})
	if err != nil {
		return nil, err
	}
	rep.Table2, err = r.Table2(ctx, []int{2, 4, 8, 16, 32})
	if err != nil {
		return nil, err
	}
	rep.Fig14a, err = r.Fig14a(ctx)
	if err != nil {
		return nil, err
	}
	rep.Fig14b, err = r.Fig14b(ctx, nil)
	if err != nil {
		return nil, err
	}

	rep.Checks = append(rep.Checks, rep.schemeChecks()...)
	rep.Checks = append(rep.Checks, rep.table2Checks()...)
	rep.Checks = append(rep.Checks, rep.fig14Checks()...)
	return rep, nil
}

// avg averages f over the rows of one scheme.
func avg(rows []experiments.SchemeRow, scheme string, f func(experiments.SchemeRow) float64) float64 {
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Scheme == scheme {
			sum += f(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (r *Report) schemeChecks() []Check {
	writeRatio := func(s experiments.SchemeRow) float64 { return s.WriteRatio }
	ipcRatio := func(s experiments.SchemeRow) float64 { return s.IPCRatio }
	energyRatio := func(s experiments.SchemeRow) float64 { return s.EnergyRatio }

	starW := avg(r.Scheme, "star", writeRatio)
	anubisW := avg(r.Scheme, "anubis", writeRatio)
	strictW := avg(r.Scheme, "strict", writeRatio)
	starIPC := avg(r.Scheme, "star", ipcRatio)
	anubisIPC := avg(r.Scheme, "anubis", ipcRatio)
	starE := avg(r.Scheme, "star", energyRatio)
	anubisE := avg(r.Scheme, "anubis", energyRatio)

	var checks []Check
	checks = append(checks,
		check("Fig11: STAR write traffic ~1.08x WB (paper 1.08x)",
			starW >= 1.0 && starW <= 1.30,
			"measured %.3fx", starW),
		check("Fig11: Anubis write traffic ~2x WB (paper 2x)",
			anubisW >= 1.8 && anubisW <= 2.2,
			"measured %.3fx", anubisW),
		check("Fig11: strict persistence >> Anubis (paper up to 9x)",
			strictW > anubisW+0.5,
			"measured %.2fx vs %.2fx", strictW, anubisW),
		check("Fig11: STAR removes >= 85% of Anubis's extra writes (paper 92%)",
			anubisW-1 > 0 && (anubisW-starW)/(anubisW-1) >= 0.85,
			"measured %.0f%%", 100*(anubisW-starW)/(anubisW-1)),
		check("Fig12: STAR IPC >= 0.95x WB (paper 0.98x)",
			starIPC >= 0.95,
			"measured %.3f", starIPC),
		check("Fig12: STAR IPC above Anubis everywhere (paper 0.98 vs 0.90)",
			starIPC > anubisIPC,
			"measured %.3f vs %.3f", starIPC, anubisIPC),
		check("Fig13: STAR energy well below Anubis (paper +4% vs +46%)",
			starE < anubisE-0.3,
			"measured %.2fx vs %.2fx", starE, anubisE),
	)

	// Worst-case workloads for STAR must be the low-locality ones.
	var worst string
	var worstRatio float64
	for _, row := range r.Scheme {
		if row.Scheme == "star" && row.WriteRatio > worstRatio {
			worst, worstRatio = row.Workload, row.WriteRatio
		}
	}
	checks = append(checks,
		check("Fig10/11: STAR's worst write overhead is a low-locality workload (paper: hash, array)",
			worst == "hash" || worst == "array",
			"measured worst: %s at %.2fx", worst, worstRatio))
	return checks
}

func (r *Report) table2Checks() []Check {
	monotonic := true
	for i := 1; i < len(r.Table2); i++ {
		if r.Table2[i].HitRatio < r.Table2[i-1].HitRatio {
			monotonic = false
		}
	}
	detail := ""
	for _, row := range r.Table2 {
		detail += fmt.Sprintf("%d:%.1f%% ", row.ADRLines, 100*row.HitRatio)
	}
	checks := []Check{
		check("TableII: hit ratio rises with ADR lines (paper 32.9%..82.2%)",
			monotonic, "%s", detail),
	}
	if len(r.Table2) >= 5 {
		gainEarly := r.Table2[3].HitRatio - r.Table2[2].HitRatio // 8 -> 16
		gainLate := r.Table2[4].HitRatio - r.Table2[3].HitRatio  // 16 -> 32
		checks = append(checks,
			check("TableII: diminishing returns past 16 lines (paper's operating point)",
				gainLate <= gainEarly+0.05,
				"gain 8->16: %.1fpp, 16->32: %.1fpp", 100*gainEarly, 100*gainLate))
	}
	return checks
}

func (r *Report) fig14Checks() []Check {
	var sum float64
	for _, row := range r.Fig14a {
		sum += row.DirtyFrac
	}
	dirtyAvg := sum / float64(len(r.Fig14a))

	checks := []Check{
		check("Fig14a: most of the metadata cache is dirty at crash (paper ~78%)",
			dirtyAvg >= 0.40 && dirtyAvg <= 1.0,
			"measured %.1f%%", 100*dirtyAvg),
	}
	if n := len(r.Fig14b); n >= 2 {
		last := r.Fig14b[n-1]
		first := r.Fig14b[0]
		ratio := last.StarSeconds / last.AnubisSeconds
		checks = append(checks,
			check("Fig14b: recovery time grows with metadata cache size",
				last.StarSeconds > first.StarSeconds && last.AnubisSeconds > first.AnubisSeconds,
				"STAR %.4fs -> %.4fs", first.StarSeconds, last.StarSeconds),
			check("Fig14b: STAR/Anubis recovery ratio ~2.5x at large caches (paper 2.5x)",
				ratio >= 1.3 && ratio <= 4.0,
				"measured %.2fx", ratio),
			check("Fig14b: recovery stays far below a POST's 10-100s (paper <0.1s)",
				last.StarSeconds < 1.0,
				"measured %.4fs", last.StarSeconds))
	}
	return checks
}

// Markdown renders the report.
func (r *Report) Markdown() string {
	out := "# Shape report: paper vs. measured\n\n"
	out += "| check | result | measured |\n|---|---|---|\n"
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "**FAIL**"
		}
		out += fmt.Sprintf("| %s | %s | %s |\n", c.Name, status, c.Detail)
	}
	out += "\n## Figs. 11-13 (normalized to WB)\n\n"
	out += "| workload | scheme | writes/op | W vs WB | IPC vs WB | E vs WB |\n|---|---|---|---|---|---|\n"
	rows := append([]experiments.SchemeRow(nil), r.Scheme...)
	experiments.SortSchemeRows(rows)
	for _, row := range rows {
		out += fmt.Sprintf("| %s | %s | %.2f | %.2fx | %.2f | %.2fx |\n",
			row.Workload, row.Scheme, row.WritesPerOp, row.WriteRatio, row.IPCRatio, row.EnergyRatio)
	}
	out += "\n## Table II\n\n| ADR lines | hit ratio |\n|---|---|\n"
	for _, row := range r.Table2 {
		out += fmt.Sprintf("| %d | %.2f%% |\n", row.ADRLines, 100*row.HitRatio)
	}
	out += "\n## Fig. 14\n\n| metadata cache | stale nodes | STAR | Anubis |\n|---|---|---|---|\n"
	for _, row := range r.Fig14b {
		out += fmt.Sprintf("| %d KiB | %d | %.4fs | %.4fs |\n",
			row.MetaCacheBytes>>10, row.StaleNodes, row.StarSeconds, row.AnubisSeconds)
	}
	return out
}
