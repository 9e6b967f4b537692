// Package experiments regenerates every table and figure of the
// paper's evaluation (Section IV): every sweep lists its cells, the
// Runner plans them into one unit per (workload, seed, scheme), runs
// the units over a bounded worker pool (results are bit-identical to a
// sequential fresh-machine sweep) and returns the rows the paper
// plots. Build a Runner with NewRunner(WithOps(...), WithSeeds(...),
// WithWorkloads(...), WithConfig(...), WithParallelism(...)) and call
// its context-aware sweep methods; the benchmark harness
// (bench_test.go) and the starbench CLI are thin wrappers around them.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nvmstar/internal/workload"
)

// --- Fig. 10: bitmap-line writes vs WB writes ---------------------------

// Fig10Row is one workload's bar in Fig. 10.
type Fig10Row struct {
	Workload     string
	WBWrites     uint64  // total NVM writes under the WB baseline
	BitmapWrites uint64  // bitmap lines spilled to the RA under STAR
	BitmapReads  uint64  // bitmap lines filled from the RA under STAR
	Ratio        float64 // WBWrites / max(BitmapWrites,1), per op-normalized
}

// --- Fig. 11-13: write traffic, IPC, energy per scheme -------------------

// SchemeRow is one (workload, scheme) cell of Figs. 11-13, normalized
// to the WB baseline.
type SchemeRow struct {
	Workload string
	Scheme   string

	WritesPerOp float64
	WriteRatio  float64 // Fig. 11: writes normalized to WB
	IPC         float64
	IPCRatio    float64 // Fig. 12: IPC normalized to WB
	EnergyPerOp float64 // pJ
	EnergyRatio float64 // Fig. 13: energy normalized to WB
}

// --- Table II: ADR bitmap-line hit ratio ---------------------------------

// Table2Row is one column of Table II.
type Table2Row struct {
	ADRLines    int
	HitRatio    float64 // average across workloads
	PerWorkload map[string]float64
}

// --- Fig. 14a: dirty metadata fraction -----------------------------------

// Fig14aRow is one workload's dirty-cache fraction at crash time.
type Fig14aRow struct {
	Workload  string
	DirtyFrac float64
}

// --- Fig. 14b: recovery time vs metadata cache size ----------------------

// Fig14bRow is one metadata-cache-size point of Fig. 14b.
type Fig14bRow struct {
	MetaCacheBytes int
	StaleNodes     int
	StarSeconds    float64
	AnubisSeconds  float64
}

// --- ablations ------------------------------------------------------------

// AblationIndexRow compares recovery scans with and without the
// multi-layer index.
type AblationIndexRow struct {
	Workload     string
	IndexedReads uint64
	FlatReads    uint64
	IndexedSecs  float64
	FlatSecs     float64
}

// --- formatting ------------------------------------------------------------

// FormatTable renders rows of "name -> columns" as an aligned text
// table for the CLI output.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// FormatCSV renders header and rows as comma-separated values for
// plotting pipelines.
func FormatCSV(header []string, rows [][]string) string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// SortSchemeRows orders rows by workload (paper order) then scheme.
func SortSchemeRows(rows []SchemeRow) {
	order := map[string]int{}
	for i, n := range workload.Names() {
		order[n] = i
	}
	schemeOrder := map[string]int{"wb": 0, "star": 1, "anubis": 2, "strict": 3}
	sort.SliceStable(rows, func(i, j int) bool {
		if order[rows[i].Workload] != order[rows[j].Workload] {
			return order[rows[i].Workload] < order[rows[j].Workload]
		}
		return schemeOrder[rows[i].Scheme] < schemeOrder[rows[j].Scheme]
	})
}
