package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"nvmstar/internal/nvm"
	"nvmstar/internal/sim"
	"nvmstar/internal/workload"
)

// Observatory folds the observatory output of a sweep's cells into
// per-(workload, scheme) totals: write-cause breakdowns sum, latency
// bucket vectors merge deterministically and percentiles re-derive
// from the merged buckets. It is the WithResultObserver consumer behind
// starbench -observe: cells whose runs carried sim.Config.Observe
// contribute their WriteBreakdown and Latency as they complete; cells
// without them are ignored. The aggregate reaches readers through
// Markdown (the report's observatory sections) and Rows (starbench's
// -latency-out document). All methods are safe for concurrent use —
// Observe runs on pool workers as cells complete.
type Observatory struct {
	mu      sync.Mutex
	entries map[obsKey]*ObservatoryRow
}

type obsKey struct {
	workload string
	scheme   string
}

// ObservatoryRow is one (workload, scheme) aggregate over the Cells
// observed for that pair.
type ObservatoryRow struct {
	Workload  string
	Scheme    string
	Cells     int
	Breakdown *nvm.Breakdown
	Latency   *sim.LatencyBreakdown
}

// NewObservatory returns an empty aggregator.
func NewObservatory() *Observatory {
	return &Observatory{entries: make(map[obsKey]*ObservatoryRow)}
}

// Observe folds one completed cell into the aggregate. Its signature
// matches WithResultObserver, so wiring is
// WithResultObserver(obs.Observe). Results without the observatory
// fields are skipped.
func (o *Observatory) Observe(c Cell, res *sim.Results) {
	if o == nil || res == nil || res.WriteBreakdown == nil || res.Latency == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	k := obsKey{c.Workload, c.Scheme}
	e := o.entries[k]
	if e == nil {
		o.entries[k] = &ObservatoryRow{
			Workload: c.Workload, Scheme: c.Scheme, Cells: 1,
			Breakdown: res.WriteBreakdown.Sub(nil), Latency: res.Latency.Copy(),
		}
		return
	}
	e.Breakdown.Accumulate(res.WriteBreakdown)
	e.Latency.Accumulate(res.Latency)
	e.Cells++
}

// Rows snapshots the aggregates in deterministic order (see
// sortObservatoryRows). Breakdowns are deep copies, safe to hold while
// the sweep keeps running.
func (o *Observatory) Rows() []ObservatoryRow {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	rows := make([]ObservatoryRow, 0, len(o.entries))
	for _, e := range o.entries {
		rows = append(rows, ObservatoryRow{
			Workload: e.Workload, Scheme: e.Scheme, Cells: e.Cells,
			Breakdown: e.Breakdown.Sub(nil), Latency: e.Latency.Copy(),
		})
	}
	o.mu.Unlock()
	sortObservatoryRows(rows)
	return rows
}

// sortObservatoryRows orders rows workload-major: workloads in the
// paper's order, schemes in the evaluation's (wb, star, anubis,
// phoenix, strict), unknowns of either after the known ones,
// lexicographic.
func sortObservatoryRows(rows []ObservatoryRow) {
	wOrder := map[string]int{}
	for i, n := range workload.Names() {
		wOrder[n] = i
	}
	sOrder := map[string]int{"wb": 0, "star": 1, "anubis": 2, "phoenix": 3, "strict": 4}
	rank := func(m map[string]int, name string) int {
		if r, ok := m[name]; ok {
			return r
		}
		return len(m)
	}
	sort.Slice(rows, func(i, j int) bool {
		wi, wj := rank(wOrder, rows[i].Workload), rank(wOrder, rows[j].Workload)
		if wi != wj {
			return wi < wj
		}
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		si, sj := rank(sOrder, rows[i].Scheme), rank(sOrder, rows[j].Scheme)
		if si != sj {
			return si < sj
		}
		return rows[i].Scheme < rows[j].Scheme
	})
}

// Markdown renders the aggregate as the report's two observatory
// sections. "Write-cause breakdown" has one row per (workload, scheme)
// and a column per cause that is nonzero anywhere, each cell the
// cause's share of that row's writes. "Tail latency" has one row per
// (workload, scheme, op) with observations, carrying the merged count
// and the p50/p90/p99/p99.9/max estimates. Empty aggregators render an
// explanatory stub in each section instead of an empty table.
func (o *Observatory) Markdown() string {
	attr := "No observed cells (observatory disabled?).\n"
	lat := attr
	if rows := o.Rows(); len(rows) > 0 {
		attr = markdownTable(attrTable(rows))
		lat = markdownTable(latencyTable(rows))
	}
	return "## Write-cause breakdown\n\n" + attr + "\n## Tail latency\n\n" + lat
}

// attrTable lays out the write-cause section: causes in Cause enum
// order (the Breakdown.Causes order), shares as percentages.
func attrTable(rows []ObservatoryRow) (header []string, cells [][]string) {
	header = []string{"workload", "scheme", "cells", "writes"}
	var causes []int
	for i, c := range rows[0].Breakdown.Causes {
		for _, r := range rows {
			if r.Breakdown.Causes[i].Writes > 0 {
				causes = append(causes, i)
				header = append(header, c.Cause)
				break
			}
		}
	}
	for _, r := range rows {
		b := r.Breakdown
		row := []string{r.Workload, r.Scheme, strconv.Itoa(r.Cells), strconv.FormatUint(b.Total, 10)}
		for _, ci := range causes {
			if b.Total == 0 {
				row = append(row, "—")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f%%", 100*float64(b.Causes[ci].Writes)/float64(b.Total)))
		}
		cells = append(cells, row)
	}
	return header, cells
}

// latencyTable lays out the tail-latency section.
func latencyTable(rows []ObservatoryRow) (header []string, cells [][]string) {
	header = []string{"workload", "scheme", "op", "count", "p50 ns", "p90 ns", "p99 ns", "p99.9 ns", "max ns"}
	for _, r := range rows {
		for _, o := range r.Latency.Ops {
			if o.Count == 0 {
				continue
			}
			cells = append(cells, []string{
				r.Workload, r.Scheme, o.Op,
				strconv.FormatUint(o.Count, 10),
				fmt.Sprintf("%.1f", o.P50Ns),
				fmt.Sprintf("%.1f", o.P90Ns),
				fmt.Sprintf("%.1f", o.P99Ns),
				fmt.Sprintf("%.1f", o.P999Ns),
				fmt.Sprintf("%.0f", o.MaxNs),
			})
		}
	}
	return header, cells
}

// markdownTable renders header and rows as a GitHub-flavored table.
func markdownTable(header []string, cells [][]string) string {
	line := func(row []string) string {
		out := "|"
		for _, c := range row {
			out += " " + c + " |"
		}
		return out + "\n"
	}
	out := line(header) + "|"
	for range header {
		out += "---|"
	}
	out += "\n"
	for _, row := range cells {
		out += line(row)
	}
	return out
}
