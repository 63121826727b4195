// Package report renders experiment results as aligned ASCII tables,
// sparklines, and Gantt timelines — the textual equivalents of the
// paper's figures.
package report

import (
	"fmt"
	"strings"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
)

// Table is a simple aligned-columns renderer.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render returns the aligned table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Rate formats a bytes/s value in human units.
func Rate(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f GB/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2f MB/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f KB/s", v/1e3)
	default:
		return fmt.Sprintf("%.0f B/s", v)
	}
}

// Seconds formats a duration in seconds with sensible precision.
func Seconds(d des.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	default:
		return fmt.Sprintf("%.1f ms", s*1000)
	}
}

// Pct formats a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Bytes formats a byte count in human units.
func Bytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%d B", v)
	}
}

// sparkLevels are the eight block glyphs of a sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the series as width sampled block characters between
// from and to (the textual stand-in for the paper's time-series plots).
func Sparkline(s *metrics.Series, from, to des.Time, width int) string {
	if width <= 0 || to <= from {
		return ""
	}
	max := s.Max()
	if max <= 0 {
		return strings.Repeat(string(sparkLevels[0]), width)
	}
	var b strings.Builder
	span := to.Sub(from)
	for i := 0; i < width; i++ {
		at := from.Add(des.Duration(int64(span) * int64(i) / int64(width)))
		v := s.At(at)
		idx := int(v / max * float64(len(sparkLevels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// GanttRow is one bar of a Gantt chart.
type GanttRow struct {
	Label      string
	Start, End des.Time
}

// Gantt renders rows as an ASCII timeline between 0 and horizon, width
// characters wide — the textual form of the paper's Fig. 1 job timeline.
func Gantt(title string, rows []GanttRow, horizon des.Time, width int) string {
	if width <= 0 || horizon <= 0 {
		return ""
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "== %s ==\n", title)
	}
	labelW := 0
	for _, r := range rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	cell := func(i int) des.Time {
		return des.Time(int64(horizon) * int64(i) / int64(width))
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s |", labelW, r.Label)
		for i := 0; i < width; i++ {
			mid := cell(i) + (cell(i+1)-cell(i))/2
			if mid >= r.Start && mid < r.End {
				b.WriteRune('█')
			} else {
				b.WriteRune(' ')
			}
		}
		fmt.Fprintf(&b, "| %s..%s\n", Seconds(des.Duration(r.Start)), Seconds(des.Duration(r.End)))
	}
	// Axis line.
	fmt.Fprintf(&b, "%-*s 0%*s\n", labelW, "", width, Seconds(des.Duration(horizon)))
	return b.String()
}
