package report

import (
	"strings"
	"testing"

	"iobehind/internal/des"
	"iobehind/internal/metrics"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "a", "bee", "c")
	tb.AddRow("1", "2", "3")
	tb.AddRow("100", "2000", "3")
	out := tb.Render()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Alignment: both data rows have the same column offsets.
	if strings.Index(lines[3], "2") != strings.Index(lines[4], "2000") {
		t.Fatalf("misaligned:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Fatal("row count")
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		2.5e9: "2.50 GB/s",
		3e6:   "3.00 MB/s",
		4e3:   "4.00 KB/s",
		17:    "17 B/s",
	}
	for v, want := range cases {
		if got := Rate(v); got != want {
			t.Errorf("Rate(%v) = %q, want %q", v, got, want)
		}
	}
	if got := Seconds(150 * des.Second); got != "150 s" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(des.Second * 3 / 2); got != "1.50 s" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Seconds(5 * des.Millisecond); got != "5.0 ms" {
		t.Errorf("Seconds = %q", got)
	}
	if got := Pct(12.34); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestSparkline(t *testing.T) {
	var s metrics.Series
	s.Append(0, 0)
	s.Append(des.Time(5*des.Second), 100)
	out := Sparkline(&s, 0, des.Time(10*des.Second), 10)
	if len([]rune(out)) != 10 {
		t.Fatalf("width = %d", len([]rune(out)))
	}
	runes := []rune(out)
	if runes[0] != '▁' || runes[9] != '█' {
		t.Fatalf("sparkline shape: %q", out)
	}
	if Sparkline(&s, 0, 0, 10) != "" {
		t.Fatal("empty span should yield empty sparkline")
	}
	var empty metrics.Series
	if got := Sparkline(&empty, 0, des.Time(des.Second), 4); got != "▁▁▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}
}

func TestGantt(t *testing.T) {
	rows := []GanttRow{
		{Label: "job0", Start: 0, End: des.Time(5 * des.Second)},
		{Label: "job10", Start: des.Time(5 * des.Second), End: des.Time(10 * des.Second)},
	}
	out := Gantt("timeline", rows, des.Time(10*des.Second), 20)
	if !strings.Contains(out, "== timeline ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// job0 occupies the first half, job10 the second.
	first := lines[1][strings.Index(lines[1], "|")+1:]
	if !strings.HasPrefix(first, "██████████") || !strings.Contains(first[10:], "          ") {
		t.Fatalf("job0 bar wrong: %q", first)
	}
	if Gantt("", rows, 0, 20) != "" {
		t.Fatal("zero horizon")
	}
}
