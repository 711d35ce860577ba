package report

import (
	"strings"
	"testing"
)

func TestSeriesPeak(t *testing.T) {
	s := Series{Name: "x", X: []float64{1, 2, 3}, Y: []float64{-5, 7, 0}}
	x, y := s.Peak()
	if x != 2 || y != 7 {
		t.Errorf("peak = (%g, %g)", x, y)
	}
	if _, y := (Series{}).Peak(); y > -1e200 {
		t.Error("empty series should have very low peak")
	}
}

func TestFormatTable(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Rows:   [][]string{{"alpha", "1"}, {"beta-long", "22"}},
	}
	got := FormatTable(tbl)
	if !strings.Contains(got, "demo") || !strings.Contains(got, "beta-long") {
		t.Errorf("table output missing content:\n%s", got)
	}
	// Title, header, separator, two rows.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 5 {
		t.Errorf("table lines = %d:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header line wrong: %q", lines[1])
	}
}

func TestFormatMarkdownTable(t *testing.T) {
	tbl := Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	got := FormatMarkdownTable(tbl)
	want := "| a | b |\n|---|---|\n| 1 | 2 |\n"
	if got != want {
		t.Errorf("markdown table:\n%q\nwant\n%q", got, want)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []Series{
		{Name: "s1", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "s2", X: []float64{3}, Y: []float64{30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "series,x,y\ns1,1,10\ns1,2,20\ns2,3,30\n"
	if b.String() != want {
		t.Errorf("csv:\n%q\nwant\n%q", b.String(), want)
	}
}

// TestMarkdown pins the record layout EXPERIMENTS.md is generated in:
// heading, tables, series summaries, notes, then claims with verdicts.
func TestMarkdown(t *testing.T) {
	out := &Output{
		ID:     "figX",
		Title:  "demo figure",
		Series: []Series{{Name: "s", X: []float64{0, 1}, Y: []float64{1, 2}}},
		Tables: []Table{{Title: "t", Header: []string{"a"}, Rows: [][]string{{"r"}}}},
		Notes:  []string{"a note"},
		Claims: []Claim{{ID: "yes", Text: "it holds", Holds: true}, {ID: "no", Text: "it fails"}},
	}
	want := "## figX — demo figure\n\n" +
		"**t**\n\n| a |\n|---|\n| r |\n\n" +
		"- series `s`: 2 points, peak 2 at 1\n" +
		"- a note\n" +
		"- claim `yes` holds: it holds\n" +
		"- claim `no` FAILS: it fails\n\n"
	if got := Markdown(out); got != want {
		t.Errorf("markdown:\n%q\nwant\n%q", got, want)
	}
}
