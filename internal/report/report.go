// Package report holds the output containers experiments produce — data
// series (figure reproductions), tables and the paper's claims as computed
// values — plus the text, markdown and CSV renderers the commands, the
// benchmark harness and the EXPERIMENTS.md tests print them with.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Series is one curve of a reproduced figure.
type Series struct {
	Name string
	// X is typically frequency (Hz), Y typically dBm or a score.
	X, Y []float64
}

// Peak returns the (x, y) of the series' maximum; (0, -inf-ish) if empty.
func (s Series) Peak() (float64, float64) {
	if len(s.Y) == 0 {
		return 0, -1e300
	}
	bi := 0
	for i, v := range s.Y {
		if v > s.Y[bi] {
			bi = i
		}
	}
	return s.X[bi], s.Y[bi]
}

// Table is a reproduced table (or detection list).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Claim is one checkable statement of the paper, evaluated on one run.
type Claim struct {
	ID    string // unique within its experiment, e.g. "core-regulator-absent"
	Text  string // the statement; the same for every run of an ID
	Holds bool
}

// Output is everything one experiment produces.
type Output struct {
	ID     string // e.g. "fig11"
	Title  string // what the paper shows
	Series []Series
	Tables []Table
	// Notes record the run's paper-vs-measured numbers; what the paper
	// asserts and the run either bears out or not is a Claim.
	Notes  []string
	Claims []Claim
}

// FormatTable renders a table as aligned text.
func FormatTable(t Table) string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatMarkdownTable renders a table as GitHub-flavored markdown.
func FormatMarkdownTable(t Table) string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// WriteCSV writes series as long-format CSV (series,x,y).
func WriteCSV(w io.Writer, series []Series) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	for _, s := range series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Markdown renders an output as its section of EXPERIMENTS.md's
// per-experiment record: a heading, the tables, one line per series
// (point count and peak), the notes, and each claim with its verdict.
func Markdown(o *Output) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", o.ID, o.Title)
	for _, t := range o.Tables {
		fmt.Fprintf(&b, "**%s**\n\n%s\n", t.Title, FormatMarkdownTable(t))
	}
	for _, s := range o.Series {
		x, y := s.Peak()
		fmt.Fprintf(&b, "- series `%s`: %d points, peak %.6g at %.6g\n", s.Name, len(s.X), y, x)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	for _, c := range o.Claims {
		verdict := "holds"
		if !c.Holds {
			verdict = "FAILS"
		}
		fmt.Fprintf(&b, "- claim `%s` %s: %s\n", c.ID, verdict, c.Text)
	}
	b.WriteString("\n")
	return b.String()
}
