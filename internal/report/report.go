// Package report renders fixed-width tables in the style of the paper's
// tables, including paper-vs-measured comparison layouts.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row, stringifying the cells with %v and float64s through
// Float, so a cell's magnitude never collapses to "0.00".
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = Float(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Float renders a float64 adaptively: integral values without a decimal
// tail, everything else to four significant digits. Unlike a fixed "%.2f",
// small per-million-reference rates keep their magnitude ("3.2e-05", never
// "0.00").
func Float(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	total := 0
	for _, w := range width {
		total += w + 2
	}
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Repeat("=", min(total, 100)))
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		line(t.Header)
		for i := range width {
			fmt.Fprintf(&b, "%-*s", width[i]+2, strings.Repeat("-", width[i]))
		}
		b.WriteString("\n")
	}
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

// Pct formats a ratio as the paper prints its relative columns: "(102%)".
func Pct(x float64) string { return fmt.Sprintf("(%.0f%%)", 100*x) }

// Ratio formats a ratio as the paper's Table 3.4 relative row: "(1.16)".
func Ratio(x float64) string { return fmt.Sprintf("(%.2f)", x) }

// MCycles formats cycles in millions with three significant digits, as in
// Table 3.4.
func MCycles(c uint64) string {
	m := float64(c) / 1e6
	switch {
	case m >= 100:
		return fmt.Sprintf("%.0f", m)
	case m >= 10:
		return fmt.Sprintf("%.1f", m)
	case m >= 1:
		return fmt.Sprintf("%.2f", m)
	default:
		return fmt.Sprintf("%.3f", m)
	}
}
