// Package report renders experiment results as fixed-width text tables,
// matching the tables and figures of the paper for side-by-side
// comparison.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	sep := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		sep[i] = strings.Repeat("-", widths[i])
	}
	b.WriteString("\n")
	for i := range sep {
		fmt.Fprintf(&b, "%s  ", sep[i])
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Bar renders a quick ASCII bar for a value in [0, max].
func Bar(value, max float64, width int) string {
	if max <= 0 || width <= 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}
