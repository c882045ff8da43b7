package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// Table is a formatted experiment result: a titled grid of cells.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells, each rendered with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintln(&b, t.Note)
	}
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}
