// Package stats provides the text tables the simulator and the experiment
// harness report results in.
package stats

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns, in the
// spirit of the tables in the paper's evaluation section.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// Rows returns the formatted row cells.
func (t *Table) Rows() [][]string { return t.rows }

// MarshalJSON encodes the table as {"title", "header", "rows"} so reports
// can be consumed by scripts (lelantus-bench -json).
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{t.Title, t.header, rows})
}

// UnmarshalJSON restores a table encoded with MarshalJSON.
func (t *Table) UnmarshalJSON(b []byte) error {
	var v struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	t.Title, t.header, t.rows = v.Title, v.Header, v.Rows
	return nil
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.header, " | ") + " |\n")
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}
