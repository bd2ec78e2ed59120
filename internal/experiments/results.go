package experiments

// This file is the typed result path of every registered campaign:
// each experiment folds its cells into a Table — a column-major,
// renderer-independent summary — and its text layout formats that
// Table alone, so every number a text table prints is a column of the
// Table. The public st package re-exports Table verbatim, so
// programmatic consumers read typed columns instead of scraping
// stdout.

import (
	"fmt"
	"io"

	"silenttracker/internal/campaign"
)

// Table is the typed form of one experiment's summary: columns in
// presentation order, each carrying either labels (scenario names,
// strategy names) or values. All columns have one entry per row.
type Table struct {
	Columns []Column
}

// Column is one typed column. Exactly one of Labels/Values is
// populated: Labels for symbolic coordinates, Values for measurements.
// Unit names the value's unit ("%", "ms", "dB", ...); it is
// documentation, not a scale factor.
type Column struct {
	Name   string
	Unit   string
	Labels []string
	Values []float64
}

// rows returns the table's row count (all columns are equal length).
func (t *Table) rows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	c := t.Columns[0]
	if c.Labels != nil {
		return len(c.Labels)
	}
	return len(c.Values)
}

// row returns row i's entries in column order: a string for each
// label column, a float64 for each value column.
func (t *Table) row(i int) []any {
	out := make([]any, len(t.Columns))
	for j, c := range t.Columns {
		if c.Labels != nil {
			out[j] = c.Labels[i]
		} else {
			out[j] = c.Values[i]
		}
	}
	return out
}

// foldRows builds a Table with the given columns and one row per
// cell: row returns the cell's entries in column order, a string for
// a label column and a float64 for a value column.
func foldRows(cells []campaign.CellResult, cols []Column, row func(c *campaign.CellResult) []any) Table {
	for i := range cells {
		for j, v := range row(&cells[i]) {
			switch v := v.(type) {
			case string:
				cols[j].Labels = append(cols[j].Labels, v)
			case float64:
				cols[j].Values = append(cols[j].Values, v)
			default:
				panic(fmt.Sprintf("experiments: column %s: entry %T is neither label nor value", cols[j].Name, v))
			}
		}
	}
	return Table{Columns: cols}
}

// textRows is the text layout most experiments share: head verbatim
// (title and column header), then one line per Table row, formatted
// by row with one verb per column in column order.
func textRows(head, row string) func(io.Writer, *Table) {
	return func(w io.Writer, t *Table) {
		io.WriteString(w, head)
		for i := 0; i < t.rows(); i++ {
			fmt.Fprintf(w, row, t.row(i)...)
		}
	}
}

// pctOf returns the named rate of c as a percentage.
func pctOf(c *campaign.CellResult, name string) float64 {
	r := c.Rate(name)
	return r.Percent()
}

// meanOf returns the mean of the named sample of c.
func meanOf(c *campaign.CellResult, name string) float64 {
	s := c.Sample(name)
	return s.Mean()
}

// hardShare returns the fraction of c's completed handovers that
// degenerated into hard ones (0 with no handovers): total hard events
// over total completed handovers, from the per-UE counts.
func hardShare(c *campaign.CellResult) float64 {
	var hard, done float64
	for _, t := range c.Trials {
		for _, v := range t["hard_handovers"] {
			hard += v
		}
		for _, v := range t["handovers"] {
			done += v
		}
	}
	if done == 0 {
		return 0
	}
	return hard / done
}
