package st

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"silenttracker/internal/experiments"
)

// lookup returns the registered experiment a Result names. It fails
// only for a Result whose Campaign names no registered experiment —
// e.g. one deserialised from a newer writer.
func lookup(r *Result) (experiments.CampaignDef, error) {
	def, ok := experiments.CampaignNamed(r.Campaign)
	if !ok {
		return experiments.CampaignDef{}, fmt.Errorf("st: result for %q: %w", r.Campaign, ErrUnknownExperiment)
	}
	return def, nil
}

// textTable returns r.Table in the form def's text layout takes, after
// checking it has def's columns in order, each with one entry per
// row: a Result deserialised from elsewhere need not, and the layout
// indexes columns and rows directly. def.Table(nil) is the
// experiment's column schema with no rows.
func textTable(def experiments.CampaignDef, r *Result) (*experiments.Table, error) {
	want := def.Table(nil).Columns
	ok := len(r.Table.Columns) == len(want)
	for i := 0; ok && i < len(want); i++ {
		c := r.Table.Columns[i]
		ok = c.Name == want[i].Name && (c.Labels == nil || c.Values == nil) &&
			len(c.Labels)+len(c.Values) == r.Table.Rows()
	}
	if !ok {
		return nil, fmt.Errorf("st: result for %q: table does not have the experiment's columns", r.Campaign)
	}
	return internalTable(r.Table), nil
}

// RenderText writes the result as stbench prints it: the banner
// headline followed by the experiment's text table, formatted from
// r.Table alone. The bytes are identical to `stbench -exp <name>` at
// the same parameters.
func RenderText(w io.Writer, r *Result) error {
	def, err := lookup(r)
	if err != nil {
		return err
	}
	t, err := textTable(def, r)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("=", len(def.Title)+4))
	fmt.Fprintf(w, "  %s\n", def.Title)
	fmt.Fprintln(w, strings.Repeat("=", len(def.Title)+4))
	fmt.Fprintln(w)
	def.Text(w, t)
	return nil
}

// RenderCampaignText writes the result as stcampaign prints it: the
// `== campaign <name> ==` banner followed by the same text table. The
// bytes are identical to `stcampaign run` at the same parameters.
func RenderCampaignText(w io.Writer, r *Result) error {
	def, err := lookup(r)
	if err != nil {
		return err
	}
	t, err := textTable(def, r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n== campaign %s ==\n\n", r.Campaign)
	def.Text(w, t)
	return nil
}

// HasCSV reports whether the result's experiment has a raw-sample CSV
// form (false for unknown experiments).
func (r *Result) HasCSV() bool {
	def, ok := experiments.CampaignNamed(r.Campaign)
	return ok && def.CSV != nil
}

// RenderCSV writes the result's raw samples (from r.Cells) as CSV —
// the stbench -csv form. It fails for experiments without a CSV form
// (see HasCSV).
func RenderCSV(w io.Writer, r *Result) error {
	def, err := lookup(r)
	if err != nil {
		return err
	}
	if def.CSV == nil {
		return fmt.Errorf("st: %s has no CSV form", r.Campaign)
	}
	def.CSV(w, campaignCells(r.Cells))
	return nil
}

// jsonDoc is the stable JSON wire format stcampaign -json has emitted
// since the campaign engine landed: one document per campaign with the
// raw folded cells. Field names and shapes must not change.
type jsonDoc struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	Cells       []CellResult `json:"cells"`
}

// RenderJSON writes one or more results in the stcampaign -json wire
// format (a two-space-indented array of {name, description, cells}
// documents), byte-identical to the pre-API CLI. For the full
// structured form — typed table, stats, parameters — marshal the
// Result values directly instead.
func RenderJSON(w io.Writer, results ...*Result) error {
	docs := make([]jsonDoc, 0, len(results))
	for _, r := range results {
		docs = append(docs, jsonDoc{Name: r.Campaign, Description: r.Description, Cells: r.Cells})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

// RenderList writes the experiment listing as `stcampaign list`
// prints it: one aligned line per experiment.
func RenderList(w io.Writer, infos []Info) error {
	for _, in := range infos {
		if _, err := fmt.Fprintf(w, "%-12s %4d cells × %3d trials = %5d units   %s\n",
			in.Name, in.Cells, in.Trials, in.Units, in.Description); err != nil {
			return err
		}
	}
	return nil
}

// RenderDescription writes the description as `stcampaign describe`
// prints it, including the truncated per-cell cache keys.
func RenderDescription(w io.Writer, d *Description) error {
	fmt.Fprintf(w, "campaign:   %s\n", d.Name)
	fmt.Fprintf(w, "about:      %s\n", d.Description)
	fmt.Fprintf(w, "epoch:      %s\n", d.Epoch)
	if d.Config != "" {
		fmt.Fprintf(w, "config:     %s\n", d.Config)
	}
	fmt.Fprintf(w, "seeds:      base %d, stride %d\n", d.Seed, d.SeedStride)
	fmt.Fprintf(w, "trials:     %d per cell\n", d.Trials)
	for _, a := range d.Axes {
		fmt.Fprintf(w, "axis:       %s = %v\n", a.Name, a.Values)
	}
	fmt.Fprintf(w, "grid:       %d cells, %d units\n", len(d.Cells), d.Units)
	for _, c := range d.Cells {
		// Keys from Describe are 64 hex chars, but Description is plain
		// JSON-taggable data — render a short or empty key as-is rather
		// than panicking on the slice.
		key := c.Key
		if len(key) > 12 {
			key = key[:12]
		}
		if _, err := fmt.Fprintf(w, "  %-40s key %s…\n", campaignCell(c.Cell), key); err != nil {
			return err
		}
	}
	return nil
}
