package st

import (
	"fmt"
	"time"

	"silenttracker/internal/campaign"
	"silenttracker/internal/experiments"
)

// AxisValue is one coordinate of a sweep cell. The JSON field names
// (axis/value) are part of the stable wire format RenderJSON emits.
type AxisValue struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Cell is one point of a sweep grid: an ordered assignment of a value
// to every axis.
type Cell []AxisValue

// Get returns the cell's value on the named axis ("" if absent).
func (c Cell) Get(axis string) string {
	for _, av := range c {
		if av.Axis == axis {
			return av.Value
		}
	}
	return ""
}

// String renders the cell as "axis=value,axis=value".
func (c Cell) String() string { return campaignCell(c).String() }

// Metrics is what one trial produced: named observation vectors, one
// entry per observation, in observation order. Metrics round-trip
// through JSON without loss.
type Metrics map[string][]float64

// CellResult is one folded cell: every trial's metrics in trial order.
type CellResult struct {
	Cell   Cell      `json:"cell"`
	Trials []Metrics `json:"trials"`
}

// Table is the typed summary of one experiment: columns in
// presentation order, each carrying either Labels (symbolic
// coordinates: scenario, strategy, codebook names) or Values
// (measurements). All columns have one entry per row; Unit documents
// the value's unit ("%", "ms", "dB", ...).
type Table struct {
	Columns []Column `json:"columns"`
}

// Column is one typed column of a Table. Exactly one of Labels/Values
// is populated.
type Column struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	Labels []string  `json:"labels,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// Rows returns the table's row count.
func (t *Table) Rows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	c := t.Columns[0]
	if c.Labels != nil {
		return len(c.Labels)
	}
	return len(c.Values)
}

// Column returns the named column and whether it exists.
func (t *Table) Column(name string) (Column, bool) {
	for _, c := range t.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Stats summarises one run's cache behaviour and cost.
type Stats struct {
	Units    int `json:"units"`    // trial units the sweep expanded to
	Computed int `json:"computed"` // units actually executed
	Cached   int `json:"cached"`   // units served from the result store
	// Store carries the run's per-tier store counters (hit / miss /
	// corrupt / evict / error, plus the resilience counters retry /
	// open / short), one entry per tier in tier order; nil for a
	// store-less run. Counters are per-run deltas.
	Store []TierStats `json:"store,omitempty"`
	// PutFailed counts units whose store write failed in every tier.
	// Results are unaffected; a nonzero count means the store is
	// degraded (see the StoreDegraded event). Excluded from String()
	// so the frozen stats line never changes shape.
	PutFailed int           `json:"put_failed,omitempty"`
	Elapsed   time.Duration `json:"elapsed"` // wall clock of the run
}

// String renders the stats in the stable one-line form the stcampaign
// CLI prints on stderr (Elapsed excluded, so the line is comparable
// across runs): the fixed units/computed/cached triple first, then one
// bracket group per store tier, e.g. "... mem[hit=3 miss=7 evict=2]".
func (s Stats) String() string {
	out := fmt.Sprintf("units=%d computed=%d cached=%d", s.Units, s.Computed, s.Cached)
	for _, t := range s.Store {
		out += " " + t.String()
	}
	return out
}

// Result is the structured outcome of one experiment run. It is plain
// data: it marshals to JSON and back without loss, and every renderer
// is a pure function of the value — so a Result can be stored,
// shipped, and rendered elsewhere.
type Result struct {
	// Campaign is the canonical experiment name in the registry.
	Campaign string `json:"campaign"`
	// Title is the human banner headline (what stbench prints).
	Title string `json:"title"`
	// Description is the one-line summary (what the listing prints).
	Description string `json:"description"`

	// Quick, Seed, Trials record the effective run parameters — enough
	// to reproduce the run.
	Quick  bool  `json:"quick,omitempty"`
	Seed   int64 `json:"seed"`
	Trials int   `json:"trials"`

	// Cells carry the raw per-cell, per-trial metrics in fold order.
	Cells []CellResult `json:"cells"`
	// Table is the experiment's typed summary derived from Cells; the
	// text renderers format it alone.
	Table Table `json:"table"`
	// Stats summarises the run (cache hits, units computed, wall clock).
	Stats Stats `json:"stats"`
	// Report carries the run's telemetry — span tree, metric deltas,
	// latency histograms — when the session enabled WithMetrics; nil
	// otherwise. Like Elapsed it is measurement, not results: two runs
	// with identical Cells and Table may carry different Reports.
	Report *Report `json:"report,omitempty"`
}

// ---- conversions between the public types and internal/campaign ----

func publicCell(c campaign.Cell) Cell {
	out := make(Cell, len(c))
	for i, av := range c {
		out[i] = AxisValue{Axis: av.Axis, Value: av.Value}
	}
	return out
}

func campaignCell(c Cell) campaign.Cell {
	out := make(campaign.Cell, len(c))
	for i, av := range c {
		out[i] = campaign.AxisValue{Axis: av.Axis, Value: av.Value}
	}
	return out
}

func publicCells(cells []campaign.CellResult) []CellResult {
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		trials := make([]Metrics, len(c.Trials))
		for j, m := range c.Trials {
			trials[j] = Metrics(m)
		}
		out[i] = CellResult{Cell: publicCell(c.Cell), Trials: trials}
	}
	return out
}

func campaignCells(cells []CellResult) []campaign.CellResult {
	out := make([]campaign.CellResult, len(cells))
	for i, c := range cells {
		trials := make([]campaign.Metrics, len(c.Trials))
		for j, m := range c.Trials {
			trials[j] = campaign.Metrics(m)
		}
		out[i] = campaign.CellResult{Cell: campaignCell(c.Cell), Trials: trials}
	}
	return out
}

func publicTable(t experiments.Table) Table {
	cols := make([]Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = Column(c)
	}
	return Table{Columns: cols}
}

func internalTable(t Table) *experiments.Table {
	cols := make([]experiments.Column, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = experiments.Column(c)
	}
	return &experiments.Table{Columns: cols}
}

func publicStats(rs campaign.RunStats) Stats {
	return Stats{Units: rs.Units, Computed: rs.Computed, Cached: rs.Cached,
		Store: publicTiers(rs.Tiers), PutFailed: rs.PutFailed, Elapsed: rs.Elapsed}
}
