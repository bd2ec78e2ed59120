// Package experiments is the registry of every experiment that
// regenerates a table or figure of the paper's evaluation, plus the
// ablations and scenario families DESIGN.md calls out, along with the
// scenario builders they share. Each experiment is one CampaignDef:
// its campaign spec, the fold of its cells into a typed Table, and the
// text layout that formats that Table. The public st package runs and
// renders them.
package experiments

import (
	"math"

	"silenttracker/internal/antenna"
	"silenttracker/internal/geom"
	"silenttracker/internal/mobility"
	"silenttracker/internal/rng"
	"silenttracker/internal/sim"
	"silenttracker/internal/world"
)

// Scenario names the paper's three mobility cases.
type Scenario int

// The paper's mobility scenarios.
const (
	Walk Scenario = iota
	Rotation
	Vehicular
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Walk:
		return "Walk"
	case Rotation:
		return "Rotation"
	default:
		return "Vehicular"
	}
}

// ScenarioNamed parses a Scenario from its String form (campaign axis
// values are symbolic).
func ScenarioNamed(name string) Scenario {
	switch name {
	case "Walk":
		return Walk
	case "Rotation":
		return Rotation
	case "Vehicular":
		return Vehicular
	}
	panic("experiments: unknown scenario " + name)
}

// ScenarioNames returns the String forms in the paper's order.
func ScenarioNames() []string { return []string{"Walk", "Rotation", "Vehicular"} }

// BeamConfig names the paper's mobile codebook configurations.
type BeamConfig int

// The paper's Fig. 2a codebook configurations.
const (
	Narrow BeamConfig = iota // 20° beams
	Wide                     // 60° beams
	Omni                     // single antenna
)

// String implements fmt.Stringer.
func (b BeamConfig) String() string {
	switch b {
	case Narrow:
		return "Narrow"
	case Wide:
		return "Wide"
	default:
		return "Omni"
	}
}

// BeamConfigNamed parses a BeamConfig from its String form.
func BeamConfigNamed(name string) BeamConfig {
	switch name {
	case "Narrow":
		return Narrow
	case "Wide":
		return Wide
	case "Omni":
		return Omni
	}
	panic("experiments: unknown beam config " + name)
}

// Book returns the mobile codebook for the configuration.
func (b BeamConfig) Book() *antenna.Codebook {
	switch b {
	case Narrow:
		return antenna.NarrowMobile()
	case Wide:
		return antenna.WideMobile()
	default:
		return antenna.OmniMobile()
	}
}

// CellSeparation is the distance between the two edge cells, meters.
// The paper's testbed put the mobile ~10 m from the base station at
// the cell edge; two cells 20 m apart give exactly that geometry at
// the boundary.
const CellSeparation = 20.0

// EdgeBuilder returns a builder for the canonical two-cell edge
// scenario: cell 1 at the origin facing east, cell 2 at
// (CellSeparation, 0) facing west, burst offsets staggered so the
// mobile can interleave measurements.
func EdgeBuilder(seed int64) *world.Builder {
	b := world.NewBuilder(seed)
	b.Cfg.AlwaysSearch = true
	b.ServingCell = 1
	b.AddCell(world.CellSpec{ID: 1, Pos: geom.V(0, 0), Facing: 0, BurstOffset: 0})
	b.AddCell(world.CellSpec{ID: 2, Pos: geom.V(CellSeparation, 0), Facing: math.Pi,
		BurstOffset: 10 * sim.Millisecond})
	return b
}

// jitter derives per-trial scenario randomisation from the seed.
func jitter(seed int64) *rng.Source { return rng.Stream(seed, "experiments/jitter") }

// MobilityFor returns the trial's mobility model: the paper's walk
// (1.4 m/s), rotation (120°/s), or vehicle (20 mph), each with a
// randomised start so trials differ in geometry phase.
func MobilityFor(s Scenario, seed int64) mobility.Model {
	j := jitter(seed)
	switch s {
	case Walk:
		// Start just west of the crossover (≈ x = 10.9 with the
		// default margin), walking east through it — the paper's
		// cell-edge walk, 10 m from the base station.
		start := geom.V(j.Uniform(9.0, 10.0), j.Uniform(-0.8, 0.8))
		return mobility.NewWalk(start, j.Uniform(-0.08, 0.08), seed)
	case Rotation:
		// Standing just past the boundary (neighbor slightly stronger)
		// while the device spins.
		pos := geom.V(j.Uniform(12.0, 13.0), j.Uniform(-0.8, 0.8))
		return mobility.NewRotation(pos, seed)
	default:
		// Drive through the boundary at 20 mph.
		start := geom.V(j.Uniform(5.5, 6.5), j.Uniform(-1.2, 1.2))
		return mobility.NewVehicle(start, j.Uniform(-0.04, 0.04), seed)
	}
}

// HorizonFor returns how long each scenario needs to complete its
// first handover comfortably.
func HorizonFor(s Scenario) sim.Time {
	switch s {
	case Vehicular:
		return 5 * sim.Second
	default:
		return 8 * sim.Second
	}
}

// EdgeWorld assembles the full per-trial world for (scenario, beams,
// seed).
func EdgeWorld(s Scenario, beams BeamConfig, seed int64) *world.World {
	b := EdgeBuilder(seed)
	b.UEBook = beams.Book()
	b.Mob = MobilityFor(s, seed)
	return b.Build()
}
