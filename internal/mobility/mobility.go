// Package mobility provides the trajectory models of the paper's
// three evaluation scenarios — human walk (1.4 m/s), device rotation
// (120°/s), and vehicular motion (20 mph) — plus a random-waypoint
// model for larger scenarios.
//
// A Model is a pure function from time to Pose: given the same seed it
// always returns the same trajectory, and it may be sampled at
// arbitrary times in any order. Human-motion irregularity (gait sway,
// hand jitter) is modelled with fixed-phase sinusoids drawn at
// construction, which keeps the pure-function property.
package mobility

import (
	"math"

	"silenttracker/internal/geom"
	"silenttracker/internal/rng"
)

// WalkSpeed is the paper's pedestrian speed, m/s.
const WalkSpeed = 1.4

// VehicularSpeed is the paper's vehicular speed: 20 mph in m/s.
const VehicularSpeed = 8.9408

// RotationRate is the paper's device rotation rate, rad/s (120°/s).
var RotationRate = geom.Deg(120)

// Model yields the mobile's pose (position + facing) at any time.
type Model interface {
	PoseAt(t float64) geom.Pose
}

// Static is a motionless pose, useful in tests and as a base-station
// "trajectory".
type Static geom.Pose

// PoseAt implements Model.
func (s Static) PoseAt(t float64) geom.Pose { return geom.Pose(s) }

// sway is a small quasi-periodic angular or linear disturbance built
// from two incommensurate sinusoids with random phases.
type sway struct {
	amp1, freq1, phase1 float64
	amp2, freq2, phase2 float64
}

func newSway(src *rng.Source, amp, baseFreq float64) sway {
	return sway{
		amp1: amp, freq1: baseFreq * src.Uniform(0.9, 1.1), phase1: src.Uniform(0, geom.TwoPi),
		amp2: amp * 0.4, freq2: baseFreq * src.Uniform(1.7, 2.3), phase2: src.Uniform(0, geom.TwoPi),
	}
}

func (s sway) at(t float64) float64 {
	return s.amp1*math.Sin(geom.TwoPi*s.freq1*t+s.phase1) +
		s.amp2*math.Sin(geom.TwoPi*s.freq2*t+s.phase2)
}

// Walk is a pedestrian walking a straight line with gait-induced
// facing sway and slight lateral weave — the paper's "human walk at
// cell edge" scenario.
type Walk struct {
	Start geom.Vec
	Speed float64 // m/s

	heading float64  // direction of travel, radians
	dir     geom.Vec // unit vector along heading
	side    geom.Vec // unit vector along heading+π/2 (the weave axis)

	faceSway sway // radians of facing oscillation
	latSway  sway // meters of lateral weave
}

// NewWalk builds a walk at the paper's 1.4 m/s with typical human gait
// disturbance (≈8° facing sway at step frequency ~1.8 Hz).
func NewWalk(start geom.Vec, heading float64, seed int64) *Walk {
	src := rng.Stream(seed, "mobility/walk")
	return &Walk{
		Start:    start,
		Speed:    WalkSpeed,
		heading:  heading,
		dir:      geom.FromPolar(1, heading),
		side:     geom.FromPolar(1, heading+math.Pi/2),
		faceSway: newSway(src, geom.Deg(8), 0.9),
		latSway:  newSway(src, 0.08, 1.8),
	}
}

// PoseAt implements Model. The fixed directions are cached unit
// vectors: r·cosθ is exactly geom.FromPolar(r, θ).X, so the pose is
// bit-identical to evaluating the trig per call.
func (w *Walk) PoseAt(t float64) geom.Pose {
	along := w.dir.Scale(w.Speed * t)
	lateral := w.side.Scale(w.latSway.at(t))
	return geom.Pose{
		Pos:    w.Start.Add(along).Add(lateral),
		Facing: geom.WrapAngle(w.heading + w.faceSway.at(t)),
	}
}

// Rotation is a stationary device spinning at a constant angular rate
// with small hand jitter — the paper's device-rotation scenario.
type Rotation struct {
	Pos    geom.Vec
	Rate   float64 // rad/s
	Phase  float64 // initial facing
	jitter sway
}

// NewRotation builds the paper's 120°/s rotation at a fixed position.
func NewRotation(pos geom.Vec, seed int64) *Rotation {
	src := rng.Stream(seed, "mobility/rotation")
	return &Rotation{
		Pos:    pos,
		Rate:   RotationRate,
		Phase:  src.Uniform(0, geom.TwoPi),
		jitter: newSway(src, geom.Deg(2), 3),
	}
}

// PoseAt implements Model.
func (r *Rotation) PoseAt(t float64) geom.Pose {
	return geom.Pose{
		Pos:    r.Pos,
		Facing: geom.WrapAngle(r.Phase + r.Rate*t + r.jitter.at(t)),
	}
}

// Vehicle is straight-line vehicular motion at 20 mph with slight
// suspension-induced heading jitter.
type Vehicle struct {
	Start   geom.Vec
	Speed   float64
	heading float64
	dir     geom.Vec // unit vector along heading
	jitter  sway
}

// NewVehicle builds the paper's 20 mph vehicular trajectory.
func NewVehicle(start geom.Vec, heading float64, seed int64) *Vehicle {
	return NewVehicleSpeed(start, heading, VehicularSpeed, seed)
}

// NewVehicleSpeed builds a vehicular trajectory at an arbitrary speed
// (m/s) — the highway scenario family sweeps this. The jitter draw
// order matches NewVehicle exactly, so NewVehicleSpeed(…,
// VehicularSpeed, seed) is identical to NewVehicle(…, seed).
func NewVehicleSpeed(start geom.Vec, heading, speed float64, seed int64) *Vehicle {
	src := rng.Stream(seed, "mobility/vehicle")
	return &Vehicle{
		Start:   start,
		Speed:   speed,
		heading: heading,
		dir:     geom.FromPolar(1, heading),
		jitter:  newSway(src, geom.Deg(1.5), 1.1),
	}
}

// PoseAt implements Model, with the heading's trig cached as in Walk.
func (v *Vehicle) PoseAt(t float64) geom.Pose {
	return geom.Pose{
		Pos:    v.Start.Add(v.dir.Scale(v.Speed * t)),
		Facing: geom.WrapAngle(v.heading + v.jitter.at(t)),
	}
}

// Waypoint is one leg endpoint of a RandomWaypoint trajectory.
type Waypoint struct {
	Pos  geom.Vec
	At   float64 // arrival time, s
	Wait float64 // pause before departing, s
}

// RandomWaypoint wanders inside a rectangle: pick a point, walk to it,
// pause, repeat. Facing follows the direction of travel.
type RandomWaypoint struct {
	wps []Waypoint
}

// NewRandomWaypoint precomputes a trajectory inside the box
// [0,w]×[0,h] lasting at least horizon seconds.
func NewRandomWaypoint(w, h, speed, horizon float64, seed int64) *RandomWaypoint {
	src := rng.Stream(seed, "mobility/rwp")
	cur := geom.V(src.Uniform(0, w), src.Uniform(0, h))
	t := 0.0
	m := &RandomWaypoint{}
	m.wps = append(m.wps, Waypoint{Pos: cur, At: 0, Wait: 0})
	for t < horizon {
		next := geom.V(src.Uniform(0, w), src.Uniform(0, h))
		d := cur.Dist(next)
		if d < 1 {
			continue
		}
		t += d / speed
		wait := src.Uniform(0, 2)
		m.wps = append(m.wps, Waypoint{Pos: next, At: t, Wait: wait})
		t += wait
		cur = next
	}
	return m
}

// PoseAt implements Model.
func (m *RandomWaypoint) PoseAt(t float64) geom.Pose {
	if t <= 0 {
		first := m.wps[0]
		return geom.Pose{Pos: first.Pos, Facing: 0}
	}
	for i := 1; i < len(m.wps); i++ {
		prev, cur := m.wps[i-1], m.wps[i]
		depart := prev.At + prev.Wait
		if t < depart {
			// Waiting at prev.
			facing := prev.Pos.BearingTo(cur.Pos)
			return geom.Pose{Pos: prev.Pos, Facing: facing}
		}
		if t < cur.At {
			frac := (t - depart) / (cur.At - depart)
			pos := prev.Pos.Add(cur.Pos.Sub(prev.Pos).Scale(frac))
			return geom.Pose{Pos: pos, Facing: prev.Pos.BearingTo(cur.Pos)}
		}
	}
	last := m.wps[len(m.wps)-1]
	return geom.Pose{Pos: last.Pos, Facing: 0}
}

// WalkAndTurn composes a walk with an additional facing rotation —
// e.g. a pedestrian turning a corner mid-trajectory. The turn ramps
// linearly from TurnStart over TurnDur seconds up to TurnAngle.
type WalkAndTurn struct {
	Base      Model
	TurnStart float64
	TurnDur   float64
	TurnAngle float64
}

// PoseAt implements Model.
func (w *WalkAndTurn) PoseAt(t float64) geom.Pose {
	p := w.Base.PoseAt(t)
	switch {
	case t <= w.TurnStart:
	case t >= w.TurnStart+w.TurnDur:
		p.Facing = geom.WrapAngle(p.Facing + w.TurnAngle)
	default:
		frac := (t - w.TurnStart) / w.TurnDur
		p.Facing = geom.WrapAngle(p.Facing + w.TurnAngle*frac)
	}
	return p
}

// AngularRateTo estimates the rate (rad/s) at which the body-frame
// bearing from the mobile to a fixed target changes at time t — the
// quantity that stresses beam tracking. Computed by finite difference.
func AngularRateTo(m Model, target geom.Vec, t float64) float64 {
	const dt = 1e-3
	a := m.PoseAt(t).LocalBearingTo(target)
	b := m.PoseAt(t + dt).LocalBearingTo(target)
	return geom.WrapAngle(b-a) / dt
}
