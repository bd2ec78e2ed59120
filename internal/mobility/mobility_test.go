package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"silenttracker/internal/geom"
)

func TestStatic(t *testing.T) {
	s := Static{Pos: geom.V(1, 2), Facing: 0.5}
	for _, tm := range []float64{0, 1, 100} {
		if s.PoseAt(tm) != geom.Pose(s) {
			t.Fatal("static pose moved")
		}
	}
}

func TestWalkSpeed(t *testing.T) {
	w := NewWalk(geom.V(0, 0), 0, 1)
	p0, p10 := w.PoseAt(0), w.PoseAt(10)
	d := p0.Pos.Dist(p10.Pos)
	// 14 m along-track, plus sub-0.2 m lateral weave.
	if math.Abs(d-14) > 0.5 {
		t.Errorf("walk covered %v m in 10 s, want ~14", d)
	}
}

func TestWalkFacingSwayBounded(t *testing.T) {
	w := NewWalk(geom.V(0, 0), geom.Deg(30), 2)
	for tm := 0.0; tm < 20; tm += 0.05 {
		dev := geom.AngleDist(w.PoseAt(tm).Facing, geom.Deg(30))
		if dev > geom.Deg(15) {
			t.Fatalf("facing sway %v° too large at t=%v", geom.Rad(dev), tm)
		}
	}
}

func TestWalkDeterministic(t *testing.T) {
	a := NewWalk(geom.V(0, 0), 0, 7)
	b := NewWalk(geom.V(0, 0), 0, 7)
	for tm := 0.0; tm < 5; tm += 0.3 {
		if a.PoseAt(tm) != b.PoseAt(tm) {
			t.Fatal("same-seed walks diverged")
		}
	}
	c := NewWalk(geom.V(0, 0), 0, 8)
	same := true
	for tm := 0.5; tm < 5; tm += 0.3 {
		if a.PoseAt(tm) != c.PoseAt(tm) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sway")
	}
}

func TestRotationRate(t *testing.T) {
	r := NewRotation(geom.V(3, 4), 1)
	if r.PoseAt(5).Pos != geom.V(3, 4) {
		t.Error("rotation moved position")
	}
	// Average rate over 3 s should be ~120°/s (jitter averages out).
	f0 := r.PoseAt(0).Facing
	f3 := r.PoseAt(3).Facing
	// 3 s at 120°/s = 360°: facing returns near start.
	if geom.AngleDist(f0, f3) > geom.Deg(6) {
		t.Errorf("after full revolution facing off by %v°", geom.Rad(geom.AngleDist(f0, f3)))
	}
	// Quarter second = 30°.
	f := geom.AngleDist(r.PoseAt(0.25).Facing, geom.WrapAngle(f0+geom.Deg(30)))
	if f > geom.Deg(5) {
		t.Errorf("quarter-second rotation off by %v°", geom.Rad(f))
	}
}

func TestVehicleSpeed(t *testing.T) {
	v := NewVehicle(geom.V(0, 0), math.Pi/2, 3)
	d := v.PoseAt(0).Pos.Dist(v.PoseAt(2).Pos)
	if math.Abs(d-2*VehicularSpeed) > 0.01 {
		t.Errorf("vehicle covered %v m in 2 s, want %v", d, 2*VehicularSpeed)
	}
	// 20 mph constant check.
	if math.Abs(VehicularSpeed-8.9408) > 1e-6 {
		t.Errorf("VehicularSpeed = %v", VehicularSpeed)
	}
}

func TestVehicleHeadingStable(t *testing.T) {
	v := NewVehicle(geom.V(0, 0), geom.Deg(45), 4)
	for tm := 0.0; tm < 10; tm += 0.1 {
		if geom.AngleDist(v.PoseAt(tm).Facing, geom.Deg(45)) > geom.Deg(4) {
			t.Fatal("vehicle heading jitter too large")
		}
	}
}

func TestRandomWaypointStaysInBox(t *testing.T) {
	m := NewRandomWaypoint(50, 30, 1.4, 120, 5)
	for tm := 0.0; tm < 120; tm += 0.5 {
		p := m.PoseAt(tm).Pos
		if p.X < -1e-9 || p.X > 50+1e-9 || p.Y < -1e-9 || p.Y > 30+1e-9 {
			t.Fatalf("left the box at t=%v: %v", tm, p)
		}
	}
}

func TestRandomWaypointContinuous(t *testing.T) {
	m := NewRandomWaypoint(50, 30, 1.4, 60, 6)
	prev := m.PoseAt(0).Pos
	for tm := 0.05; tm < 60; tm += 0.05 {
		cur := m.PoseAt(tm).Pos
		// At 1.4 m/s, 50 ms moves at most 0.07 m.
		if prev.Dist(cur) > 0.08 {
			t.Fatalf("trajectory jumped %v m at t=%v", prev.Dist(cur), tm)
		}
		prev = cur
	}
}

func TestRandomWaypointBeforeStart(t *testing.T) {
	m := NewRandomWaypoint(10, 10, 1, 20, 7)
	if m.PoseAt(-5).Pos != m.PoseAt(0).Pos {
		t.Error("negative time should pin to start")
	}
}

func TestWalkAndTurn(t *testing.T) {
	base := Static{Pos: geom.V(0, 0), Facing: 0}
	wt := &WalkAndTurn{Base: base, TurnStart: 1, TurnDur: 2, TurnAngle: geom.Deg(90)}
	if f := wt.PoseAt(0.5).Facing; f != 0 {
		t.Errorf("before turn facing = %v", f)
	}
	if f := wt.PoseAt(2).Facing; geom.AngleDist(f, geom.Deg(45)) > 1e-9 {
		t.Errorf("mid-turn facing = %v°, want 45°", geom.Rad(f))
	}
	if f := wt.PoseAt(10).Facing; geom.AngleDist(f, geom.Deg(90)) > 1e-9 {
		t.Errorf("after turn facing = %v°, want 90°", geom.Rad(f))
	}
}

func TestAngularRateOrdering(t *testing.T) {
	// Rotation at 120°/s stresses tracking far more than walking past a
	// BS 10 m away (1.4/10 rad/s ≈ 8°/s), which exceeds vehicular at
	// 50 m. This ordering is why the paper's three scenarios matter.
	target := geom.V(0, 10)
	walk := NewWalk(geom.V(-5, 0), 0, 1)
	rot := NewRotation(geom.V(0, 0), 1)
	rateWalk := math.Abs(AngularRateTo(walk, target, 3.5))
	rateRot := math.Abs(AngularRateTo(rot, target, 3.5))
	if rateRot <= rateWalk {
		t.Errorf("rotation rate %v should exceed walk rate %v", rateRot, rateWalk)
	}
	if rateRot < geom.Deg(100) || rateRot > geom.Deg(140) {
		t.Errorf("rotation angular rate = %v°/s, want ~120", geom.Rad(rateRot))
	}
}

func TestPureFunctionProperty(t *testing.T) {
	// Sampling out of order must give identical results to in-order.
	w := NewWalk(geom.V(0, 0), 0, 9)
	f := func(t1, t2 float64) bool {
		t1, t2 = math.Abs(math.Mod(t1, 30)), math.Abs(math.Mod(t2, 30))
		a1 := w.PoseAt(t1)
		_ = w.PoseAt(t2)
		a2 := w.PoseAt(t1)
		return a1 == a2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// exactPoseTimes spans 10⁵ sample times: negative, around zero, and
// large, at an irregular step so the products hit many roundings.
func exactPoseTimes(yield func(float64)) {
	for i := 0; i < 100000; i++ {
		switch i % 3 {
		case 0:
			yield((float64(i) - 50000) * 0.0137)
		case 1:
			yield(float64(i) * 2.5e-4)
		default:
			yield(1e6 + float64(i)*123.456)
		}
	}
}

func samePose(a, b geom.Pose) bool {
	bits := math.Float64bits
	return bits(a.Pos.X) == bits(b.Pos.X) && bits(a.Pos.Y) == bits(b.Pos.Y) &&
		bits(a.Facing) == bits(b.Facing)
}

// TestCachedTrigPosesExact: the cached heading vectors reproduce the
// per-call geom.FromPolar poses bit for bit.
func TestCachedTrigPosesExact(t *testing.T) {
	for _, heading := range []float64{0, math.Pi / 2, -2.5, 3.1, 0.7853981633974483, -math.Pi} {
		w := NewWalk(geom.V(3, -7), heading, 11)
		v := NewVehicleSpeed(geom.V(-1, 2), heading, 25, 11)
		exactPoseTimes(func(tm float64) {
			wantW := geom.Pose{
				Pos: w.Start.Add(geom.FromPolar(w.Speed*tm, heading)).
					Add(geom.FromPolar(w.latSway.at(tm), heading+math.Pi/2)),
				Facing: geom.WrapAngle(heading + w.faceSway.at(tm)),
			}
			if got := w.PoseAt(tm); !samePose(got, wantW) {
				t.Fatalf("walk heading %v t=%v: %+v, reference %+v", heading, tm, got, wantW)
			}
			wantV := geom.Pose{
				Pos:    v.Start.Add(geom.FromPolar(v.Speed*tm, heading)),
				Facing: geom.WrapAngle(heading + v.jitter.at(tm)),
			}
			if got := v.PoseAt(tm); !samePose(got, wantV) {
				t.Fatalf("vehicle heading %v t=%v: %+v, reference %+v", heading, tm, got, wantV)
			}
		})
	}
}
