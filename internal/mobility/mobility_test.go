package mobility

import (
	"math"
	"math/rand"
	"testing"

	"manetskyline/internal/tuple"
)

func TestStatic(t *testing.T) {
	s := Static{X: 3, Y: 4}
	if s.Pos(0) != (tuple.Point{X: 3, Y: 4}) || s.Pos(1e6) != (tuple.Point{X: 3, Y: 4}) {
		t.Errorf("static node moved")
	}
}

// undeclared moves without declaring a speed bound.
type undeclared struct{}

func (undeclared) Pos(float64) tuple.Point { return tuple.Point{} }

// TestSpeedBound pins the bound the radio medium derives from its nodes:
// the maximum of the declared bounds, or unknown (+Inf) as soon as one
// model declares none.
func TestSpeedBound(t *testing.T) {
	slow := Config{Space: 1000, SpeedMin: 1, SpeedMax: 4, Pause: 0}
	fast := DefaultConfig() // SpeedMax 10
	field := NewField(slow)
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		models []Model
		want   float64
	}{
		{"none", nil, 0},
		{"static", []Model{Static{}, Static{X: 5}}, 0},
		{"waypoint", []Model{NewWaypoint(fast, 1)}, 10},
		{"field", []Model{field.Model(field.AddRandom(1))}, 4},
		{"max of declared", []Model{Static{}, NewWaypoint(slow, 2), NewWaypoint(fast, 3),
			field.Model(field.AddRandom(2))}, 10},
		{"undeclared alone", []Model{undeclared{}}, inf},
		{"undeclared among declared", []Model{NewWaypoint(fast, 4), Static{}, undeclared{}}, inf},
	} {
		if got := SpeedBound(tc.models...); got != tc.want {
			t.Errorf("%s: SpeedBound = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Space: 0, SpeedMin: 1, SpeedMax: 2},
		{Space: 10, SpeedMin: 0, SpeedMax: 2},
		{Space: 10, SpeedMin: 3, SpeedMax: 2},
		{Space: 10, SpeedMin: 1, SpeedMax: 2, Pause: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestWaypointStaysInBounds(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWaypoint(cfg, 42)
	for ti := 0; ti <= 7200; ti += 7 {
		p := w.Pos(float64(ti))
		if p.X < 0 || p.X > cfg.Space || p.Y < 0 || p.Y > cfg.Space {
			t.Fatalf("position %v at t=%d outside area", p, ti)
		}
	}
}

func TestWaypointSpeedBounds(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWaypoint(cfg, 7)
	const dt = 0.5
	prev := w.Pos(0)
	for ti := dt; ti < 3600; ti += dt {
		cur := w.Pos(ti)
		speed := prev.Dist(cur) / dt
		// Within a single leg the speed is ≤ SpeedMax; across a turn the
		// chord can only be shorter. Pauses give speed 0.
		if speed > cfg.SpeedMax+1e-9 {
			t.Fatalf("speed %v at t=%v exceeds max %v", speed, ti, cfg.SpeedMax)
		}
		prev = cur
	}
}

func TestWaypointActuallyMovesAndPauses(t *testing.T) {
	cfg := Config{Space: 1000, SpeedMin: 5, SpeedMax: 5, Pause: 100}
	w := NewWaypoint(cfg, 3)
	start := w.Pos(0)
	moved := false
	for ti := 1.0; ti < 600; ti++ {
		if w.Pos(ti).Dist(start) > 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("node never moved")
	}
	// Find a pause: some window of ≥ Pause seconds with no movement.
	paused := false
	for ti := 0.0; ti < 3600 && !paused; ti += 1 {
		if w.Pos(ti) == w.Pos(ti+cfg.Pause-1) {
			paused = true
		}
	}
	if !paused {
		t.Errorf("node never paused despite 100s holding time")
	}
}

func TestWaypointDeterministic(t *testing.T) {
	a := NewWaypoint(DefaultConfig(), 5)
	b := NewWaypoint(DefaultConfig(), 5)
	for ti := 0.0; ti < 1000; ti += 13 {
		if a.Pos(ti) != b.Pos(ti) {
			t.Fatalf("same seed diverged at t=%v", ti)
		}
	}
	c := NewWaypoint(DefaultConfig(), 6)
	diverged := false
	for ti := 0.0; ti < 1000; ti += 13 {
		if a.Pos(ti) != c.Pos(ti) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Errorf("different seeds gave identical trajectories")
	}
}

func TestWaypointRandomAccessTimeConsistency(t *testing.T) {
	// Pos must be a pure function of t: asking out of order or repeatedly
	// returns identical values.
	w := NewWaypoint(DefaultConfig(), 11)
	p1000 := w.Pos(1000)
	p10 := w.Pos(10)
	if w.Pos(1000) != p1000 || w.Pos(10) != p10 {
		t.Fatalf("Pos is not a pure function of time")
	}
	if w.Pos(-5) != w.Pos(0) {
		t.Errorf("negative time should clamp to start")
	}
}

func TestWaypointAt(t *testing.T) {
	start := tuple.Point{X: 123, Y: 456}
	w := NewWaypointAt(DefaultConfig(), start, 9)
	if w.Pos(0) != start {
		t.Errorf("Pos(0) = %v, want %v", w.Pos(0), start)
	}
}

func TestWaypointContinuity(t *testing.T) {
	// No teleporting: position change over dt is bounded by SpeedMax*dt.
	cfg := DefaultConfig()
	w := NewWaypoint(cfg, 99)
	for ti := 0.0; ti < 7200; ti += 0.25 {
		d := w.Pos(ti).Dist(w.Pos(ti + 0.25))
		if d > cfg.SpeedMax*0.25+1e-9 {
			t.Fatalf("discontinuity at t=%v: moved %v in 0.25s", ti, d)
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("invalid config should panic")
		}
	}()
	NewWaypoint(Config{}, 1)
}

func TestLegsCoverLongHorizons(t *testing.T) {
	w := NewWaypoint(DefaultConfig(), 2)
	p := w.Pos(100000) // ~28 simulated hours
	if math.IsNaN(p.X) || math.IsNaN(p.Y) {
		t.Fatalf("position is NaN")
	}
}

// TestWaypointCursorPurity checks that the leg cursor is invisible: a
// trajectory queried in an adversarial random order returns bit-identical
// positions to a fresh instance of the same seed queried monotonically.
func TestWaypointCursorPurity(t *testing.T) {
	const seed = 23
	ref := NewWaypoint(DefaultConfig(), seed)
	times := make([]float64, 200)
	want := make([]tuple.Point, len(times))
	for i := range times {
		times[i] = float64(i) * 7.3
		want[i] = ref.Pos(times[i])
	}
	w := NewWaypoint(DefaultConfig(), seed)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		for _, i := range r.Perm(len(times)) {
			if got := w.Pos(times[i]); got != want[i] {
				t.Fatalf("t=%g: cursor-order query %v != monotonic reference %v",
					times[i], got, want[i])
			}
		}
	}
}
