// Package mobility implements node movement models for the MANET
// simulation. The paper's experiments use the random waypoint model of
// Broch et al. (Table 7: speeds 2-10 m/s, 120 s holding time): every device
// repeatedly picks a uniform random destination in the spatial domain,
// travels there in a straight line at a uniform random speed, pauses for the
// holding time, and repeats.
//
// Positions are a pure function of simulated time: trajectories are
// materialized lazily as legs, so any component may ask for a node's
// position at any (non-decreasing or decreasing) time without coordination.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"manetskyline/internal/tuple"
)

// Model yields a node's position at a given simulated time.
type Model interface {
	// Pos returns the position at time t ≥ 0 (seconds).
	Pos(t float64) tuple.Point
}

// Bounded is implemented by models that declare the fastest they ever
// move. The radio medium uses the bound to keep its spatial index across
// timesteps; a model that declares none may move arbitrarily (teleport).
type Bounded interface {
	// MaxSpeed returns the speed bound in m/s; 0 means the node never moves.
	MaxSpeed() float64
}

// SpeedBound returns the fastest any of the models moves: the maximum of
// their declared bounds, or +Inf (unknown) when any model declares none.
// No models at all bound to 0.
func SpeedBound(models ...Model) float64 {
	bound := 0.0
	for _, m := range models {
		b, ok := m.(Bounded)
		if !ok {
			return math.Inf(1)
		}
		bound = max(bound, b.MaxSpeed())
	}
	return bound
}

// Static is a motionless node, used by the pre-tests and as a degenerate
// mobility model.
type Static tuple.Point

// Pos returns the fixed position.
func (s Static) Pos(float64) tuple.Point { return tuple.Point(s) }

// MaxSpeed declares that a static node never moves.
func (Static) MaxSpeed() float64 { return 0 }

// Config parameterizes the random waypoint model.
type Config struct {
	// Space is the side length of the square movement area.
	Space float64
	// SpeedMin and SpeedMax bound the per-leg uniform speed (m/s).
	SpeedMin, SpeedMax float64
	// Pause is the holding time at each destination (seconds).
	Pause float64
}

// DefaultConfig returns the paper's Table 7 settings over a 1000×1000 area.
func DefaultConfig() Config {
	return Config{Space: 1000, SpeedMin: 2, SpeedMax: 10, Pause: 120}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Space <= 0 {
		return fmt.Errorf("mobility: non-positive space %g", c.Space)
	}
	if c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin {
		return fmt.Errorf("mobility: bad speed range [%g,%g]", c.SpeedMin, c.SpeedMax)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %g", c.Pause)
	}
	return nil
}

// Waypoint is one node's random-waypoint trajectory.
type Waypoint struct {
	cfg  Config
	rng  *rand.Rand
	legs []leg // materialized prefix of the trajectory
	cur  int   // last-hit leg index; simulation queries are near-monotonic

	// Memo of legs[cur] with its direction vector: the covering-leg test
	// and the interpolation read these flat fields, so repeated queries on
	// one leg — a node pausing at a waypoint, or barely moving between
	// engine timesteps — touch no slice element and recompute no deltas.
	// Legs are append-only, so the memo is invalidated only when cur moves.
	memo   leg
	dx, dy float64
}

// leg covers [t0, t1): movement from a to b, then a pause until t1.
type leg struct {
	t0, moveEnd, t1 float64
	from, to        tuple.Point
}

// NewWaypoint creates a trajectory starting at a uniform random position.
// Each node must get its own rng (or at least its own seed) so trajectories
// are independent yet reproducible.
func NewWaypoint(cfg Config, seed int64) *Waypoint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := &Waypoint{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	start := w.randPoint()
	w.legs = append(w.legs, w.nextLeg(0, start))
	w.setCur(0)
	return w
}

// NewWaypointAt creates a trajectory starting at a fixed position, used
// when devices begin at the centre of their data's grid cell.
func NewWaypointAt(cfg Config, start tuple.Point, seed int64) *Waypoint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := &Waypoint{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	w.legs = append(w.legs, w.nextLeg(0, start))
	w.setCur(0)
	return w
}

// MaxSpeed declares the fastest leg speed, Config.SpeedMax.
func (w *Waypoint) MaxSpeed() float64 { return w.cfg.SpeedMax }

// setCur moves the leg cursor and refreshes the memoized leg and its
// direction vector. The deltas are the same expressions Pos used to
// evaluate inline, so interpolated positions stay bit-identical.
func (w *Waypoint) setCur(i int) {
	w.cur = i
	l := w.legs[i]
	w.memo = l
	w.dx = l.to.X - l.from.X
	w.dy = l.to.Y - l.from.Y
}

func (w *Waypoint) randPoint() tuple.Point {
	return tuple.Point{
		X: w.rng.Float64() * w.cfg.Space,
		Y: w.rng.Float64() * w.cfg.Space,
	}
}

func (w *Waypoint) nextLeg(t0 float64, from tuple.Point) leg {
	to := w.randPoint()
	speed := w.cfg.SpeedMin + w.rng.Float64()*(w.cfg.SpeedMax-w.cfg.SpeedMin)
	travel := from.Dist(to) / speed
	return leg{t0: t0, moveEnd: t0 + travel, t1: t0 + travel + w.cfg.Pause, from: from, to: to}
}

// covers reports whether leg i is the covering leg for time t, i.e. the
// first leg whose end time reaches t — the exact element the binary search
// finds.
func (w *Waypoint) covers(i int, t float64) bool {
	return w.legs[i].t1 >= t && (i == 0 || w.legs[i-1].t1 < t)
}

// Pos returns the node's position at time t. Times before zero clamp to the
// starting position. Position remains a pure function of t; the leg cursor
// only short-circuits the search, so queries may arrive in any order.
func (w *Waypoint) Pos(t float64) tuple.Point {
	if t <= 0 {
		return w.legs[0].from
	}
	// Fast path: the memoized leg still covers t (consecutive legs share
	// their boundary time exactly, so t0 < t ≤ t1 is the covers() test on
	// flat fields). A node pausing at a waypoint returns straight from the
	// memo; a moving node reuses the memoized direction vector.
	if t > w.memo.t0 && t <= w.memo.t1 {
		return w.interp(t)
	}
	// Extend the trajectory to cover t.
	for w.legs[len(w.legs)-1].t1 < t {
		last := w.legs[len(w.legs)-1]
		w.legs = append(w.legs, w.nextLeg(last.t1, last.to))
	}
	// Simulation time crawls forward, so the covering leg is almost always
	// the last-hit leg or its successor; fall back to binary search when
	// the query jumps elsewhere.
	i := w.cur
	if i >= len(w.legs) {
		i = len(w.legs) - 1
	}
	if !w.covers(i, t) {
		if i+1 < len(w.legs) && w.covers(i+1, t) {
			i++
		} else {
			lo, hi := 0, len(w.legs)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if w.legs[mid].t1 < t {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			i = lo
		}
	}
	w.setCur(i)
	return w.interp(t)
}

// interp evaluates the memoized leg at time t: the destination during the
// pause, linear interpolation with the memoized direction vector while
// moving. The arithmetic matches the pre-memo implementation operation for
// operation, keeping trajectories bit-identical.
func (w *Waypoint) interp(t float64) tuple.Point {
	if t >= w.memo.moveEnd {
		return w.memo.to // pausing
	}
	frac := (t - w.memo.t0) / (w.memo.moveEnd - w.memo.t0)
	return tuple.Point{
		X: w.memo.from.X + frac*w.dx,
		Y: w.memo.from.Y + frac*w.dy,
	}
}
