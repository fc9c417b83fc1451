package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"manetskyline/internal/mobility"
	"manetskyline/internal/sim"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// linearModel moves in a straight line forever: position is an exact
// function of time, so boundary crossings happen at precisely computable
// instants.
type linearModel struct{ x0, y0, vx, vy float64 }

func (m linearModel) Pos(t float64) tuple.Point {
	return tuple.Point{X: m.x0 + m.vx*t, Y: m.y0 + m.vy*t}
}

// MaxSpeed declares the model's exact speed.
func (m linearModel) MaxSpeed() float64 { return math.Hypot(m.vx, m.vy) }

// teleportModel holds a mutable position: the churn test reassigns it
// between ticks to model nodes that jump arbitrarily far. It declares no
// speed bound.
type teleportModel struct{ p tuple.Point }

func (m *teleportModel) Pos(float64) tuple.Point { return m.p }

// TestEpochGridMatchesBruteForce is the property test for the epoch grid
// under a declared speed bound: random waypoint motion from either backend
// (*Waypoint or a Field node), probe times chosen so that most probes land
// *between* rebuilds — exercising stale buckets, the expanded probe ring,
// and incremental cell migration — and every probe must still return
// exactly the brute-force neighbor set, same IDs, same order.
func TestEpochGridMatchesBruteForce(t *testing.T) {
	mcfg := mobility.DefaultConfig()
	backends := []struct {
		name  string
		nodes func(n int) []mobility.Model
	}{
		{"waypoint", func(n int) []mobility.Model {
			ms := make([]mobility.Model, n)
			for i := range ms {
				ms[i] = mobility.NewWaypoint(mcfg, int64(i+1))
			}
			return ms
		}},
		{"field", func(n int) []mobility.Model {
			f := mobility.NewField(mcfg)
			ms := make([]mobility.Model, n)
			for i := range ms {
				ms[i] = f.Model(f.AddRandom(int64(i + 1)))
			}
			return ms
		}},
	}
	for _, tc := range []struct {
		nodes int
		rng   float64
	}{
		{9, 380}, {49, 380},
		{9, 100}, {49, 100}, {100, 100}, {100, 60},
	} {
		t.Run(fmt.Sprintf("nodes=%d/range=%g", tc.nodes, tc.rng), func(t *testing.T) {
			for _, be := range backends {
				t.Run(be.name, func(t *testing.T) {
					eng := sim.NewEngine(3)
					cfg := DefaultConfig()
					cfg.Range = tc.rng
					med := New(eng, cfg)
					for _, mob := range be.nodes(tc.nodes) {
						med.AddNode(mob, func(NodeID, Payload) {})
					}
					if med.grid.maxSpeed != mcfg.SpeedMax {
						t.Fatalf("derived bound %g, want SpeedMax %g", med.grid.maxSpeed, mcfg.SpeedMax)
					}
					r := rand.New(rand.NewSource(17))
					now := 0.0
					rebuilds := 0
					lastEpoch := -1.0
					for step := 0; step < 120; step++ {
						// Small steps relative to side/maxSpeed keep
						// several probe instants inside each epoch window.
						now += r.Float64() * 2
						eng.Run(now)
						for id := NodeID(0); id < NodeID(tc.nodes); id++ {
							got := med.Neighbors(id)
							want := bruteNeighbors(med, id)
							if !slices.Equal(got, want) {
								t.Fatalf("t=%g node %d: grid %v != brute force %v",
									now, id, got, want)
							}
						}
						if med.grid.epoch != lastEpoch {
							lastEpoch = med.grid.epoch
							rebuilds++
						}
					}
					// The point of the epoch grid: far fewer rebuilds than
					// probe timesteps. If this fires, the grid fell back to
					// per-timestep rebuilds and the test stopped exercising
					// stale buckets.
					if rebuilds >= 120 {
						t.Fatalf("epoch grid rebuilt on every timestep (%d rebuilds)", rebuilds)
					}
				})
			}
		})
	}
}

// TestEpochGridBoundaryCrossing pins incremental cell migration exactly at
// cell boundaries: nodes ride straight lines that cross fine-cell edges at
// known instants, and the probe set is checked just before, at, and just
// after each crossing.
func TestEpochGridBoundaryCrossing(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := DefaultConfig()
	cfg.Range = 100
	med := New(eng, cfg)
	// Node 0 starts just left of the x=100 cell edge and drifts right at
	// 1 m/s: it crosses at t=5. The others sit still on both sides.
	med.AddNode(linearModel{x0: 95, y0: 50, vx: 1}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 30, y0: 50}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 180, y0: 50}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 205, y0: 150, vy: -1}, func(NodeID, Payload) {}) // crosses y=100 at t=50
	for _, now := range []float64{0, 4.5, 5, 5.5, 20, 49.5, 50, 50.5, 80} {
		eng.Run(now)
		for id := NodeID(0); id < 4; id++ {
			got := med.Neighbors(id)
			want := bruteNeighbors(med, id)
			if !slices.Equal(got, want) {
				t.Fatalf("t=%g node %d: grid %v != brute force %v", now, id, got, want)
			}
		}
	}
}

// TestEpochGridChurnTeleport is the churn test: every tick, 10% of the
// nodes teleport to a uniformly random point — motion with no speed bound,
// which is exactly the case an undeclared (unknown) bound must stay exact
// for by rebuilding whenever the clock moves. Half the fleet is static, so
// the one undeclared model must override every declared bound.
func TestEpochGridChurnTeleport(t *testing.T) {
	const (
		nodes = 200
		space = 2000.0
		ticks = 50
	)
	eng := sim.NewEngine(9)
	cfg := DefaultConfig()
	cfg.Range = 150
	med := New(eng, cfg)
	r := rand.New(rand.NewSource(23))
	models := make([]*teleportModel, nodes)
	for i := range models {
		p := tuple.Point{X: r.Float64() * space, Y: r.Float64() * space}
		if i%2 == 0 {
			med.AddNode(mobility.Static(p), func(NodeID, Payload) {})
			continue
		}
		models[i] = &teleportModel{p: p}
		med.AddNode(models[i], func(NodeID, Payload) {})
	}
	if !math.IsInf(med.grid.maxSpeed, 1) {
		t.Fatalf("derived bound %g, want unknown (+Inf)", med.grid.maxSpeed)
	}
	for tick := 1; tick <= ticks; tick++ {
		// Teleport 10% of the fleet, then advance the clock so the medium
		// sees the new positions as a fresh timestep.
		for k := 0; k < nodes/10; k++ {
			m := models[r.Intn(nodes/2)*2+1]
			m.p = tuple.Point{X: r.Float64() * space, Y: r.Float64() * space}
		}
		eng.Run(float64(tick))
		for id := NodeID(0); id < nodes; id++ {
			got := med.Neighbors(id)
			want := bruteNeighbors(med, id)
			if !slices.Equal(got, want) {
				t.Fatalf("tick %d node %d: grid %v != brute force %v", tick, id, got, want)
			}
		}
		if med.grid.epoch != float64(tick) {
			t.Fatalf("tick %d: unknown bound kept a stale grid from t=%g", tick, med.grid.epoch)
		}
	}
}

// TestEpochGridStatic checks a field of mobility.Static nodes (bound 0): the
// grid is built exactly once, and probes at later times still match brute
// force because static positions never invalidate it.
func TestEpochGridStatic(t *testing.T) {
	eng := sim.NewEngine(11)
	cfg := DefaultConfig()
	cfg.Range = 120
	med := New(eng, cfg)
	r := rand.New(rand.NewSource(31))
	const nodes = 100
	for i := 0; i < nodes; i++ {
		med.AddNode(mobility.Static{X: r.Float64() * 1000, Y: r.Float64() * 1000},
			func(NodeID, Payload) {})
	}
	if med.grid.maxSpeed != 0 {
		t.Fatalf("derived bound %g, want 0 for a static field", med.grid.maxSpeed)
	}
	var firstEpoch float64 = math.NaN()
	for _, now := range []float64{0, 10, 100, 1000, 5000} {
		eng.Run(now)
		for id := NodeID(0); id < nodes; id++ {
			got := med.Neighbors(id)
			want := bruteNeighbors(med, id)
			if !slices.Equal(got, want) {
				t.Fatalf("t=%g node %d: grid %v != brute force %v", now, id, got, want)
			}
		}
		if math.IsNaN(firstEpoch) {
			firstEpoch = med.grid.epoch
		} else if med.grid.epoch != firstEpoch {
			t.Fatalf("static grid rebuilt: epoch %g -> %g", firstEpoch, med.grid.epoch)
		}
	}
}

// TestFullScanAtPaperGeometry checks that the direct ID-order scan is the
// common path at the paper's geometry (100 random-waypoint devices in the
// 1 km² field, 380 m range): the probe ring reaches every occupied cell far
// more often than it reaches the empty margin cells around them. Every
// probe must still match brute force.
func TestFullScanAtPaperGeometry(t *testing.T) {
	const nodes = 100
	mcfg := mobility.DefaultConfig()
	eng := sim.NewEngine(3)
	med := New(eng, DefaultConfig())
	med.SetMetrics(NewMetrics(telemetry.NewRegistry()))
	for i := 0; i < nodes; i++ {
		med.AddNode(mobility.NewWaypoint(mcfg, int64(i+1)), func(NodeID, Payload) {})
	}
	if med.Config().Range != 380 || med.grid.maxSpeed != mcfg.SpeedMax {
		t.Fatalf("geometry drifted: range %g, bound %g", med.Config().Range, med.grid.maxSpeed)
	}
	r := rand.New(rand.NewSource(29))
	now, probes, full := 0.0, 0, 0
	for step := 0; step < 200; step++ {
		now += r.Float64() * 2
		eng.Run(now)
		for id := NodeID(0); id < nodes; id++ {
			before := med.met.NeighborScanned.Value()
			got := med.Neighbors(id)
			if med.met.NeighborScanned.Value()-before == nodes-1 {
				full++
			}
			probes++
			if want := bruteNeighbors(med, id); !slices.Equal(got, want) {
				t.Fatalf("t=%g node %d: grid %v != brute force %v", now, id, got, want)
			}
		}
	}
	t.Logf("%d of %d probes took the full scan", full, probes)
	if 2*full <= probes {
		t.Fatalf("only %d of %d probes took the full scan", full, probes)
	}
}

// TestEpochGridMigrateIntoMargin moves nodes into a margin cell, outside the
// occupied box the last rebuild set: probes must still match brute force,
// the occupied box must widen to the new cell without a rebuild, and a probe
// that no longer covers it must gather instead of scanning everything.
func TestEpochGridMigrateIntoMargin(t *testing.T) {
	eng := sim.NewEngine(13)
	cfg := DefaultConfig()
	cfg.Range = 100
	med := New(eng, cfg)
	med.SetMetrics(NewMetrics(telemetry.NewRegistry()))
	// At the first rebuild every node sits in cell column 0 or 1. Nodes 1
	// and 3 drift right at 1 m/s into column 2, a margin cell, at t=10 and
	// t=5.
	med.AddNode(linearModel{x0: 50, y0: 50}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 190, y0: 50, vx: 1}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 120, y0: 50}, func(NodeID, Payload) {})
	med.AddNode(linearModel{x0: 195, y0: 60, vx: 1}, func(NodeID, Payload) {})
	check := func(now float64) {
		t.Helper()
		eng.Run(now)
		for id := NodeID(0); id < 4; id++ {
			got := med.Neighbors(id)
			want := bruteNeighbors(med, id)
			if !slices.Equal(got, want) {
				t.Fatalf("t=%g node %d: grid %v != brute force %v", now, id, got, want)
			}
		}
	}
	check(0)
	g := &med.grid
	col2 := 2 - g.minX // local column of cell column 2
	if g.occX1 != col2-1 {
		t.Fatalf("rebuild set occupied columns up to %d, want %d", g.occX1, col2-1)
	}
	for _, now := range []float64{4.5, 5, 5.5, 9.5, 10, 10.5, 15} {
		check(now)
	}
	if g.epoch != 0 || g.overflow {
		t.Fatalf("migration inside the box rebuilt the grid (epoch %g, overflow %v)", g.epoch, g.overflow)
	}
	if g.occX1 != col2 {
		t.Fatalf("occupied box ends at column %d after migration, want %d", g.occX1, col2)
	}
	// Node 0's ring (100 m + 15 m of drift) stops at column 1, so the probe
	// gathers the two nodes left there instead of scanning all three others.
	before := med.met.NeighborScanned.Value()
	med.Neighbors(0)
	if got := med.met.NeighborScanned.Value() - before; got != 2 {
		t.Fatalf("probe not covering the widened box scanned %d nodes, want 2", got)
	}
}
