package radio

import (
	"math"

	"manetskyline/internal/tuple"
)

// The spatial index is a two-level uniform grid over node positions with
// cell side equal to the transmission range.
//
// Fine level: a dense array of ID-sorted node buckets over the occupied
// cell bounding box, padded under a finite speed bound by empty margin
// cells that absorb drift (node fields are bounded, so the box stays small
// and avoids hashing). Coarse level: 8×8 blocks of fine cells with occupancy
// counts, so probes over large rings skip empty regions in one comparison
// per block instead of touching 64 empty buckets.
//
// Unlike the earlier design — which rebuilt the whole index whenever the
// engine clock moved — the grid is rebuilt on *epochs* and tolerates stale
// entries in between, using the speed bound the nodes' mobility models
// declare (mobility.SpeedBound):
//
//   - Every node's bucket reflects its position at some time t_i in
//     [epoch, now]: nodes migrate buckets incrementally whenever their
//     memoized position is refreshed (and a full rebuild refreshes all).
//   - A node within Range of the probe point now sits in a bucket at most
//     Range + MaxSpeed·(now−epoch) away from it, so probing all cells
//     intersecting that expanded ring finds every true neighbor — the probe
//     stays *exact*, never approximate.
//   - When the expansion exceeds one cell side, the grid rebuilds (O(n),
//     amortized over the epoch instead of per event).
//
// A probe is "full" when it covers every occupied cell, not the padded
// box: the grid tracks the bounding box of the cells that have held a node
// since the last rebuild, and a full probe scans every node in ID order
// instead of gathering and sorting. That scan checks true positions, so it
// is exact under any condition; the box only picks the cheaper path.
//
// One rebuild rule covers every bound. A static field (bound 0) never
// drifts, so its first build stays exact forever. An unknown bound (+Inf,
// some model declares none) rebuilds whenever the clock moves, which is
// exact for arbitrary motion — including the teleporting churn the tests
// inject.
const coarseShift = 3 // coarse block = 8×8 fine cells

type grid struct {
	side     float64 // fine cell side (= Range)
	maxSpeed float64 // speed bound in m/s: 0 static, +Inf unknown
	built    bool
	overflow bool    // a refresh landed outside the box; rebuild on next probe
	epoch    float64 // time of the last full rebuild

	minX, minY int32 // fine-cell coordinate of cells[0]
	w, h       int32 // fine grid dimensions
	cw         int32 // coarse grid columns
	cells      [][]int32
	coarse     []int32

	// Occupied cell bounding box in local coordinates, inclusive: set by a
	// rebuild, widened by migration, never shrunk between rebuilds.
	occX0, occY0, occX1, occY1 int32
}

// cellCoord maps a position to fine-cell coordinates.
func (g *grid) cellCoord(x, y float64) (int32, int32) {
	return int32(floorDiv(x, g.side)), int32(floorDiv(y, g.side))
}

// floorDiv is math.Floor(v/side) without the import noise.
func floorDiv(v, side float64) float64 {
	q := v / side
	f := float64(int64(q))
	if q < f {
		f--
	}
	return f
}

// flatIdx converts fine-cell coordinates to a dense index, or -1 when the
// cell lies outside the current box.
func (g *grid) flatIdx(cx, cy int32) int32 {
	lx, ly := cx-g.minX, cy-g.minY
	if lx < 0 || ly < 0 || lx >= g.w || ly >= g.h {
		return -1
	}
	return ly*g.w + lx
}

// gridEnsure brings the index up to date for a probe at time now: it
// rebuilds when the grid is missing, a node escaped the box, the node set
// grew, or the staleness ring has expanded past one cell side. A rebuild
// memoizes every node's position at now, so epoch == now afterwards.
func (m *Medium) gridEnsure(now float64) {
	g := &m.grid
	rebuild := !g.built || g.overflow || len(m.nodeCell) != len(m.mobs)
	// Rebuild when drift since the epoch could exceed a cell. The now > epoch
	// guard keeps 0·Inf out of the product.
	if rebuild || now > g.epoch && (now-g.epoch)*g.maxSpeed > g.side {
		m.gridRebuild(now)
	}
}

// gridRebuild reindexes every node at time now. Buckets keep their capacity
// across rebuilds, and nodes are inserted in ID order so every bucket stays
// ID-sorted without a sort pass.
func (m *Medium) gridRebuild(now float64) {
	g := &m.grid
	g.side = m.cfg.Range
	g.built = false // disable incremental migration while we reindex
	g.overflow = false
	n := len(m.mobs)
	if cap(m.nodeCell) < n {
		m.nodeCell = make([]int32, n)
	}
	m.nodeCell = m.nodeCell[:n]
	if n == 0 {
		g.w, g.h = 0, 0
		g.epoch = now
		g.built = true
		return
	}
	// Pass 1: memoize positions, track the occupied cell bounding box.
	p := m.posOfIdx(0, now)
	minX, minY := g.cellCoord(p.X, p.Y)
	maxX, maxY := minX, minY
	for i := 1; i < n; i++ {
		q := m.posOfIdx(int32(i), now)
		cx, cy := g.cellCoord(q.X, q.Y)
		if cx < minX {
			minX = cx
		} else if cx > maxX {
			maxX = cx
		}
		if cy < minY {
			minY = cy
		} else if cy > maxY {
			maxY = cy
		}
	}
	// Margin cells absorb drift between rebuilds so incremental migration
	// rarely escapes the box (escape just forces an early rebuild).
	var margin int32
	if g.drifting() {
		margin = 2
	}
	g.minX, g.minY = minX-margin, minY-margin
	g.w = maxX - minX + 1 + 2*margin
	g.h = maxY - minY + 1 + 2*margin
	g.occX0, g.occY0 = margin, margin
	g.occX1, g.occY1 = g.w-1-margin, g.h-1-margin
	size := int(g.w) * int(g.h)
	for len(g.cells) < size {
		g.cells = append(g.cells, nil)
	}
	for i := 0; i < size; i++ {
		g.cells[i] = g.cells[i][:0]
	}
	g.cw = (g.w + (1 << coarseShift) - 1) >> coarseShift
	ch := (g.h + (1 << coarseShift) - 1) >> coarseShift
	csize := int(g.cw) * int(ch)
	for len(g.coarse) < csize {
		g.coarse = append(g.coarse, 0)
	}
	for i := 0; i < csize; i++ {
		g.coarse[i] = 0
	}
	// Pass 2: bucket the nodes in ID order.
	for i := 0; i < n; i++ {
		cx, cy := g.cellCoord(m.posX[i], m.posY[i])
		idx := g.flatIdx(cx, cy)
		m.nodeCell[i] = idx
		g.cells[idx] = append(g.cells[idx], int32(i))
		g.coarse[g.coarseIdx(idx)]++
	}
	g.epoch = now
	g.built = true
}

// drifting reports whether nodes move under a finite bound, the one case
// where entries go stale between rebuilds and migrate incrementally.
func (g *grid) drifting() bool {
	return g.maxSpeed > 0 && !math.IsInf(g.maxSpeed, 1)
}

// coarseIdx maps a fine flat index to its coarse block index.
func (g *grid) coarseIdx(fine int32) int32 {
	lx, ly := fine%g.w, fine/g.w
	return (ly>>coarseShift)*g.cw + (lx >> coarseShift)
}

// gridMigrate moves node i to the fine cell containing (x, y) when its
// refreshed position crossed a cell boundary. A destination outside the box
// leaves the node in its old bucket — still exact, since the probe ring
// covers any position the node held since the epoch — and flags the grid
// for rebuild on the next probe.
func (m *Medium) gridMigrate(i int32, x, y float64) {
	g := &m.grid
	cx, cy := g.cellCoord(x, y)
	idx := g.flatIdx(cx, cy)
	old := m.nodeCell[i]
	if idx == old {
		return
	}
	if idx < 0 {
		g.overflow = true
		return
	}
	// Remove from the old bucket (ID-sorted: binary search).
	b := g.cells[old]
	lo, hi := 0, len(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if b[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(b[lo:], b[lo+1:])
	g.cells[old] = b[:len(b)-1]
	g.coarse[g.coarseIdx(old)]--
	// Sorted insert into the new bucket.
	nb := g.cells[idx]
	lo, hi = 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	nb = append(nb, 0)
	copy(nb[lo+1:], nb[lo:])
	nb[lo] = i
	g.cells[idx] = nb
	g.coarse[g.coarseIdx(idx)]++
	m.nodeCell[i] = idx
	lx, ly := cx-g.minX, cy-g.minY
	g.occX0, g.occX1 = min(g.occX0, lx), max(g.occX1, lx)
	g.occY0, g.occY1 = min(g.occY0, ly), max(g.occY1, ly)
}

// gridGather collects the node indices of every bucket intersecting the
// disk of the given radius around p into m.scratch, or reports full=true
// when the probe's cell rectangle contains every occupied cell (the caller
// then scans all nodes directly, in ID order, with no gather or re-sort).
// Coarse blocks with zero occupancy are skipped wholesale, and fine cells
// entirely outside the disk are pruned by rectangle distance.
func (m *Medium) gridGather(p tuple.Point, radius float64) (cand []int32, full bool) {
	g := &m.grid
	cx0, cy0 := g.cellCoord(p.X-radius, p.Y-radius)
	cx1, cy1 := g.cellCoord(p.X+radius, p.Y+radius)
	bx0, by0 := cx0-g.minX, cy0-g.minY
	bx1, by1 := cx1-g.minX, cy1-g.minY
	if bx0 < 0 {
		bx0 = 0
	}
	if by0 < 0 {
		by0 = 0
	}
	if bx1 >= g.w {
		bx1 = g.w - 1
	}
	if by1 >= g.h {
		by1 = g.h - 1
	}
	if bx0 <= g.occX0 && by0 <= g.occY0 && bx1 >= g.occX1 && by1 >= g.occY1 {
		return nil, true
	}
	cand = m.scratch[:0]
	r2 := radius * radius
	for by := by0; by <= by1; by++ {
		// Cell rows are grouped by coarse block row; skip empty blocks.
		crow := (by >> coarseShift) * g.cw
		y0 := float64(g.minY+by) * g.side
		dy := 0.0
		if p.Y < y0 {
			dy = y0 - p.Y
		} else if p.Y > y0+g.side {
			dy = p.Y - (y0 + g.side)
		}
		row := by * g.w
		for bx := bx0; bx <= bx1; {
			cb := crow + (bx >> coarseShift)
			if g.coarse[cb] == 0 {
				// Jump to the first cell of the next coarse block.
				bx = (bx>>coarseShift + 1) << coarseShift
				continue
			}
			x0 := float64(g.minX+bx) * g.side
			dx := 0.0
			if p.X < x0 {
				dx = x0 - p.X
			} else if p.X > x0+g.side {
				dx = p.X - (x0 + g.side)
			}
			if dx*dx+dy*dy <= r2 {
				cand = append(cand, g.cells[row+bx]...)
			}
			bx++
		}
	}
	m.scratch = cand
	return cand, false
}
