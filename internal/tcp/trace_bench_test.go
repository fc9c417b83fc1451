package tcp

import (
	"testing"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/telemetry"
)

// benchPeers builds a 2×2 grid for query benchmarks. The query counter is a
// uint8, so callers rebuild the fleet before it wraps (the query log dedupes
// by key, and a reused key would strand the query).
func benchPeers(b *testing.B, traced bool, seed int64) ([]*Peer, func()) {
	b.Helper()
	const g = 2
	c := gen.DefaultConfig(400, 2, gen.Independent, seed)
	data := gen.Generate(c)
	parts := gen.GridPartition(data, g, c.Space)
	dir := NewDirectory()
	peers := make([]*Peer, len(parts))
	for i, part := range parts {
		cfg := DefaultConfig()
		if traced {
			cfg.Spans = telemetry.NewSpanLog()
		}
		pos := gen.CellRect(i/g, i%g, g, c.Space).Center()
		p, err := NewPeer(core.DeviceID(i), part, c.Schema(), core.Under, true, pos, dir, cfg)
		if err != nil {
			b.Fatalf("NewPeer %d: %v", i, err)
		}
		peers[i] = p
	}
	for r := 0; r < g; r++ {
		for col := 0; col < g; col++ {
			i := r*g + col
			if col < g-1 {
				peers[i].AddNeighbor(peers[i+1].ID())
				peers[i+1].AddNeighbor(peers[i].ID())
			}
			if r < g-1 {
				peers[i].AddNeighbor(peers[i+g].ID())
				peers[i+g].AddNeighbor(peers[i].ID())
			}
		}
	}
	return peers, func() {
		for _, p := range peers {
			p.Close()
		}
	}
}

// benchQueries measures end-to-end query latency over real sockets, rotating
// fleets before the uint8 query counter wraps.
func benchQueries(b *testing.B, traced bool) {
	const perFleet = 200
	var (
		peers   []*Peer
		cleanup func()
	)
	defer func() {
		if cleanup != nil {
			cleanup()
		}
	}()
	b.ReportAllocs()
	incomplete := 0
	for i := 0; i < b.N; i++ {
		if i%perFleet == 0 {
			b.StopTimer()
			if cleanup != nil {
				cleanup()
			}
			peers, cleanup = benchPeers(b, traced, int64(31+i))
			b.StartTimer()
		}
		res, err := peers[0].Query(peers[0].Pos(), core.Unconstrained(), len(peers))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			incomplete++
		}
	}
	// The occasional straggler result under scheduler noise is fine; a
	// systematic failure to complete is not.
	if incomplete > b.N/20 {
		b.Fatalf("%d/%d queries incomplete", incomplete, b.N)
	}
}

// BenchmarkQueryUntraced is the baseline: Spans nil, frames on the v1 wire
// format, every tracing hook one branch.
func BenchmarkQueryUntraced(b *testing.B) { benchQueries(b, false) }

// BenchmarkQueryTraced runs the same fleet with per-peer span logs: v2
// frames (+10B per frame) and a span stage per enqueue/write/decode/handle/
// reply/result.
func BenchmarkQueryTraced(b *testing.B) { benchQueries(b, true) }
