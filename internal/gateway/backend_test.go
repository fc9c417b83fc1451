package gateway

import (
	"testing"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/leaktest"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/tuple"
)

// TestPeerBackendQueriesAroundRequestPos: a live peer behind the gateway
// answers for the client's position, not its own. The request's region
// lies across the field from the entry peer and its distance is finite,
// so an answer anchored at the entry peer would differ from the oracle.
func TestPeerBackendQueriesAroundRequestPos(t *testing.T) {
	defer leaktest.Check(t)()
	const g = 2
	c := gen.DefaultConfig(2000, 2, gen.Independent, 3)
	data := gen.Generate(c)
	parts := gen.GridPartition(data, g, c.Space)
	dir := tcp.NewDirectory()
	peers := make([]*tcp.Peer, len(parts))
	for i, part := range parts {
		pos := gen.CellRect(i/g, i%g, g, c.Space).Center()
		p, err := tcp.NewPeer(core.DeviceID(i), part, c.Schema(), core.Under, true, pos, dir, tcp.DefaultConfig())
		if err != nil {
			t.Fatalf("NewPeer %d: %v", i, err)
		}
		defer p.Close()
		peers[i] = p
	}
	for i := range peers {
		for j := range peers {
			if i != j {
				peers[i].AddNeighbor(peers[j].ID())
			}
		}
	}
	gw, err := New(PeerBackend(peers[0], nil, len(peers)), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer gw.Close()

	const d = 300
	pos := tuple.Point{X: 900, Y: 900}
	if pos.WithinDist(peers[0].Pos(), d) {
		t.Fatalf("request region %v must lie beyond d of the entry peer at %v", pos, peers[0].Pos())
	}
	for _, s := range []Strategy{BF, SF} {
		resp, err := gw.Do(Request{Pos: pos, D: d, Strategy: s})
		if err != nil {
			t.Fatalf("%v: Do: %v", s, err)
		}
		want := skyline.Constrained(data, pos, d)
		if len(want) == 0 {
			t.Fatalf("%v: empty oracle; the test needs data near %v", s, pos)
		}
		if !resp.Complete || !skyline.SetEqual(resp.Skyline, want) {
			t.Errorf("%v: complete=%v, %d tuples; want the %d-tuple skyline around %v",
				s, resp.Complete, len(resp.Skyline), len(want), pos)
		}
	}
}
