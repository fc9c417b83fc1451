// Tcppeers runs the distributed skyline protocol over real TCP sockets on
// localhost: nine peers, each holding one cell of a points-of-interest
// dataset, linked in a grid like devices in radio range of each other.
// Messages are serialized with the binary wire format — the same bytes a
// deployment between physical devices would exchange. Each neighbour link
// rides the supervised connection pool (reconnect, retry, dead-letter
// accounting); internal/chaos soaks the same topology under fault plans.
//
// Run with: go run ./examples/tcppeers
package main

import (
	"fmt"
	"sort"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/tcp"
)

func main() {
	const g = 3
	cfg := gen.DefaultConfig(9000, 2, gen.AntiCorrelated, 11)
	data := gen.Generate(cfg)
	parts := gen.GridPartition(data, g, cfg.Space)

	dir := tcp.NewDirectory()
	peers := make([]*tcp.Peer, len(parts))
	for i, part := range parts {
		pos := gen.CellRect(i/g, i%g, g, cfg.Space).Center()
		p, err := tcp.NewPeer(core.DeviceID(i), part, cfg.Schema(), core.Under, true,
			pos, dir, tcp.DefaultConfig())
		if err != nil {
			panic(err)
		}
		defer p.Close()
		peers[i] = p
		fmt.Printf("peer %d listening on %s with %d tuples\n", i, p.Addr(), len(part))
	}

	// Grid links: each peer talks to its 4-neighbourhood, as radio range
	// would allow.
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			i := r*g + c
			if c < g-1 {
				peers[i].AddNeighbor(peers[i+1].ID())
				peers[i+1].AddNeighbor(peers[i].ID())
			}
			if r < g-1 {
				peers[i].AddNeighbor(peers[i+g].ID())
				peers[i+g].AddNeighbor(peers[i].ID())
			}
		}
	}

	// The centre peer asks: best (cheap AND well-rated) sites within 400 m.
	me := peers[4]
	fmt.Printf("\npeer %d querying within 400 m of %v ...\n", me.ID(), me.Pos())
	res, err := me.Query(me.Pos(), 400, len(peers))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d peers answered over TCP in %v (complete=%v)\n",
		res.Results, res.Elapsed.Round(1e6), res.Complete)

	sort.Slice(res.Skyline, func(i, j int) bool {
		return res.Skyline[i].Attrs[0] < res.Skyline[j].Attrs[0]
	})
	fmt.Printf("skyline: %d sites\n", len(res.Skyline))
	for i, t := range res.Skyline {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(res.Skyline)-10)
			break
		}
		fmt.Printf("  (%6.1f, %6.1f)  p1=%4.0f  p2=%4.0f\n", t.X, t.Y, t.Attrs[0], t.Attrs[1])
	}
}
