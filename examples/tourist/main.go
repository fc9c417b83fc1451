// Tourist is the paper's §2 motivating scenario on live peers: a tourist's
// handset wants inexpensive, highly rated restaurants within walking
// distance, but its own data covers only part of the area, so it queries
// nearby devices over ad hoc links. Every device is a TCP peer on loopback,
// linked to the peers within radio range.
//
// Run with: go run ./examples/tourist
package main

import (
	"fmt"
	"sort"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/tcp"
	"manetskyline/internal/tuple"
)

func main() {
	// A city district: 20,000 restaurants over a 1000×1000 m area, each
	// with a price level and a rating (smaller is better for both, as in
	// the paper's examples).
	cfg := gen.DefaultConfig(20000, 2, gen.Independent, 2026)
	restaurants := gen.Generate(cfg)

	// Sixteen devices each carry the data of one 250×250 m cell — nobody
	// holds the whole city.
	const g = 4
	parts := gen.GridPartition(restaurants, g, cfg.Space)

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
	}
	// Ad hoc links between devices within radio range.
	const radioRange = 380
	for _, a := range peers {
		for _, b := range peers {
			if a != b && a.Pos().Dist(b.Pos()) <= radioRange {
				a.AddNeighbor(b.ID())
			}
		}
	}

	// The tourist stands near the middle of the city and wants options
	// within 300 m.
	const mine = 5
	me := peers[mine]
	const walkingDistance = 300

	_, local := core.NewDevice(mine, parts[mine], cfg.Schema(), core.Under, true).
		Originate(me.Pos(), walkingDistance)
	fmt.Printf("my own data only: %d candidate restaurants\n", len(local.Skyline))

	res, err := me.Query(me.Pos(), walkingDistance, len(peers))
	if err != nil {
		panic(err)
	}
	fmt.Printf("after asking %d nearby devices (%.0f ms): %d candidates, complete=%v\n\n",
		res.Results, float64(res.Elapsed.Microseconds())/1000, len(res.Skyline), res.Complete)

	sort.Slice(res.Skyline, func(i, j int) bool {
		return res.Skyline[i].Attrs[0] < res.Skyline[j].Attrs[0]
	})
	fmt.Println("the skyline — no restaurant is both cheaper and better rated than any of these:")
	for _, r := range res.Skyline {
		fmt.Printf("  at (%4.0f,%4.0f)  %3.0f m away  price level %4.0f  rating %4.0f\n",
			r.X, r.Y, me.Pos().Dist(tuple.Point{X: r.X, Y: r.Y}), r.Attrs[0], r.Attrs[1])
	}
}
