package aodv

import (
	"testing"

	"manetskyline/internal/mobility"
	"manetskyline/internal/radio"
	"manetskyline/internal/sim"
	"manetskyline/internal/tuple"
)

func TestRouteExpiry(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 200}, tuple.Point{X: 400})
	w.net.Send(0, 2, msg(1))
	w.eng.RunAll()
	if !w.net.HasRoute(0, 2) {
		t.Fatalf("route should exist after delivery")
	}
	// Advance past the route lifetime with no traffic.
	w.eng.Schedule(DefaultConfig().RouteLifetime+1, func() {})
	w.eng.RunAll()
	if w.net.HasRoute(0, 2) {
		t.Fatalf("route should have expired")
	}
	// Traffic after expiry triggers rediscovery and still delivers.
	rreqs := w.net.Counters.RREQSent
	w.net.Send(0, 2, msg(2))
	w.eng.RunAll()
	if len(w.got[2]) != 2 {
		t.Fatalf("post-expiry packet lost: %+v", w.net.Counters)
	}
	if w.net.Counters.RREQSent == rreqs {
		t.Errorf("expired route should force a new discovery")
	}
}

func TestRouteRefreshOnUse(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 200})
	w.net.Send(0, 1, msg(1))
	w.eng.RunAll()
	half := DefaultConfig().RouteLifetime / 2
	// Keep the route warm by sending every half-lifetime.
	for i := 0; i < 6; i++ {
		w.eng.Schedule(half*float64(i+1), func() { w.net.Send(0, 1, msg(2)) })
	}
	w.eng.RunAll()
	if len(w.got[1]) != 7 {
		t.Fatalf("deliveries = %d, want 7", len(w.got[1]))
	}
	// All traffic was direct: a single initial discovery suffices.
	if w.net.Counters.RREQSent > 1 {
		t.Errorf("refreshed route should not be rediscovered: %d RREQs", w.net.Counters.RREQSent)
	}
}

func TestIntermediateNodeRepliesFromCache(t *testing.T) {
	// Chain 0—1—2. After 0↔2 traffic, node 1 holds a fresh route to 2.
	// When node 3 (in range of 0 and 1 only) then asks for 2, node 1 may
	// answer from cache; either way discovery must converge and deliver.
	w := build(t,
		tuple.Point{X: 0}, tuple.Point{X: 200}, tuple.Point{X: 400},
		tuple.Point{X: 100, Y: 200})
	w.net.Send(0, 2, msg(1))
	w.eng.RunAll()
	w.net.Send(3, 2, msg(2))
	w.eng.RunAll()
	if len(w.got[2]) != 2 {
		t.Fatalf("cached-route reply path failed: %+v", w.net.Counters)
	}
}

func TestRERRInvalidatesUpstreamRoute(t *testing.T) {
	// 0—1—2 where 2 teleports away; after a failed forward, node 1 sends
	// an RERR back to 0, whose route must become invalid.
	eng := sim.NewEngine(7)
	med := radio.New(eng, radio.DefaultConfig())
	net := New(eng, med, DefaultConfig())
	net.AddNode(mobility.Static(tuple.Point{X: 0}), nil, nil)
	net.AddNode(mobility.Static(tuple.Point{X: 300}), nil, nil)
	net.AddNode(teleporter{a: tuple.Point{X: 600}, b: tuple.Point{X: 9000}, jump: 5}, nil, nil)
	net.Send(0, 2, msg(1))
	eng.Run(4)
	if !net.HasRoute(0, 2) {
		t.Fatalf("route should exist before the break")
	}
	eng.Run(10) // node 2 gone
	net.Send(0, 2, msg(2))
	eng.RunAll()
	if net.Counters.RERRSent == 0 {
		t.Errorf("link break behind a relay should emit an RERR")
	}
	if net.HasRoute(0, 2) {
		t.Errorf("source route should be invalidated after RERR")
	}
	if net.Counters.DataDropped == 0 {
		t.Errorf("undeliverable packet should be counted dropped")
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	// A long chain beyond the TTL: discovery cannot reach the far end.
	cfg := DefaultConfig()
	cfg.TTL = 3
	eng := sim.NewEngine(1)
	med := radio.New(eng, radio.DefaultConfig())
	net := New(eng, med, cfg)
	got := 0
	for i := 0; i < 7; i++ {
		i := i
		net.AddNode(mobility.Static(tuple.Point{X: float64(i) * 300}), func(radio.NodeID, int, radio.Payload) {
			if i == 6 {
				got++
			}
		}, nil)
	}
	net.Send(0, 6, msg(1))
	eng.RunAll()
	if got != 0 {
		t.Fatalf("6-hop destination must be unreachable with TTL 3")
	}
	if net.Counters.DataDropped != 1 {
		t.Errorf("packet should be dropped after failed discovery")
	}
}

// TestSeenTablePurgesExpired pins the bounded RREQ duplicate table: floods
// spaced wider than SeenLifetime never grow a node's table past the purge
// floor, a repeat within the lifetime is still dropped, the same RREQ heard
// after expiry is accepted again, and the steady-state table allocates
// nothing.
func TestSeenTablePurgesExpired(t *testing.T) {
	cfg := DefaultConfig()
	t.Run("bounded", func(t *testing.T) {
		// 5×5 static grid, 150 m apart: every flood reaches every node.
		w := build(t)
		const side = 5
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				w.addStatic(tuple.Point{X: float64(c) * 150, Y: float64(r) * 150})
			}
		}
		const floods = 4 * seenPurgeFloor
		for i := 0; i < floods; i++ {
			// Routes (15 s) and dedup entries (30 s) have lapsed by the
			// next send, so each one starts a fresh discovery flood.
			src := radio.NodeID(i % (side * side))
			dst := radio.NodeID((i + 7) % (side * side))
			w.net.Send(src, dst, msg(i))
			w.eng.RunAll()
			w.eng.Run(w.eng.Now() + 2*cfg.SeenLifetime)
			for _, nd := range w.net.nodes {
				if len(nd.seen) > seenPurgeFloor {
					t.Fatalf("flood %d: node %d remembers %d RREQs, want <= %d",
						i, nd.id, len(nd.seen), seenPurgeFloor)
				}
			}
		}
		if w.net.Counters.DataDelivered != floods || w.net.Counters.RREQSent < floods {
			t.Fatalf("floods did not happen: %+v", w.net.Counters)
		}
	})
	t.Run("lifetime", func(t *testing.T) {
		// Isolated nodes: node 1's rebroadcasts reach nobody, so RREQSent
		// counts exactly the RREQs node 1 accepted.
		w := build(t, tuple.Point{X: 0}, tuple.Point{X: 5000}, tuple.Point{X: 10000})
		nd := w.net.nodes[1]
		q := &rreqPkt{Orig: 0, ID: 7, Dst: 2}
		hear := func(at float64) int {
			w.eng.Run(at)
			nd.receive(0, q)
			return w.net.Counters.RREQSent
		}
		if got := hear(0); got != 1 {
			t.Fatalf("first RREQ: %d rebroadcasts, want 1", got)
		}
		if got := hear(cfg.SeenLifetime / 2); got != 1 {
			t.Fatalf("duplicate within the lifetime was rebroadcast (%d)", got)
		}
		if got := hear(cfg.SeenLifetime + 1); got != 2 {
			t.Fatalf("RREQ heard after expiry: %d rebroadcasts, want 2", got)
		}
		if got := hear(cfg.SeenLifetime + 2); got != 2 {
			t.Fatalf("duplicate of the re-accepted RREQ was rebroadcast (%d)", got)
		}
	})
	t.Run("zero allocs", func(t *testing.T) {
		w := build(t, tuple.Point{})
		nd := w.net.nodes[0]
		id := uint32(0)
		steps := func() {
			for i := 0; i < 10000; i++ {
				id++
				w.eng.Run(w.eng.Now() + cfg.SeenLifetime/8)
				nd.markSeen(1, id)
			}
		}
		steps() // warm up: the table reaches its steady capacity
		// AllocsPerRun calls steps once more to warm up, then measures one
		// call: every one of its 10k insertions and purges must reuse slots.
		if allocs := testing.AllocsPerRun(1, steps); allocs != 0 {
			t.Fatalf("steady-state duplicate table allocated %.0f objects over 10k RREQs", allocs)
		}
	})
}
