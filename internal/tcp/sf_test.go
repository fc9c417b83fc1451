package tcp

import (
	"net"
	"testing"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/skyline"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// TestQuerySFOverRealSockets runs the SF strategy across a 3×3 grid of real
// TCP peers: fault-free, the sampled-filter protocol must return exactly the
// centralized constrained skyline, same as Query.
func TestQuerySFOverRealSockets(t *testing.T) {
	peers, data, cleanup := buildPeers(t, DefaultConfig(), 3000, 2, 3, 5)
	defer cleanup()
	for _, org := range []int{0, 4, 8} {
		res, err := peers[org].QuerySF(peers[org].Pos(), 500, len(peers))
		if err != nil {
			t.Fatalf("QuerySF: %v", err)
		}
		if !res.Complete {
			t.Fatalf("org %d: incomplete (%d results)", org, res.Results)
		}
		want := skyline.Constrained(data, peers[org].Pos(), 500)
		if !skyline.SetEqual(res.Skyline, want) {
			t.Errorf("org %d: got %d tuples, want %d", org, len(res.Skyline), len(want))
		}
	}
}

// TestQuerySFMatchesQueryAcrossPeers interleaves BF and SF queries from
// different originators on one grid: both strategies must agree with the
// centralized answer, and the per-originator query log must keep them from
// interfering.
func TestQuerySFMatchesQueryAcrossPeers(t *testing.T) {
	peers, data, cleanup := buildPeers(t, DefaultConfig(), 2000, 3, 2, 7)
	defer cleanup()
	for i, p := range peers {
		var res QueryResult
		var err error
		if i%2 == 0 {
			res, err = p.QuerySF(p.Pos(), 600, len(peers))
		} else {
			res, err = p.Query(p.Pos(), 600, len(peers))
		}
		if err != nil || !res.Complete {
			t.Fatalf("peer %d: err=%v complete=%v", i, err, res.Complete)
		}
		want := skyline.Constrained(data, p.Pos(), 600)
		if !skyline.SetEqual(res.Skyline, want) {
			t.Errorf("peer %d: got %d tuples, want %d", i, len(res.Skyline), len(want))
		}
	}
}

// TestMixedVersionFrameRejectedNotCrashed pins the forward-compatibility
// contract a pre-SF peer relies on when an SF-era neighbour floods it: an
// unknown message kind is dropped (counted in tcp_frames_dropped_total)
// while the connection keeps serving frames the peer does understand —
// mixed-version grids degrade, they do not crash or wedge.
func TestMixedVersionFrameRejectedNotCrashed(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.QueryTimeout = 2 * time.Second
	cfg.Registry = reg
	dir := NewDirectory()
	p, err := NewPeer(0, nil, tuple.NewSchema(2, 0, 10), core.Under, true, tuple.Point{}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p.Close()

	resCh := make(chan QueryResult, 1)
	go func() {
		r, _ := p.Query(p.Pos(), core.Unconstrained(), 2)
		resCh <- r
	}()
	time.Sleep(50 * time.Millisecond)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// A frame of a kind this build does not know — the position a pre-SF
	// peer is in when a KindFilterSet frame arrives. It must be skipped, not
	// kill the stream: the valid result that follows on the SAME connection
	// must still complete the quorum.
	future := append([]byte{byte(wire.KindFilterSet) + 1}, 1, 2, 3, 4)
	if err := wire.WriteFrame(conn, future); err != nil {
		t.Fatalf("write future-kind frame: %v", err)
	}
	ok := wire.EncodeResult(wire.Result{Key: core.QueryKey{Org: 0, Cnt: 1}, From: 9})
	if err := wire.WriteFrame(conn, ok); err != nil {
		t.Fatalf("write result: %v", err)
	}
	res := <-resCh
	if !res.Complete || res.Results != 1 {
		t.Errorf("connection wedged after unknown kind: Complete=%v Results=%d", res.Complete, res.Results)
	}
	if got := reg.Snapshot().Counters["tcp_frames_dropped_total"]; got != 1 {
		t.Errorf("tcp_frames_dropped_total = %d, want 1", got)
	}
}

// TestMalformedFilterSetClosesConnection sends a well-framed KindFilterSet
// message with a hostile body: the decode failure must be counted and close
// the connection (the stream can no longer be trusted), never panic.
func TestMalformedFilterSetClosesConnection(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Registry = reg
	dir := NewDirectory()
	p, err := NewPeer(0, nil, tuple.NewSchema(2, 0, 10), core.Under, true, tuple.Point{}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, []byte{byte(wire.KindFilterSet), 0x01}); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Errorf("peer should close the connection after a filter-set decode failure")
	}
	if got := reg.Snapshot().Counters["tcp_decode_failures_total"]; got != 1 {
		t.Errorf("tcp_decode_failures_total = %d, want 1", got)
	}
}

// TestSFConfigValidate covers the SF tuning field.
func TestSFConfigValidate(t *testing.T) {
	good := DefaultConfig()
	good.SFSampleWait = 50 * time.Millisecond
	if err := good.Validate(); err != nil {
		t.Fatalf("valid SF config rejected: %v", err)
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.SFSampleWait = -time.Second },
	} {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d should be invalid", i)
		}
	}
}

// TestSinglePeerQuerySF: quorum zero completes locally, like Query.
func TestSinglePeerQuerySF(t *testing.T) {
	dir := NewDirectory()
	p, err := NewPeer(0, nil, tuple.NewSchema(2, 0, 10), core.Under, true, tuple.Point{}, dir, DefaultConfig())
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p.Close()
	res, err := p.QuerySF(p.Pos(), 300, 1)
	if err != nil || !res.Complete {
		t.Fatalf("solo SF query: %v %v", err, res.Complete)
	}
}
