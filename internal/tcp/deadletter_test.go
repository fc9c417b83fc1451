package tcp

import (
	"errors"
	"net"
	"testing"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/leaktest"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// deadAddr returns a localhost address that refuses connections: the port
// of a listener that was opened and immediately closed.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDeadLetterFailsQuorumSlotImmediately is the regression test for the
// silent dead-letter drop: a query whose only flood frame exhausts
// RetryTimeout used to idle until the full QueryTimeout even though no
// result could ever arrive. It must now wake as soon as the frame is
// dead-lettered, return an explicit ErrUnreachable, and count the failed
// slot in tcp_deadletter_total.
func TestDeadLetterFailsQuorumSlotImmediately(t *testing.T) {
	defer leaktest.Check(t)()
	reg := telemetry.NewRegistry()
	gcfg := gen.DefaultConfig(100, 2, gen.Independent, 7)
	data := gen.Generate(gcfg)

	dir := NewDirectory()
	dir.Register(1, deadAddr(t)) // resolvable but refusing: dial fails, frame retries
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.QueryTimeout = 5 * time.Second
	cfg.RetryTimeout = 150 * time.Millisecond
	p0, err := NewPeer(0, data, gcfg.Schema(), core.Under, true, tuple.Point{X: 500, Y: 500}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p0.Close()
	p0.AddNeighbor(1)

	start := time.Now()
	res, err := p0.Query(p0.Pos(), core.Unconstrained(), 2)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Query error = %v, want ErrUnreachable", err)
	}
	if res.Complete || res.Results != 0 {
		t.Errorf("unreachable query: Complete=%v Results=%d, want incomplete/0", res.Complete, res.Results)
	}
	if len(res.Skyline) == 0 {
		t.Errorf("unreachable query lost the local skyline")
	}
	// Well before the 5s deadline: the dead-letter at ~150ms must wake it.
	if elapsed > 2*time.Second {
		t.Errorf("query idled %v after dead-letter; want prompt failure", elapsed)
	}
	if got := reg.Snapshot().Counters["tcp_deadletter_total"]; got != 1 {
		t.Errorf("tcp_deadletter_total = %d, want 1", got)
	}
}

// TestUnresolvableNeighborFailsSlotWithoutDialing covers the fastest
// dead-letter path under both strategies: a neighbour the directory cannot
// resolve fails the quorum slot at send time, so the query returns
// immediately. SF's sample request fails the same way, and the query
// closes before its filter-set flood would go out.
func TestUnresolvableNeighborFailsSlotWithoutDialing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		query func(*Peer) (QueryResult, error)
	}{
		{"BF", func(p *Peer) (QueryResult, error) { return p.Query(p.Pos(), core.Unconstrained(), 2) }},
		{"SF", func(p *Peer) (QueryResult, error) { return p.QuerySF(p.Pos(), core.Unconstrained(), 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leaktest.Check(t)()
			reg := telemetry.NewRegistry()
			dir := NewDirectory()
			cfg := DefaultConfig()
			cfg.Registry = reg
			cfg.QueryTimeout = 5 * time.Second
			p0, err := NewPeer(0, nil, tuple.NewSchema(2, 0, 10), core.Under, true, tuple.Point{}, dir, cfg)
			if err != nil {
				t.Fatalf("NewPeer: %v", err)
			}
			defer p0.Close()
			p0.AddNeighbor(7) // never registered

			start := time.Now()
			_, err = tc.query(p0)
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("query error = %v, want ErrUnreachable", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("query took %v; an unresolvable flood should fail instantly", elapsed)
			}
			snap := reg.Snapshot().Counters
			if got := snap["tcp_deadletter_total"]; got != 1 {
				t.Errorf("tcp_deadletter_total = %d, want 1", got)
			}
			// One frame per flood was attempted; SF's filter-set flood must
			// not follow a closed query.
			if got := snap["tcp_sends_suppressed_total"]; got != 1 {
				t.Errorf("tcp_sends_suppressed_total = %d, want 1 (no flood after close)", got)
			}
		})
	}
}

// TestDeadLetterDoesNotFireWithLiveNeighbors pins the conservative side of
// the fail-fast: when only one of two flood frames dead-letters, results
// from the live neighbour must still complete the quorum the normal way.
func TestDeadLetterDoesNotFireWithLiveNeighbors(t *testing.T) {
	defer leaktest.Check(t)()
	gcfg := gen.DefaultConfig(200, 2, gen.Independent, 11)
	data := gen.Generate(gcfg)
	half := len(data) / 2

	dir := NewDirectory()
	dir.Register(2, deadAddr(t))
	cfg := DefaultConfig()
	cfg.QueryTimeout = 3 * time.Second
	cfg.RetryTimeout = 100 * time.Millisecond
	cfg.Quorum = 0.5 // one of the two other peers suffices
	p0, err := NewPeer(0, data[:half], gcfg.Schema(), core.Under, true, tuple.Point{X: 500, Y: 500}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer 0: %v", err)
	}
	defer p0.Close()
	p1, err := NewPeer(1, data[half:], gcfg.Schema(), core.Under, true, tuple.Point{X: 500, Y: 500}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer 1: %v", err)
	}
	defer p1.Close()
	p0.AddNeighbor(1)
	p0.AddNeighbor(2) // dead

	res, err := p0.Query(p0.Pos(), core.Unconstrained(), 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Complete || res.Results != 1 {
		t.Errorf("query with one live neighbour: Complete=%v Results=%d, want complete/1", res.Complete, res.Results)
	}
}

// TestRejectFrameDroppedNotCrashed pins the mixed-version contract for the
// gateway's reject frame: a plain (pre-gateway) peer that receives a
// KindReject frame skips it — counted in tcp_frames_dropped_total — while
// the connection keeps serving frames the peer does understand.
func TestRejectFrameDroppedNotCrashed(t *testing.T) {
	defer leaktest.Check(t)()
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
	// The position a pre-gateway peer is in when a gateway reject frame
	// arrives: the kind parses but the peer has no protocol role for it.
	// It must be skipped, not kill the stream — the valid result that
	// follows on the SAME connection must still complete the quorum.
	rej := wire.EncodeReject(wire.Reject{
		Key: core.QueryKey{Org: 0, Cnt: 1}, Code: wire.RejectShedRate, RetryAfterMs: 25,
	})
	if err := wire.WriteFrame(conn, rej); err != nil {
		t.Fatalf("write reject frame: %v", err)
	}
	ok := wire.EncodeResult(wire.Result{Key: core.QueryKey{Org: 0, Cnt: 1}, From: 9})
	if err := wire.WriteFrame(conn, ok); err != nil {
		t.Fatalf("write result: %v", err)
	}
	res := <-resCh
	if !res.Complete || res.Results != 1 {
		t.Errorf("connection wedged after reject frame: Complete=%v Results=%d", res.Complete, res.Results)
	}
	if got := reg.Snapshot().Counters["tcp_frames_dropped_total"]; got != 1 {
		t.Errorf("tcp_frames_dropped_total = %d, want 1", got)
	}
}
