package tcp

import (
	"fmt"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/wire"
)

// Cross-peer causal tracing. When Config.Spans is set, every frame a peer
// sends carries a wire.TraceContext — the query's (org, cnt) as trace ID,
// the TCP hop number, and the sending peer — and both ends record transport
// stages into their span logs:
//
//	sender:   enqueue → (dial) → write
//	receiver: decode → handle → (reply)
//
// Each peer only ever sees its own half of a hop; cmd/skytrace (via
// internal/trace) merges the per-peer logs into one causal timeline by
// pairing each write with the matching decode on the other side. With
// Config.Spans nil, no context is attached (frames stay on the v1 wire
// format, byte-identical to an untraced build) and every helper here is a
// single branch with zero allocations.

// nowSecs is the live runtime's span clock: Unix time in float64 seconds,
// comparable across peers on one host (the chaos soaks and localhost grids
// this repo runs) without clock-sync machinery.
func nowSecs() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// spanKey converts a protocol query key to a span key.
func spanKey(k core.QueryKey) telemetry.SpanKey {
	return telemetry.SpanKey{Org: int32(k.Org), Cnt: int32(k.Cnt)}
}

// ctxSpanKey converts a wire trace context to a span key.
func ctxSpanKey(tc *wire.TraceContext) telemetry.SpanKey {
	return telemetry.SpanKey{Org: tc.Org, Cnt: int32(tc.Cnt)}
}

// traceCtx builds the context frames of query k should carry at the given
// hop, or nil when tracing is disabled.
func (p *Peer) traceCtx(k core.QueryKey, hop uint8) *wire.TraceContext {
	if p.cfg.Spans == nil {
		return nil
	}
	return &wire.TraceContext{
		Org: int32(k.Org), Cnt: k.Cnt, Hop: hop, Parent: int32(p.dev.ID),
	}
}

// traceStage records one transport stage against the span tc identifies.
// The span is auto-opened on peers that did not originate the query. No-op
// (and allocation-free) when tracing is disabled or the frame is untraced.
func (p *Peer) traceStage(tc *wire.TraceContext, kind string, peer core.DeviceID, bytes int) {
	p.traceStageAt(p.traceClock(tc), tc, kind, peer, bytes)
}

// traceClock reads the clock for a stage of tc, or returns 0 without
// reading it when the stage will not be recorded.
func (p *Peer) traceClock(tc *wire.TraceContext) float64 {
	if p.cfg.Spans == nil || tc == nil {
		return 0
	}
	return nowSecs()
}

// traceStageAt is traceStage for a stage that began at time t. Writes are
// stamped when they start: the receiver can decode a frame before the
// writing goroutine returns from Write, and a stamp taken afterwards would
// make the hop's latency negative.
func (p *Peer) traceStageAt(t float64, tc *wire.TraceContext, kind string, peer core.DeviceID, bytes int) {
	if p.cfg.Spans == nil || tc == nil {
		return
	}
	p.cfg.Spans.ObserveAuto(ctxSpanKey(tc), telemetry.Stage{
		T: t, Kind: kind, Device: int32(p.dev.ID),
		Peer: int32(peer), Hops: int(tc.Hop), Bytes: bytes,
	})
}

// flightEvent records a failure-path event into the flight recorder when
// one is configured. The detail is formatted only past the nil gate, so
// disabled recorders do not pay for string building.
func (p *Peer) flightEvent(kind string, tc *wire.TraceContext, format string, args ...any) {
	if p.cfg.Flight == nil {
		return
	}
	ev := telemetry.FlightEvent{
		T: nowSecs(), Kind: kind, Peer: int32(p.dev.ID),
		Detail: fmt.Sprintf(format, args...),
	}
	if tc != nil {
		ev.Org, ev.Cnt = tc.Org, int32(tc.Cnt)
	}
	p.cfg.Flight.Record(ev)
}
