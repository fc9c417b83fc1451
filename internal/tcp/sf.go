package tcp

import (
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// This file runs the SF (sampling-filter) strategy over real sockets, the
// live-runtime counterpart of internal/manet's simulated SF. The subprotocol
// travels as wire.FilterSet frames, one kind with a phase byte:
//
//	phase 0: the originator asks its direct neighbours (one hop — the
//	         sampling round stays off the flood budget) for seeded samples
//	         of their constrained local skylines.
//	phase 1: each neighbour replies with its sample; the peer keeps its
//	         full local skyline for the collect phase.
//	phase 2: after SFSampleWait the originator selects core.FilterK filters
//	         (core.Device.SelectFilterSet: greedy dominating-region
//	         coverage, quantized) and floods them with the query spec — SF's
//	         one full flood. A peer that missed the sampling round answers
//	         from this frame alone.
//	phase 3: every peer returns only the tuples surviving the filter set.
//
// Peers built before this kind existed drop the frame at Peek (counted in
// tcp_frames_dropped_total) and keep serving — mixed-version grids degrade,
// they do not crash.

// sfLocalState caches a non-originator peer's full local skyline for one SF
// query, computed once whether the sampling round or the filter flood
// arrives first.
type sfLocalState struct {
	skyline    []tuple.Tuple
	sampleSent bool
	replied    bool
}

// sfQuerySpec rebuilds the bare query a FilterSet frame describes.
func sfQuerySpec(m wire.FilterSet) core.Query {
	return core.Query{Org: m.Key.Org, Cnt: m.Key.Cnt, Pos: m.Pos, D: m.D}
}

// QuerySF originates a distributed constrained skyline query around pos
// under the SF strategy: a one-hop sampling round, a filter-set flood, and
// a survivors collection, completing at the same quorum contract as Query
// and failing fast the same way when every frame dead-letters. Fault-free,
// the result equals Query's exactly; on the wire the flood carries k
// quantized filters instead of each hop's best filter, and the replies
// shrink to survivor sets.
func (p *Peer) QuerySF(pos tuple.Point, d float64, totalPeers int) (QueryResult, error) {
	return p.query(pos, d, totalPeers, true)
}

// sfFloods runs the SF originator's two floods: the one-hop sample request
// (no re-flood — SF only needs a representative neighbourhood sample to
// pick filters from), then, after SFSampleWait, the filter set selected
// from the samples merged so far. A query that closed meanwhile (quorum,
// deadline, dead-lettered sample requests, or Close) sends no filter set.
func (p *Peer) sfFloods(q core.Query, pq *pendingQuery, neighbors []core.DeviceID) {
	key := q.Key()
	p.flood(pq, key, neighbors, wire.EncodeFilterSet(wire.FilterSet{
		Key: key, Phase: wire.SFPhaseSampleRequest,
		Pos: q.Pos, D: q.D, SampleK: core.SampleK,
	}))
	wait := time.NewTimer(p.cfg.SFSampleWait)
	select {
	case <-wait.C:
	case <-pq.done:
	}
	wait.Stop()
	p.mu.Lock()
	if pq.closed {
		p.mu.Unlock()
		return
	}
	filters := p.dev.SelectFilterSet(pq.Merged(), key, core.FilterK)
	p.mu.Unlock()
	if p.cfg.Spans != nil {
		p.cfg.Spans.ObserveAuto(spanKey(key), telemetry.Stage{
			T: nowSecs(), Kind: telemetry.StageFilterSet,
			Device: int32(p.dev.ID), Tuples: len(filters),
		})
	}
	p.flood(pq, key, neighbors, wire.EncodeFilterSet(wire.FilterSet{
		Key: key, Phase: wire.SFPhaseFilterSet,
		Pos: q.Pos, D: q.D, Tuples: filters,
	}))
}

// handleFilterSet dispatches one SF subprotocol frame by phase.
func (p *Peer) handleFilterSet(m wire.FilterSet, tc *wire.TraceContext) {
	switch m.Phase {
	case wire.SFPhaseSampleRequest:
		p.sfHandleSampleRequest(m, tc)
	case wire.SFPhaseSampleReply:
		p.sfHandleSampleReply(m, tc)
	case wire.SFPhaseFilterSet:
		p.sfHandleFilterFlood(m, tc)
	case wire.SFPhaseSurvivors:
		// Survivors follow the same originator-side contract as BF results:
		// per-sender dedupe, merge, quorum.
		p.handleResult(wire.Result{Key: m.Key, From: m.From, Tuples: m.Tuples}, tc)
	}
}

// sfLocalFor returns this peer's cached SF state for the query, computing
// the full constrained local skyline on first demand. It returns nil for
// the originator (its query log already holds the key) and for the losing
// side of a concurrent first-arrival race — the quorum absorbs both.
func (p *Peer) sfLocalFor(q core.Query) *sfLocalState {
	key := q.Key()
	p.mu.Lock()
	if st := p.sfLocal[key]; st != nil {
		p.mu.Unlock()
		return st
	}
	p.mu.Unlock()
	if !p.dev.FirstTime(key) {
		return nil
	}
	res := p.dev.Process(q) // bare query: the full constrained local skyline
	st := &sfLocalState{skyline: res.Skyline}
	p.mu.Lock()
	// A peer holds one in-flight query per originator (the query log's
	// contract), so drop state of this originator's previous queries.
	for k := range p.sfLocal {
		if k.Org == key.Org && k != key {
			delete(p.sfLocal, k)
		}
	}
	for k := range p.sfSeen {
		if k.Org == key.Org && k != key {
			delete(p.sfSeen, k)
		}
	}
	p.sfLocal[key] = st
	p.mu.Unlock()
	return st
}

// sfHandleSampleRequest answers the one-hop sampling round: compute (and
// keep) the full local skyline, return a seeded deterministic sample of it.
func (p *Peer) sfHandleSampleRequest(m wire.FilterSet, tc *wire.TraceContext) {
	if tc != nil {
		p.traceStage(tc, telemetry.StageHandle, core.DeviceID(tc.Parent), 0)
	}
	st := p.sfLocalFor(sfQuerySpec(m))
	if st == nil {
		return
	}
	p.mu.Lock()
	if st.sampleSent {
		p.mu.Unlock()
		return
	}
	st.sampleSent = true
	p.mu.Unlock()
	sample := core.SampleTuples(st.skyline, int(m.SampleK), core.SampleSeed(m.Key, p.dev.ID))
	p.reply(m.Key, 1, wire.EncodeFilterSet(wire.FilterSet{
		Key: m.Key, Phase: wire.SFPhaseSampleReply, From: p.dev.ID, Tuples: sample,
	}))
}

// sfHandleSampleReply merges one peer's sample at the originator. Samples
// improve the final result but do not count toward the quorum; survivors
// deliberately re-include sampled tuples, so a lost sample loses nothing.
func (p *Peer) sfHandleSampleReply(m wire.FilterSet, tc *wire.TraceContext) {
	if tc != nil {
		p.traceStage(tc, telemetry.StageSample, m.From, 0)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pq := p.pending[m.Key]; pq != nil {
		pq.Absorb(m.Tuples)
	}
}

// sfHandleFilterFlood runs a peer's side of the collect phase: forward the
// flood once, prune the stored (or freshly computed) local skyline with the
// filter set, and return the survivors to the originator.
func (p *Peer) sfHandleFilterFlood(m wire.FilterSet, tc *wire.TraceContext) {
	p.mu.Lock()
	seen := p.sfSeen[m.Key]
	p.sfSeen[m.Key] = true
	p.mu.Unlock()
	if seen {
		return
	}
	hop := uint8(1)
	if tc != nil {
		hop = tc.Hop
		p.traceStage(tc, telemetry.StageHandle, core.DeviceID(tc.Parent), 0)
	}
	p.forward(m.Key, hop, wire.EncodeFilterSet(m))
	st := p.sfLocalFor(sfQuerySpec(m))
	if st == nil {
		return
	}
	p.mu.Lock()
	if st.replied {
		p.mu.Unlock()
		return
	}
	st.replied = true
	p.mu.Unlock()
	surv := core.Survivors(st.skyline, m.Tuples)
	p.reply(m.Key, hop, wire.EncodeFilterSet(wire.FilterSet{
		Key: m.Key, Phase: wire.SFPhaseSurvivors, From: p.dev.ID, Tuples: surv,
	}))
}
