package manet

import (
	"manetskyline/internal/core"
	"manetskyline/internal/localsky"
	"manetskyline/internal/radio"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// This file implements the SF (sampling-filter) strategy, the
// communication-optimal third forwarding mode beside the paper's BF and DF
// (Zhang & Zhang, arXiv:1611.00423): instead of shipping every device's
// reduced local skyline to the originator, SF spends one cheap sampling
// round to learn a strong filter set first.
//
//	phase 0 (sample):  the originator broadcasts a bare query with a small
//	                   TTL (default one hop — the sampling round stays off
//	                   the flood budget); every receiver computes its full
//	                   constrained local skyline and returns a seeded
//	                   deterministic sample of it.
//	phase 1 (collect): after SampleWait, the originator selects FilterK
//	                   tuples from everything collected so far by greedy
//	                   dominating-region coverage (internal/skyline) and
//	                   floods them together with the query spec — SF's one
//	                   full flood, which both disseminates the query to
//	                   devices beyond the sampling TTL and arms them with
//	                   the filter set. Devices return only the tuples that
//	                   survive it.
//
// Every filter is a real in-range tuple the originator holds, so fault-free
// the merged result is exactly the centralized constrained skyline, while
// on the wire SF replaces BF's (query + own filter + VDR score) flood with
// a (query + k attribute-only filters) flood and shrinks the returned
// results to near-empty survivor messages.

// sfDevState is a non-originator device's state for one SF query: the full
// local skyline computed in the sampling round, kept for the collect phase.
type sfDevState struct {
	skyline   []tuple.Tuple
	unreduced int
	sampled   int  // tuples volunteered in the sampling round
	replied   bool // survivors already sent (collect-phase dedup)
}

// sfStart runs the originator's side of SF query issue: broadcast the
// TTL-limited sample request and arm the sample-collection deadline.
func (n *node) sfStart(q core.Query, res localsky.Result) {
	st := n.originate(q.Bare(), res)
	if st == nil {
		return
	}
	n.sfFlood(st)
	n.sc.eng.Schedule(n.sc.p.SampleWait, func() { n.sfBroadcastFilters(st) })
	n.scheduleRetry(st, func() { n.sfFlood(st) })
}

// sfFlood floods the phase the query is in: the sample request while
// sampling, the filter set once collecting. A retry thereby re-floods
// whichever phase is current.
func (n *node) sfFlood(st *origState) {
	key := st.q.Key()
	var msg radio.Payload = &sfQueryMsg{Q: st.q, SampleK: n.sc.p.SampleK, TTL: n.sc.p.SampleTTL, Hops: 1}
	if st.collecting {
		msg = &sfFilterMsg{Q: st.q, Filters: st.filters, Hops: 1}
	}
	n.sc.countQueryMessages(key, n.flood(key.Org, 1, msg), msg.SizeBytes())
}

// sfBroadcastFilters flips the originator into the collect phase: select
// the filter set from everything sampled so far and flood it.
func (n *node) sfBroadcastFilters(st *origState) {
	key := st.q.Key()
	qm := n.sc.metrics[key]
	if qm == nil || qm.Done || st.collecting {
		return
	}
	st.collecting = true
	st.filters = n.dev.SelectFilterSet(st.col.Merged(), key, n.sc.p.FilterK)
	n.sc.trace(TraceEvent{Event: "filter-set", Device: n.dev.ID,
		Org: key.Org, Cnt: key.Cnt, Tuples: len(st.filters)})
	n.sc.spans.Observe(spanKey(key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageFilterSet,
		Device: int32(n.dev.ID), Tuples: len(st.filters),
	})
	n.sfFlood(st)
}

// sfHandleQuery runs a first-time receiver's side of the sampling round:
// compute the full local skyline, keep it for the collect phase, return a
// seeded sample, and rebroadcast while TTL remains. The rebroadcast happens
// before the processing delay so the sampling wave is not serialized by
// per-device CPU cost.
func (n *node) sfHandleQuery(msg *sfQueryMsg) {
	q := msg.Q
	key := q.Key()
	if !n.dev.FirstTime(key) {
		return
	}
	if msg.TTL > 1 {
		fwd := &sfQueryMsg{Q: q, SampleK: msg.SampleK, TTL: msg.TTL - 1, Hops: msg.Hops + 1}
		n.sc.countQueryMessages(key, n.flood(q.Org, fwd.Hops, fwd), fwd.SizeBytes())
	}
	res := n.dev.Process(q) // bare query: the full constrained local skyline
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		n.observeProcess(q, res, msg.Hops)
		if n.sfDev == nil {
			n.sfDev = make(map[core.QueryKey]*sfDevState)
		}
		sample := core.SampleTuples(res.Skyline, msg.SampleK, core.SampleSeed(key, n.dev.ID))
		n.sfDev[key] = &sfDevState{
			skyline: res.Skyline, unreduced: res.Unreduced, sampled: len(sample),
		}
		n.sc.net.Send(n.id, radio.NodeID(q.Org), &sfSampleMsg{
			Key: key, From: n.dev.ID, Tuples: sample,
		})
	})
}

// sfHandleSample merges one device's sample at the originator. Samples that
// arrive after the phase flip still improve the final result; they simply
// no longer influence filter selection.
func (n *node) sfHandleSample(m *sfSampleMsg, hops int) {
	st := n.orig[m.Key]
	if st == nil {
		return
	}
	st.col.Absorb(m.Tuples)
	n.sc.trace(TraceEvent{Event: "sample", Device: n.dev.ID,
		Org: m.Key.Org, Cnt: m.Key.Cnt, Tuples: len(m.Tuples), Hops: hops})
	n.sc.spans.Observe(spanKey(m.Key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageSample,
		Device: int32(m.From), Tuples: len(m.Tuples), Hops: hops,
	})
}

// sfHandleFilter runs a device's side of the collect phase: prune the
// stored skyline with the filter set, return the survivors, keep flooding.
// A device that missed the sampling round processes the query fresh — the
// filter flood carries the full query spec for exactly this case. The
// re-flood happens at acceptance, before any processing delay, so the
// flood wave is not serialized by per-device CPU cost.
func (n *node) sfHandleFilter(msg *sfFilterMsg) {
	key := msg.Q.Key()
	ds := n.sfDev[key]
	if ds != nil {
		if ds.replied {
			return
		}
		n.sfRefloodFilter(key, msg)
		n.sfSendSurvivors(key, ds, msg)
		return
	}
	if !n.dev.FirstTime(key) {
		return // originator, or a duplicate while the first copy processes
	}
	n.sfRefloodFilter(key, msg)
	res := n.dev.Process(msg.Q)
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		n.observeProcess(msg.Q, res, msg.Hops)
		late := &sfDevState{skyline: res.Skyline, unreduced: res.Unreduced}
		if n.sfDev == nil {
			n.sfDev = make(map[core.QueryKey]*sfDevState)
		}
		n.sfDev[key] = late
		n.sfSendSurvivors(key, late, msg)
	})
}

// sfRefloodFilter forwards the filter flood one hop.
func (n *node) sfRefloodFilter(key core.QueryKey, msg *sfFilterMsg) {
	fwd := &sfFilterMsg{Q: msg.Q, Filters: msg.Filters, Hops: msg.Hops + 1}
	n.sc.countQueryMessages(key, n.flood(key.Org, fwd.Hops, fwd), fwd.SizeBytes())
}

// sfSendSurvivors computes and returns one device's surviving tuples.
func (n *node) sfSendSurvivors(key core.QueryKey, ds *sfDevState, msg *sfFilterMsg) {
	ds.replied = true
	surv := core.Survivors(ds.skyline, msg.Filters)
	// Formula 1 accounting: the tuples this device shipped are its sample
	// plus the survivors, against the filter set it received.
	n.sc.observe(key, processOutcome{
		reducedLen: len(surv) + ds.sampled,
		unreduced:  ds.unreduced,
		filters:    len(msg.Filters),
	})
	n.sc.net.Send(n.id, radio.NodeID(key.Org), &resultMsg{
		Key: key, From: n.dev.ID, Tuples: surv,
	})
}
