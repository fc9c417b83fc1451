package manet

import (
	"manetskyline/internal/core"
	"manetskyline/internal/tuple"
)

// tupleBytes is the wire size of one tuple: two float64 coordinates plus
// one float64 per attribute (the paper's devices would ship narrower types;
// the constant factor only scales transfer delays uniformly).
func tupleBytes(dim int) int { return 16 + 8*dim }

// tuplesBytes is the wire size of a tuple list.
func tuplesBytes(ts []tuple.Tuple) int {
	if len(ts) == 0 {
		return 0
	}
	return len(ts) * tupleBytes(ts[0].Dim())
}

// querySize is the wire size of a query specification: id, cnt, position,
// and distance, plus every filtering tuple it carries.
func querySize(q core.Query) int {
	s := 24
	if q.Filter != nil {
		s += tupleBytes(q.Filter.Dim()) + 8 // tuple + carried VDR score
	}
	return s + tuplesBytes(q.Extra)
}

// queryMsg disseminates a query under breadth-first forwarding (one-hop
// broadcast, rebroadcast by every first-time receiver).
type queryMsg struct {
	Q core.Query
	// Hops is the flood depth: 1 at the originator's broadcast, +1 per
	// rebroadcast. It is simulator bookkeeping for traces and spans, not
	// protocol payload, and is deliberately excluded from SizeBytes so
	// airtime, timing, and goldens are unchanged by instrumentation.
	Hops int
}

func (m *queryMsg) SizeBytes() int { return querySize(m.Q) }

// resultMsg returns one device's answer to the originator (multi-hop
// unicast): its reduced local skyline under breadth-first forwarding, or
// the tuples surviving the filter set in the SF collect phase.
type resultMsg struct {
	Key    core.QueryKey
	From   core.DeviceID
	Tuples []tuple.Tuple
}

func (m *resultMsg) SizeBytes() int { return 16 + tuplesBytes(m.Tuples) }

// dfQueryMsg hands the query to one neighbour under depth-first forwarding.
type dfQueryMsg struct {
	Q core.Query
}

func (m *dfQueryMsg) SizeBytes() int { return querySize(m.Q) }

// dfAckMsg acknowledges a depth-first hand-off: Accept=false means the
// neighbour already processed this query ("try someone else").
type dfAckMsg struct {
	Key    core.QueryKey
	Accept bool
}

func (m *dfAckMsg) SizeBytes() int { return 8 }

// dfResultMsg returns a completed subtree's merged result (and the best
// filter it discovered) to the depth-first parent.
type dfResultMsg struct {
	Key       core.QueryKey
	Tuples    []tuple.Tuple
	Filter    *tuple.Tuple
	FilterVDR float64
}

func (m *dfResultMsg) SizeBytes() int {
	s := 24 + tuplesBytes(m.Tuples)
	if m.Filter != nil {
		s += tupleBytes(m.Filter.Dim()) + 8
	}
	return s
}

// sfQueryMsg broadcasts the SF sampling round: a bare query (no filter —
// every receiver computes its full local skyline for the later collect
// phase) plus the per-device sample budget. The sampling round is
// TTL-limited (default one hop): SF only needs a representative
// neighbourhood sample to pick filters from, so it does not pay for a full
// flood here — devices beyond the TTL first hear of the query from the
// filter flood, which carries the full spec for exactly that reason.
type sfQueryMsg struct {
	Q       core.Query
	SampleK int
	// TTL is the remaining hop budget: receivers rebroadcast only while
	// TTL > 1.
	TTL int
	// Hops is simulator bookkeeping like queryMsg.Hops, excluded from
	// SizeBytes.
	Hops int
}

func (m *sfQueryMsg) SizeBytes() int { return querySize(m.Q) + 3 }

// sfSampleMsg returns one device's seeded skyline sample to the SF
// originator (multi-hop unicast).
type sfSampleMsg struct {
	Key    core.QueryKey
	From   core.DeviceID
	Tuples []tuple.Tuple
}

func (m *sfSampleMsg) SizeBytes() int { return 16 + tuplesBytes(m.Tuples) }

// sfFilterMsg is SF's one full flood, opening the collect phase: the query
// spec (a device outside the sampling TTL answers from this message alone)
// together with the selected filter set. Filters prune by dominance only —
// their positions are never read — and travel as 16-bit fixed-point
// attribute codes over the schema's global bounds (core.QuantizeFilters):
// 2·dim bytes per filter instead of tupleBytes(dim). That keeps the flood
// payload below BF's query+filter+VDR scale, which is what lets SF come
// out ahead on a flood-dominated dense network.
type sfFilterMsg struct {
	Q       core.Query
	Filters []tuple.Tuple
	Hops    int
}

func (m *sfFilterMsg) SizeBytes() int {
	s := querySize(m.Q) + 2
	dim := 0
	if len(m.Filters) > 0 {
		dim = m.Filters[0].Dim()
	}
	return s + len(m.Filters)*2*dim
}

// queryKeyOf extracts the query key from any manet protocol payload, for
// per-query message attribution; ok is false for non-manet payloads.
func queryKeyOf(p any) (core.QueryKey, bool) {
	switch m := p.(type) {
	case *queryMsg:
		return m.Q.Key(), true
	case *resultMsg:
		return m.Key, true
	case *dfQueryMsg:
		return m.Q.Key(), true
	case *dfAckMsg:
		return m.Key, true
	case *dfResultMsg:
		return m.Key, true
	case *sfQueryMsg:
		return m.Q.Key(), true
	case *sfSampleMsg:
		return m.Key, true
	case *sfFilterMsg:
		return m.Q.Key(), true
	default:
		return core.QueryKey{}, false
	}
}
