package telemetry

import (
	"strings"
	"testing"
)

func TestSpanLifecycle(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 0, Cnt: 0} // zero key must work (device 0, wrapped counter)
	l.Begin(k, 1.0)
	l.Observe(k, Stage{T: 1.5, Kind: StageProcess, Device: 3, Tuples: 12, Hops: 2, Pruned: 5})
	l.Observe(k, Stage{T: 1.6, Kind: StageFilterUpdate, Device: 3})
	l.Observe(k, Stage{T: 2.0, Kind: StageResult, Device: 0, Tuples: 12, Hops: 3})
	l.Observe(k, Stage{T: 2.2, Kind: StageProcess, Device: 5, Tuples: 8, Pruned: 2})
	l.Complete(k, 3.0, 20)

	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
	sp := l.Spans()[0]
	if !sp.Done || sp.Start != 1.0 || sp.End != 3.0 {
		t.Errorf("span bounds wrong: %+v", sp)
	}
	if sp.Duration() != 2.0 {
		t.Errorf("duration = %g, want 2", sp.Duration())
	}
	if sp.Devices != 2 || sp.Results != 1 || sp.FilterUpdates != 1 {
		t.Errorf("tallies wrong: %+v", sp)
	}
	if sp.MaxHops != 3 || sp.Pruned != 7 || sp.ResultTuples != 20 {
		t.Errorf("aggregates wrong: %+v", sp)
	}
	// Timeline: issue first, complete last, 6 stages total.
	if n := len(sp.Stages); n != 6 {
		t.Fatalf("stages = %d, want 6", n)
	}
	if sp.Stages[0].Kind != StageIssue || sp.Stages[5].Kind != StageComplete {
		t.Errorf("timeline ends wrong: %v … %v", sp.Stages[0].Kind, sp.Stages[5].Kind)
	}
}

// TestSpanLogBounded checks both memory bounds: a full span drops its
// oldest stages but keeps exact tallies, a full log drops its oldest spans,
// and Evictions counts every dropped entry.
func TestSpanLogBounded(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 1}
	l.Begin(k, 0)
	const observed = 3 * maxSpanStages
	for i := 1; i <= observed; i++ {
		l.Observe(k, Stage{T: float64(i), Kind: StageProcess})
	}
	sp := l.Spans()[0]
	if len(sp.Stages) > maxSpanStages {
		t.Fatalf("span holds %d stages, cap %d", len(sp.Stages), maxSpanStages)
	}
	if last := sp.Stages[len(sp.Stages)-1].T; last != observed {
		t.Errorf("newest stage t=%g, want %d", last, observed)
	}
	if sp.Stages[0].Kind == StageIssue {
		t.Errorf("oldest stage (issue) survived eviction")
	}
	if sp.Devices != observed {
		t.Errorf("tally Devices = %d, want every observed stage (%d)", sp.Devices, observed)
	}
	stageEvictions := l.Evictions()
	if want := int64(observed + 1 - len(sp.Stages)); stageEvictions != want {
		t.Errorf("stage evictions = %d, want %d", stageEvictions, want)
	}

	for i := 1; i <= 2*maxSpans; i++ {
		l.Begin(SpanKey{Org: 2, Cnt: int32(i)}, float64(i))
	}
	spans := l.Spans()
	if len(spans) > maxSpans || l.Len() != len(spans) {
		t.Fatalf("log holds %d spans (Len %d), cap %d", len(spans), l.Len(), maxSpans)
	}
	if newest := spans[len(spans)-1]; newest.Cnt != 2*maxSpans {
		t.Errorf("newest span cnt=%d, want %d", newest.Cnt, 2*maxSpans)
	}
	for _, sp := range spans {
		if sp.Org == 1 {
			t.Fatalf("oldest span survived eviction")
		}
	}
	if want := stageEvictions + int64(2*maxSpans+1-len(spans)); l.Evictions() != want {
		t.Errorf("evictions = %d, want %d", l.Evictions(), want)
	}
}

func TestSpanLogEdgeCases(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 1, Cnt: 2}
	// Stages before Begin are dropped, not panics.
	l.Observe(k, Stage{Kind: StageProcess})
	l.Complete(k, 1, 0)
	if l.Len() != 0 {
		t.Errorf("orphan stages must not create spans")
	}
	l.Begin(k, 0)
	l.Begin(k, 5) // duplicate Begin ignored
	l.Complete(k, 2, 1)
	l.Complete(k, 9, 99) // duplicate Complete ignored
	sp := l.Spans()[0]
	if sp.Start != 0 || sp.End != 2 || sp.ResultTuples != 1 {
		t.Errorf("duplicate begin/complete must be ignored: %+v", sp)
	}
}

func TestNilSpanLogIsNoOp(t *testing.T) {
	var l *SpanLog
	k := SpanKey{}
	l.Begin(k, 0)
	l.Observe(k, Stage{Kind: StageProcess})
	l.Complete(k, 1, 0)
	if l.Len() != 0 || l.Spans() != nil {
		t.Errorf("nil span log must no-op")
	}
	var sb strings.Builder
	if err := l.WriteJSON(&sb); err != nil {
		t.Errorf("nil WriteJSON: %v", err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Errorf("nil span log JSON = %q, want []", sb.String())
	}
}

func TestSpanWriteJSON(t *testing.T) {
	l := NewSpanLog()
	l.Begin(SpanKey{Org: 4, Cnt: 1}, 0.5)
	l.Complete(SpanKey{Org: 4, Cnt: 1}, 1.5, 3)
	var sb strings.Builder
	if err := l.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"org": 4`, `"kind": "issue"`, `"kind": "complete"`, `"result_tuples": 3`} {
		if !strings.Contains(out, want) {
			t.Errorf("span JSON missing %q:\n%s", want, out)
		}
	}
}
