package sim

import (
	"slices"
	"testing"
)

// TestKindScheduling checks that compact events dispatch to their registered
// handler with their argument words intact, interleaved in (time, FIFO)
// order with closure events.
func TestKindScheduling(t *testing.T) {
	e := NewEngine(1)
	type hit struct {
		a uint32
		b uint64
	}
	var order []hit // closures record {0, time}
	k := e.RegisterKind(func(a uint32, b uint64) { order = append(order, hit{a, b}) })
	closure := func() { order = append(order, hit{0, uint64(e.Now())}) }

	e.AtKind(2, k, 7, 1<<40)
	e.Schedule(1, closure)
	e.Schedule(2, closure)      // same time as the first kind event: FIFO by seq
	e.ScheduleKind(2, k, 9, 42) // and after the closure queued before it
	e.At(3, closure)
	e.RunAll()

	want := []hit{{0, 1}, {7, 1 << 40}, {0, 2}, {9, 42}, {0, 3}}
	if !slices.Equal(order, want) {
		t.Fatalf("events = %+v, want %+v", order, want)
	}
}

// TestKindNested checks that a kind handler may schedule further compact
// events while the queue is mid-drain.
func TestKindNested(t *testing.T) {
	e := NewEngine(1)
	var depths []uint32
	var k Kind
	k = e.RegisterKind(func(a uint32, _ uint64) {
		depths = append(depths, a)
		if a < 3 {
			e.ScheduleKind(1, k, a+1, 0)
		}
	})
	e.AtKind(1, k, 0, 0)
	e.RunAll()
	if len(depths) != 4 || depths[3] != 3 {
		t.Fatalf("nested kind events: %v", depths)
	}
	if e.Now() != 4 {
		t.Fatalf("clock = %g, want 4", e.Now())
	}
}

// TestUnregisteredKindPanics pins the guard against scheduling with a Kind
// the engine never issued.
func TestUnregisteredKindPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Errorf("unregistered kind should panic")
		}
	}()
	e.AtKind(1, Kind(99), 0, 0)
}

// TestSimEventZeroAllocs is the allocation regression gate for the compact
// event path: once the queue has reached its working size, a schedule+pop
// cycle of a registered-kind event must not allocate. This is what keeps
// the per-frame delivery path of a 30k-node flood allocation-free.
func TestSimEventZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	var sink uint64
	k := e.RegisterKind(func(a uint32, b uint64) { sink += uint64(a) + b })
	for i := 0; i < 64; i++ { // grow the queue to its working size
		e.ScheduleKind(float64(i%7)+1, k, uint32(i), uint64(i))
	}
	for e.Step() {
	}
	e.ScheduleKind(1, k, 1, 2)
	e.Step() // warm up
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleKind(1, k, 1, 2)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleKind+Step allocated %.1f objects/op, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("handler never ran")
	}
}
