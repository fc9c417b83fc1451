package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestThreadCPUTimeExcludesWaiting checks the clock local-ac times queries
// by: it advances while the locked thread computes and not while it sleeps.
func TestThreadCPUTimeExcludesWaiting(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	c0 := threadCPUTime()
	time.Sleep(100 * time.Millisecond)
	if slept := threadCPUTime() - c0; slept > 20*time.Millisecond {
		t.Errorf("a 100 ms sleep cost %v of thread CPU time", slept)
	}

	c0 = threadCPUTime()
	t0 := time.Now()
	x := 0.0
	for time.Since(t0) < 50*time.Millisecond {
		x += math.Sqrt(x + 1)
	}
	if busy := threadCPUTime() - c0; busy <= 0 {
		t.Errorf("50 ms of computing cost %v of thread CPU time (x=%g)", busy, x)
	}
}
