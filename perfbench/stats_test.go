package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1000..1, unsorted
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 500}, {0.99, 990}, {1, 1000}, {0.001, 1}} {
		got, n := percentile(append([]float64(nil), samples...), c.p)
		if got != c.want || n != 1000 {
			t.Errorf("percentile(p=%g) = %g over %d samples, want %g over 1000", c.p, got, n, c.want)
		}
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile(empty) = %g, %d; want 0, 0", v, n)
	}
	if v, n := percentile([]float64{7}, 0.99); v != 7 || n != 1 {
		t.Errorf("percentile(one sample) = %g, %d; want 7, 1", v, n)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
}

func TestFailedShareAccounting(t *testing.T) {
	var total tally
	total.add(tally{attempted: 10, wrong: 1})
	total.add(tally{attempted: 30, incomplete: 2, timedOut: 1, rejected: 2})
	if total.attempted != 40 || total.failed() != 6 {
		t.Fatalf("attempted %d failed %d, want 40 and 6", total.attempted, total.failed())
	}
	if s := total.failedShare(); s != 0.15 {
		t.Errorf("failed share = %g, want 0.15", s)
	}
	if s := (tally{}).failedShare(); s != 0 {
		t.Errorf("failed share of nothing = %g, want 0", s)
	}
	rep := newReport()
	rep.tally = tally{attempted: 5}
	if res := rep.result(false); !res.Correct || res.Attempted != 5 || res.Failed != 0 {
		t.Errorf("clean run reported %+v", res)
	}
	rep.tally.wrong = 1
	if res := rep.result(false); res.Correct || res.Failed != 1 {
		t.Errorf("run with a wrong answer reported correct=%v failed=%d", res.Correct, res.Failed)
	}
	rep.tally.wrong = 0
	rep.problem("amplification breach")
	if res := rep.result(false); res.Correct {
		t.Error("run with a failed check reported correct")
	}
	rep = newReport()
	rep.tally = tally{attempted: 5}
	rep.nondeterministic("digest differs")
	if res := rep.result(false); !res.Correct {
		t.Error("a repeat that changed a digest must be reported, not fail the run")
	}
}

func TestWindowsAveragePercentiles(t *testing.T) {
	start := time.Unix(0, 0)
	var lat []float64
	var done []time.Time
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			l := float64(i%100) + 1 // 1..100 ms, p50 50, p99 99
			if w == 3 {
				if i%2 == 1 {
					continue // a slow window: half the completions...
				}
				l *= 2 // ...each twice as slow
			}
			lat = append(lat, l)
			done = append(done, start.Add(time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	end := start.Add(5 * time.Second)
	// Window 3 holds the odd latencies 1, 3, ..., 99 doubled: p50 98, p99 198.
	for _, c := range []struct{ p, want float64 }{{0.50, (4*50 + 98) / 5.0}, {0.99, (4*99 + 198) / 5.0}} {
		if got, n := windowPercentile(lat, done, start, end, 5, c.p); got != c.want || n != 500 {
			t.Errorf("windowPercentile(p=%g) = %g over at least %d samples, want %g over at least 500", c.p, got, n, c.want)
		}
	}
	if w := summarizeWindows(lat, done, start, end); w.qps != 900 || w.minSamples != 500 {
		t.Errorf("summarizeWindows: %g queries/s, smallest p99 window %d; want 900 and 500", w.qps, w.minSamples)
	}
}
