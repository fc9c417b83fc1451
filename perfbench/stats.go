package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// tally is the failure accounting of one run: every attempted query ends
// as exactly one of answered-correctly, incomplete, timed out, rejected or
// wrong.
type tally struct {
	attempted  int64
	incomplete int64
	timedOut   int64
	rejected   int64
	wrong      int64
}

// failed is (incomplete + timed out + rejected + wrong answer).
func (t tally) failed() int64 { return t.incomplete + t.timedOut + t.rejected + t.wrong }

// failedShare is failed / attempted, 0 when nothing was attempted.
func (t tally) failedShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.incomplete += o.incomplete
	t.timedOut += o.timedOut
	t.rejected += o.rejected
	t.wrong += o.wrong
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of samples,
// which it sorts in place, together with the sample count it rests on. It
// returns (0, 0) for an empty sample. The caller decides whether the count
// supports the percentile: p99 needs at least 1000 samples to leave ten
// beyond it.
func percentile(samples []float64, p float64) (float64, int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n
}

// median is the middle value (mean of the two middle ones for an even
// count) of xs, sorted in place; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// windows splits [start, end) into k equal windows and assigns each
// sample, by its completion time, to one.
func windows(lat []float64, done []time.Time, start, end time.Time, k int) [][]float64 {
	span := end.Sub(start)
	if k < 1 || span <= 0 {
		return nil
	}
	out := make([][]float64, k)
	for i, t := range done {
		w := int(int64(k) * int64(t.Sub(start)) / int64(span))
		if w >= 0 && w < k {
			out[w] = append(out[w], lat[i])
		}
	}
	return out
}

// windowed summarizes a closed-loop phase: the completion rate of the
// whole phase, and the mean over equal windows of each window's p50 and
// p99. The host's speed swings between two states, 1.6-1.8× apart, every
// few seconds. A percentile of pooled samples jumps to whichever state held
// most of them; the mean of window percentiles moves with the share of
// time in each state, as the rate does, and more so the shorter the
// windows. minSamples is the smallest p99 window's sample count, the count
// the p99s rest on.
type windowed struct {
	qps, p50, p99 float64
	minSamples    int
}

func summarizeWindows(lat []float64, done []time.Time, start, end time.Time) windowed {
	out := windowed{qps: rate(len(lat), start, end)}
	k50 := int(math.Ceil(float64(end.Sub(start)) / float64(p50Window)))
	out.p50, _ = windowPercentile(lat, done, start, end, k50, 0.50)
	out.p99, out.minSamples = windowPercentile(lat, done, start, end, p99Windows, 0.99)
	return out
}

// windowPercentile is the mean over k equal windows of [start, end) of the
// p-quantile of the samples each window holds, by completion time,
// together with the smallest window's sample count. Empty windows are
// left out of the mean.
func windowPercentile(lat []float64, done []time.Time, start, end time.Time, k int, p float64) (float64, int) {
	ws := windows(lat, done, start, end, k)
	var qs []float64
	minSamples := -1
	for _, w := range ws {
		if minSamples < 0 || len(w) < minSamples {
			minSamples = len(w)
		}
		if q, n := percentile(w, p); n > 0 {
			qs = append(qs, q)
		}
	}
	return mean(qs), minSamples
}

// rate is n completions per second of [start, end).
func rate(n int, start, end time.Time) float64 { return per(float64(n), end.Sub(start).Seconds()) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mean is the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return per(s, float64(len(xs)))
}

// per divides, returning 0 for a zero denominator.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest accumulates the deterministic outputs of a run into a SHA-256,
// so two runs of one seed can be compared by a single string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.ints(int64(math.Float64bits(v)))
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
