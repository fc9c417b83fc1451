package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// local-ac: the Figure 7 static pre-test (§5.2.2-I) with no network: 4×4
// devices over 40k anti-correlated 2-D tuples, dynamic filtering with
// under-estimated dominating regions. Every device in turn originates an
// unconstrained query, which spreads breadth-first over the 4-neighbour
// grid; each reached device runs core.Device.Process once and the
// originator folds each result in with core.Merge. One caller, closed
// loop. The Figure 4 hybrid scan (localsky) and the merge do almost all of
// the work, unlike in sim-bf and live-mesh.
//
// 40k tuples keep the 16 devices' storage (≈ 1 MB) inside a 2 MB per-core
// L2 cache. At 160k (≈ 4 MB) the scan's speed followed other tenants' use
// of a shared L3, and the median latency of ten runs spread by 0.3.

const (
	acGrid   = 4
	acTuples = 40000
	acSpace  = 1000
)

type acMesh struct {
	devs  []*core.Device
	pos   []tuple.Point
	data  []tuple.Tuple // the whole dataset, until the oracle has run
	truth []tuple.Tuple // centralized skyline of the whole dataset
}

func acSetup(seed int64) *acMesh {
	cfg := gen.DefaultConfig(acTuples, 2, gen.AntiCorrelated, seed)
	cfg.Space = acSpace
	data := gen.Generate(cfg)
	parts := gen.GridPartition(data, acGrid, acSpace)
	m := &acMesh{data: data}
	for i, part := range parts {
		m.devs = append(m.devs, core.NewDevice(core.DeviceID(i), part, cfg.Schema(), core.Under, true))
		m.pos = append(m.pos, gen.CellRect(i/acGrid, i%acGrid, acGrid, acSpace).Center())
	}
	return m
}

// acOutcome is one query's answer and the deterministic work behind it.
type acOutcome struct {
	sky      []tuple.Tuple
	acc      core.DRRAccumulator
	stats    localsky.Stats // summed over the originator and every remote evaluation
	evals    int            // local skyline evaluations, originator included
	skipped  int            // evaluations the MBR or filter pre-check skipped
	replaced int            // dynamic filter upgrades
	pruned   int            // Σ |SK_i| − |SK'_i| over remote devices
	remote   int            // remote evaluations
	dup      int            // deliveries the query log rejected
	bytes    int            // wire bytes of the query and result frames
}

// acSpans collects per-call durations in the traced run.
type acSpans struct{ originate, process, merge []float64 }

// query runs one static query from org. With spans non-nil it times every
// public call; with countBytes it encodes each frame the query would put
// on a wire, outside any timed call.
func (m *acMesh) query(org int, spans *acSpans, countBytes bool) acOutcome {
	var out acOutcome
	observe := func(res localsky.Result) {
		out.stats.Add(res.Stats)
		out.evals++
		if res.Stats.SkippedMBR || res.Stats.SkippedFilter {
			out.skipped++
		}
	}
	var t0 time.Time
	if spans != nil {
		t0 = time.Now()
	}
	q, res := m.devs[org].Originate(m.pos[org], math.Inf(1))
	if spans != nil {
		spans.originate = append(spans.originate, ms(time.Since(t0)))
	}
	observe(res)
	out.sky = res.Skyline

	type hop struct {
		dev int
		q   core.Query
	}
	visited := make([]bool, len(m.devs))
	visited[org] = true
	var queue []hop
	forward := func(from int, fq core.Query) {
		r, c := from/acGrid, from%acGrid
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= acGrid || nc < 0 || nc >= acGrid || visited[nr*acGrid+nc] {
				continue
			}
			visited[nr*acGrid+nc] = true
			queue = append(queue, hop{nr*acGrid + nc, fq})
			if countBytes {
				out.bytes += wire.FrameWireSize(len(wire.EncodeQuery(fq)), false)
			}
		}
	}
	forward(org, q)
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		dev := m.devs[h.dev]
		if !dev.FirstTime(h.q.Key()) {
			out.dup++
			continue
		}
		if spans != nil {
			t0 = time.Now()
		}
		res := dev.Process(h.q)
		if spans != nil {
			spans.process = append(spans.process, ms(time.Since(t0)))
		}
		observe(res)
		out.remote++
		out.acc.ObserveFilters(res, h.q.NumFilters())
		out.pruned += res.Unreduced - len(res.Skyline)
		if core.FilterReplaced(h.q, res) {
			out.replaced++
		}
		if countBytes {
			msg := wire.EncodeResult(wire.Result{Key: h.q.Key(), From: dev.ID, Tuples: res.Skyline})
			out.bytes += wire.FrameWireSize(len(msg), false)
		}
		if spans != nil {
			t0 = time.Now()
		}
		out.sky = core.Merge(out.sky, res.Skyline)
		if spans != nil {
			spans.merge = append(spans.merge, ms(time.Since(t0)))
		}
		forward(h.dev, core.Forwardable(h.q, res))
	}
	return out
}

// sameWork reports whether two outcomes of one originator did identical
// deterministic work.
func (a acOutcome) sameWork(b acOutcome) bool {
	return a.acc == b.acc && a.stats == b.stats && a.evals == b.evals && a.skipped == b.skipped &&
		a.replaced == b.replaced && a.pruned == b.pruned && a.remote == b.remote && a.dup == b.dup &&
		len(a.sky) == len(b.sky)
}

// acPhase is one closed-loop measurement.
type acPhase struct {
	start, end time.Time
	lat        []float64 // the caller thread's CPU ms per query
	wallLat    []float64 // wall ms per query
	done       []time.Time
	recall     []float64
	t          tally
}

// loop issues queries originator by originator until d elapses, checking
// each answer against the oracle and its work against the reference cycle.
//
// A query's latency is the CPU time of the caller's thread, which loop
// locks for the phase. Local-ac does no I/O and has one caller, so that is
// its wall time less the time the host ran something else on the CPU: on
// a shared 2-CPU VM, vCPU preemption added 5-70 ms to up to 3 % of
// queries, so the wall-clock p99 of one seed read 4.2 ms in one run and
// 13.7 ms in the next. The wall-clock percentiles go to the info line.
func (m *acMesh) loop(d time.Duration, ref []acOutcome, spans *acSpans, rep *report) acPhase {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph := acPhase{start: time.Now()}
	deadline := ph.start.Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		org := i % len(m.devs)
		c0 := threadCPUTime()
		t0 := time.Now()
		out := m.query(org, spans, false)
		now := time.Now()
		ph.lat = append(ph.lat, ms(threadCPUTime()-c0))
		ph.wallLat = append(ph.wallLat, ms(now.Sub(t0)))
		ph.done = append(ph.done, now)
		ph.t.attempted++
		recall, exact := score(out.sky, m.truth)
		ph.recall = append(ph.recall, recall)
		if !exact {
			ph.t.wrong++
			rep.problem("local-ac: query from device %d returned %d tuples, oracle has %d", org, len(out.sky), len(m.truth))
		}
		if !out.sameWork(ref[org]) {
			rep.nondeterministic("local-ac: query from device %d did different work than its reference run", org)
		}
	}
	ph.end = time.Now()
	return ph
}

func runLocalAC(cfg runConfig) (*report, error) {
	rep := newReport()
	rep.info["loop"] = "closed"
	rep.info["callers"] = 1
	rep.info["transport"] = "none (in-process calls)"

	var m *acMesh
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		m = nil
		runtime.GC()
		t0 := time.Now()
		m = acSetup(cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.truth = skyline.SFS(m.data)
	m.data = nil

	// Reference cycle, untimed: one query per originator fixes the
	// deterministic work and bytes every later query must repeat.
	ref := make([]acOutcome, len(m.devs))
	dg := newDigest()
	var bytes, drrAcc = 0.0, core.DRRAccumulator{}
	for org := range m.devs {
		ref[org] = m.query(org, nil, true)
		o := ref[org]
		if _, exact := score(o.sky, m.truth); !exact {
			return nil, fmt.Errorf("local-ac: reference query from device %d is wrong: %d tuples, oracle has %d", org, len(o.sky), len(m.truth))
		}
		bytes += float64(o.bytes)
		drrAcc.Add(o.acc)
		s := o.stats
		dg.ints(int64(o.acc.Reduced), int64(o.acc.Unreduced), int64(o.acc.Devices), int64(o.acc.Filters),
			int64(s.Scanned), int64(s.InRange), int64(s.IDCmp), int64(s.ValCmp), int64(s.DistChecks),
			int64(o.evals), int64(o.skipped), int64(o.replaced), int64(o.pruned), int64(o.bytes), int64(len(o.sky)))
	}
	rep.info["digest"] = dg.sum()
	n := float64(len(m.devs))

	if !cfg.trace {
		ph := m.loop(cfg.duration(), ref, nil, rep)
		rep.tally = ph.t
		w := summarizeWindows(ph.lat, ph.done, ph.start, ph.end)
		rep.info["latency_samples"] = len(ph.lat)
		rep.info["latency_window_min_samples"] = w.minSamples
		rep.info["latency_clock"] = "caller thread CPU time"
		ww := summarizeWindows(ph.wallLat, ph.done, ph.start, ph.end)
		rep.info["wall_latency_p50_ms"] = ww.p50
		rep.info["wall_latency_p99_ms"] = ww.p99
		rep.e2e["setup_s"] = median(setups)
		rep.e2e["qps"] = w.qps
		rep.e2e["latency_p50_ms"] = w.p50
		rep.e2e["latency_p99_ms"] = w.p99
		rep.e2e["bytes_per_query"] = bytes / n
		rep.e2e["recall"] = mean(ph.recall)
		rep.e2e["rss_peak_mb"] = peakRSSMB()
		return rep, nil
	}

	half := cfg.duration() / 2
	a := takeSnap()
	base := m.loop(half, ref, nil, rep)
	b := takeSnap()
	procLayer(a, b, float64(len(base.lat)), rep.layers)
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	spans := &acSpans{}
	traced := m.loop(half, ref, spans, rep)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	rep.tally = base.t
	rep.tally.add(traced.t)

	l := rep.layers
	l.setShares(shares)
	l["proc.trace_overhead_share"] = 1 - per(rate(len(traced.lat), traced.start, traced.end), rate(len(base.lat), base.start, base.end))
	l["failed_share"] = rep.tally.failedShare()
	l.setP("core.originate_ms_p50", spans.originate, 0.50)
	l.setP("core.process_ms_p50", spans.process, 0.50)
	l.setP("core.process_ms_p99", spans.process, 0.99)
	l.setP("core.merge_ms_p50", spans.merge, 0.50)
	var remote, dup, replaced, pruned, evals, skipped float64
	var st localsky.Stats
	for _, o := range ref {
		remote += float64(o.remote)
		dup += float64(o.dup)
		replaced += float64(o.replaced)
		pruned += float64(o.pruned)
		evals += float64(o.evals)
		skipped += float64(o.skipped)
		st.Add(o.stats)
	}
	l["core.remote_evals_per_query"] = remote / n
	l["core.suppressed_per_query"] = dup / n
	l["core.filter_replacements_per_query"] = replaced / n
	l["core.tuples_pruned_per_query"] = pruned / n
	l["core.drr"] = drrAcc.DRR()
	l["localsky.scanned_per_eval"] = float64(st.Scanned) / evals
	l["localsky.id_cmp_per_eval"] = float64(st.IDCmp) / evals
	l["localsky.val_cmp_per_eval"] = float64(st.ValCmp) / evals
	l["localsky.dist_checks_per_eval"] = float64(st.DistChecks) / evals
	l["localsky.skip_share"] = skipped / evals
	return rep, nil
}
