package main

import (
	"fmt"
	"runtime"
	"time"

	"manetskyline/internal/manet"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// sim-bf: the paper's largest simulated network (§5.2, Tables 6-7): 10×10
// devices, 100k independent 2-D tuples, d = 250, breadth-first forwarding,
// the default radio/mobility/AODV substrates and 1-5 queries per device
// over two simulated hours. manet.Run is sequential, so the simulator
// stack (sim, radio, aodv, mobility) does nearly all of the work.

// simScenarioSeconds is about how long one scenario takes on a 2-CPU host;
// a run measures round(seconds / simScenarioSeconds) scenarios, at least
// one. The count depends only on --seconds, never on host speed, so every
// deterministic metric of a seed is the same on a faster commit.
const simScenarioSeconds = 10

func simParams(seed int64) manet.Params {
	p := manet.DefaultParams()
	p.Grid = 10
	p.GlobalN = 100000
	p.QueryDist = 250
	p.Strategy = manet.BreadthFirst
	p.KeepSkylines = true
	p.Seed = seed
	return p
}

// simScenarioSeed derives scenario i's seed from the workload seed.
func simScenarioSeed(seed int64, i int) int64 { return seed*64 + int64(i) }

// simSetup times manet.Run's build phase alone: a scenario that issues no
// queries generates the data, builds every device's hybrid storage, and
// wires radio, AODV and mobility, then executes no events.
func simSetup(seed int64) time.Duration {
	p := simParams(simScenarioSeed(seed, 0))
	p.MinQueries, p.MaxQueries = 0, 0
	t0 := time.Now()
	manet.Run(p)
	return time.Since(t0)
}

// simRun is one timed scenario and its scoring.
type simRun struct {
	out     *manet.Outcome
	elapsed time.Duration
	recall  []float64 // per query, against the benchmark's oracle
}

// runSimScenario runs one scenario from a collected heap, timing
// manet.Run alone.
func runSimScenario(p manet.Params) simRun {
	runtime.GC()
	t0 := time.Now()
	out := manet.Run(p)
	return simRun{out: out, elapsed: time.Since(t0)}
}

// rate scores every query against the centralized oracle, outside the
// timed region. The oracle has Params.Recall's semantics — the
// constrained skyline of the union of all device relations, matched by
// site and attributes — but Params.Recall computes it inside manet.Run,
// where it would be timed.
func (r *simRun) rate() {
	var union []tuple.Tuple
	for _, part := range r.out.DeviceTuples {
		union = append(union, part...)
	}
	for _, q := range r.out.Queries {
		recall, _ := score(q.Skyline, constrained(union, q.Pos, q.D))
		r.recall = append(r.recall, recall)
	}
}

// digestSim folds the scenario's deterministic outputs into d: event and
// substrate counters, and per query its completion, response time,
// messages, Formula 1 sums, result size and recall.
func digestSim(d *digest, r simRun) {
	o := r.out
	d.ints(int64(o.Events), int64(o.SkippedIssues))
	rc, ac := o.Radio, o.Aodv
	d.ints(int64(rc.FramesSent), int64(rc.Receptions), int64(rc.DroppedRange), int64(rc.DroppedLoss),
		int64(rc.DroppedFault), int64(rc.DroppedQueue), int64(rc.DupedFrames), int64(rc.BytesSent))
	d.ints(int64(ac.RREQSent), int64(ac.RREPSent), int64(ac.RERRSent),
		int64(ac.DataForwarded), int64(ac.DataDelivered), int64(ac.DataDropped))
	for i, q := range o.Queries {
		done := int64(0)
		if q.Done {
			done = 1
		}
		d.ints(int64(q.Org), int64(q.Key.Cnt), done, int64(q.Messages), int64(q.Results), int64(q.ResultTuples),
			int64(q.Acc.Reduced), int64(q.Acc.Unreduced), int64(q.Acc.Devices), int64(q.Acc.Filters))
		d.floats(q.Issued, q.ResponseTime, r.recall[i])
	}
}

// simSummary is what the end-to-end metrics need from one scenario, kept
// so the outcome itself can be dropped before the next timed run.
type simSummary struct {
	queries, bytes float64
	elapsed        time.Duration
	resp, recall   []float64
	t              tally
}

func summarize(r simRun) simSummary {
	s := simSummary{queries: float64(len(r.out.Queries)), bytes: float64(r.out.Radio.BytesSent),
		elapsed: r.elapsed, recall: r.recall, t: simTally(r)}
	for _, q := range r.out.Queries {
		if q.Done {
			s.resp = append(s.resp, q.ResponseTime*1000)
		}
	}
	return s
}

// simTally counts incomplete queries as failed; recall is a metric, not a
// pass/fail check, because BF completes at an 80 % quorum.
func simTally(r simRun) tally {
	var t tally
	for _, q := range r.out.Queries {
		t.attempted++
		if !q.Done || q.Partial {
			t.incomplete++
		}
	}
	return t
}

func runSimBF(cfg runConfig) (*report, error) {
	rep := newReport()
	rep.info["loop"] = "sequential discrete-event simulation"
	rep.info["callers"] = 1
	rep.info["transport"] = "simulated radio"

	if cfg.trace {
		return simTraced(cfg, rep)
	}
	k := int(cfg.seconds/simScenarioSeconds + 0.5)
	if k < 1 {
		k = 1
	}
	rep.info["scenarios"] = k
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		setups = append(setups, simSetup(cfg.seed).Seconds())
	}

	dg := newDigest()
	var all simSummary
	for i := 0; i < k; i++ {
		r := runSimScenario(simParams(simScenarioSeed(cfg.seed, i)))
		r.rate()
		digestSim(dg, r)
		s := summarize(r)
		all.queries += s.queries
		all.bytes += s.bytes
		all.elapsed += s.elapsed
		all.resp = append(all.resp, s.resp...)
		all.recall = append(all.recall, s.recall...)
		all.t.add(s.t)
	}
	if all.queries == 0 {
		return nil, fmt.Errorf("sim-bf: scenarios issued no queries")
	}
	rep.info["digest"] = dg.sum()
	rep.tally = all.t
	p50, n := percentile(all.resp, 0.50)
	p99, _ := percentile(all.resp, 0.99)
	rep.info["latency_samples"] = n
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["qps"] = all.queries / all.elapsed.Seconds()
	rep.e2e["latency_p50_ms"] = p50
	rep.e2e["latency_p99_ms"] = p99
	rep.e2e["bytes_per_query"] = all.bytes / all.queries
	rep.e2e["recall"] = mean(all.recall)
	rep.e2e["rss_peak_mb"] = peakRSSMB()
	return rep, nil
}

// simTraced runs scenario 0 untraced, as the baseline, then again with the
// telemetry registry attached and the CPU profiler on. Instrumentation
// never changes a simulation, so both runs should digest identically; a
// difference is reported as nondeterminism.
func simTraced(cfg runConfig, rep *report) (*report, error) {
	rep.info["scenarios"] = 1
	p := simParams(simScenarioSeed(cfg.seed, 0))
	a := takeSnap()
	base := runSimScenario(p)
	b := takeSnap()
	base.rate()
	bd := newDigest()
	digestSim(bd, base)
	rep.info["digest"] = bd.sum()
	rep.tally = simTally(base)
	q := float64(len(base.out.Queries))
	if q == 0 {
		return nil, fmt.Errorf("sim-bf: scenario issued no queries")
	}
	procLayer(a, b, q, rep.layers)
	baseQPS := q / base.elapsed.Seconds()
	baseEvents := float64(base.out.Events)
	base = simRun{}

	reg := telemetry.NewRegistry()
	p.Metrics = reg
	runtime.GC()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced := runSimScenario(p)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	traced.rate()
	td := newDigest()
	digestSim(td, traced)
	if td.sum() != bd.sum() {
		rep.nondeterministic("sim-bf: scenario %d digests %s untraced and %s traced", simScenarioSeed(cfg.seed, 0), bd.sum(), td.sum())
	}

	l := rep.layers
	o := traced.out
	tq := float64(len(o.Queries))
	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	l["proc.trace_overhead_share"] = 1 - per(tq/traced.elapsed.Seconds(), baseQPS)
	l.setShares(shares)
	l["failed_share"] = rep.tally.failedShare()
	l["sim.events_per_query"] = per(float64(o.Events), tq)
	l["sim.events_per_s"] = per(baseEvents, b.wall.Sub(a.wall).Seconds())
	l["radio.frames_per_query"] = per(float64(o.Radio.FramesSent), tq)
	l["radio.neighbor_queries_per_query"] = per(counter("radio_neighbor_queries_total"), tq)
	l["radio.neighbor_scanned_per_query"] = per(counter("radio_neighbor_scanned_total"), tq)
	drops := o.Radio.DroppedRange + o.Radio.DroppedLoss + o.Radio.DroppedFault + o.Radio.DroppedQueue
	l["radio.drops_per_query"] = per(float64(drops), tq)
	l["aodv.rreq_per_query"] = per(float64(o.Aodv.RREQSent), tq)
	l["aodv.control_bytes_per_query"] = per(counter("aodv_control_bytes_sent_total"), tq)
	l["manet.messages_per_query"] = o.MeanMessages()
	if m, ok := o.MeanResponseTime(); ok {
		l["manet.response_s_mean"] = m
	}
	l["core.remote_evals_per_query"] = per(counter("core_queries_processed_total"), tq)
	l["core.suppressed_per_query"] = per(counter("core_queries_suppressed_total"), tq)
	l["core.filter_replacements_per_query"] = per(counter("core_filter_replacements_total"), tq)
	pruned := float64(reg.CounterL("core_tuples_pruned_total", `mode="`+p.Mode.String()+`"`, "").Value())
	l["core.tuples_pruned_per_query"] = per(pruned, tq)
	l["core.drr"] = o.PooledDRR()
	return rep, nil
}
