package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gateway"
	"manetskyline/internal/gen"
	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/trace"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// live-mesh: a loopback TCP grid of 4×4 tcp.Peers over 32k independent
// 2-D tuples, d = 250, each peer behind its own gateway.Server with the
// product defaults (no cache, no rate limit). Two callers each own 8
// devices and cycle through them, dialling one connection per request to
// that device's front door at that device's position. It is the only
// workload that exercises gateway, wire and tcp, and it runs the BF flood
// and core.Device.Process of the other two concurrently on small
// relations.
//
// The callers keep the paper's §3.4 assumption strictly: a device has one
// query in flight, and a query stays in flight until its flood has died
// out. They run in lockstep rounds, one request each, and after every
// round wait until the mesh has received every frame the two floods send
// on a fault-free grid. The query log remembers only the last counter per
// originator, so a device whose next query overlaps the tail of its
// previous flood sets off a storm that never dies (the open query-log
// defect). With free-running callers and only a gap of seven requests
// between a device's queries, as first planned, that storm tripped about
// one 3-second run in four on a 2-CPU host.

const (
	meshGrid   = 4
	meshTuples = 32000
	meshDist   = 250
	meshSpace  = 1000
	// reqTimeout bounds one client request; the peer's own query timeout
	// is 3 s (tcp.DefaultConfig) and the gateway's deadline 2 s.
	reqTimeout  = 5 * time.Second
	meshCallers = 2
	// drainTimeout bounds the wait for one round's last flood frame.
	drainTimeout = time.Second
	// tracedQueryCap bounds the traced phase: telemetry.SpanLog keeps every
	// span, and the 1-byte query counter must not wrap within it (≤ 255
	// queries per device).
	tracedQueryCap = 1600
)

type mesh struct {
	peers []*tcp.Peer
	gws   []*gateway.Gateway
	srvs  []*gateway.Server
	pos   []tuple.Point
	data  []tuple.Tuple
	truth [][]tuple.Tuple
	reg   *telemetry.Registry
	// Traced meshes only: each peer's span log, and the duration of each
	// device's latest backend call in nanoseconds.
	spans     []*telemetry.SpanLog
	backendNs []atomic.Int64
	// flood[i] is how many frames one query from device i puts on the
	// mesh: its n−1 results plus one flood frame per directed link, less
	// the links into the originator, which never carry its own query.
	flood []int64
	sent  int64 // requests sent to the front doors
	want  int64 // frames the mesh must have received once every flood ended
}

func meshSetup(seed int64, traced bool) (*mesh, error) {
	cfg := gen.DefaultConfig(meshTuples, 2, gen.Independent, seed)
	cfg.Space = meshSpace
	data := gen.Generate(cfg)
	parts := gen.GridPartition(data, meshGrid, meshSpace)
	m := &mesh{data: data, reg: telemetry.NewRegistry()}
	m.backendNs = make([]atomic.Int64, len(parts))
	dir := tcp.NewDirectory()
	for i, part := range parts {
		pos := gen.CellRect(i/meshGrid, i%meshGrid, meshGrid, meshSpace).Center()
		pc := tcp.DefaultConfig()
		pc.Registry = m.reg
		if traced {
			sl := telemetry.NewSpanLog()
			pc.Spans = sl
			m.spans = append(m.spans, sl)
		}
		p, err := tcp.NewPeer(core.DeviceID(i), part, cfg.Schema(), core.Under, true, pos, dir, pc)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("live-mesh: peer %d: %w", i, err)
		}
		m.peers = append(m.peers, p)
		m.pos = append(m.pos, pos)
		backend := gateway.PeerBackend(p, nil, len(parts))
		if traced {
			inner, slot := backend, &m.backendNs[i]
			backend = func(req gateway.Request) (tcp.QueryResult, error) {
				t0 := time.Now()
				res, err := inner(req)
				slot.Store(int64(time.Since(t0)))
				return res, err
			}
		}
		g, err := gateway.New(backend, gateway.Config{})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("live-mesh: gateway %d: %w", i, err)
		}
		m.gws = append(m.gws, g)
		s, err := gateway.NewServer(g, gateway.ServerConfig{ID: core.DeviceID(i)})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("live-mesh: front door %d: %w", i, err)
		}
		m.srvs = append(m.srvs, s)
	}
	deg := make([]int64, len(parts))
	var links int64
	link := func(a, b int) {
		m.peers[a].AddNeighbor(m.peers[b].ID())
		m.peers[b].AddNeighbor(m.peers[a].ID())
		deg[a]++
		deg[b]++
		links += 2
	}
	for r := 0; r < meshGrid; r++ {
		for c := 0; c < meshGrid; c++ {
			i := r*meshGrid + c
			if c < meshGrid-1 {
				link(i, i+1)
			}
			if r < meshGrid-1 {
				link(i, i+meshGrid)
			}
		}
	}
	for i := range parts {
		m.flood = append(m.flood, int64(len(parts)-1)+links-deg[i])
	}
	return m, nil
}

// close stops front doors, then gateways, then peers, waiting for each.
func (m *mesh) close() {
	for _, s := range m.srvs {
		s.Close()
	}
	for _, g := range m.gws {
		g.Close()
	}
	for _, p := range m.peers {
		p.Close()
	}
}

func (m *mesh) oracle() {
	for _, pos := range m.pos {
		m.truth = append(m.truth, constrained(m.data, pos, meshDist))
	}
	m.data = nil
}

func (m *mesh) counter(name string) int64 { return m.reg.Counter(name, "").Value() }

var errRejected = errors.New("rejected")

// request sends one query to device dev's front door on a fresh
// connection and returns the answer and the time from dial to result.
// The caller accounts for it in m.sent and m.want before sending.
func (m *mesh) request(dev int, client core.DeviceID, cnt uint8) ([]tuple.Tuple, time.Duration, error) {
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", m.srvs[dev].Addr(), reqTimeout)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(t0.Add(reqTimeout)); err != nil {
		return nil, 0, err
	}
	q := core.Query{Org: client, Cnt: cnt, Pos: m.pos[dev], D: meshDist}
	if err := wire.WriteFrame(conn, wire.EncodeQuery(q)); err != nil {
		return nil, 0, err
	}
	msg, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, 0, err
	}
	lat := time.Since(t0)
	switch kind, _ := wire.Peek(msg); kind {
	case wire.KindResult:
		r, err := wire.DecodeResult(msg)
		return r.Tuples, lat, err
	case wire.KindReject:
		return nil, lat, errRejected
	}
	return nil, lat, fmt.Errorf("unexpected frame kind")
}

// meshPhase is one closed-loop measurement.
type meshPhase struct {
	start, end time.Time
	lat        []float64 // client ms, dial to result frame
	gwSelf     []float64 // traced: client ms minus backend ms
	backend    []float64 // traced: backend ms
	done       []time.Time
	recall     []float64
	t          tally
}

// drain waits until the mesh has received every frame of every query sent
// so far. More frames than that is the query-log storm; fewer after
// drainTimeout is a lost frame. Either fails the run, and drain reports
// false so the caller stops.
func (m *mesh) drain(rep *report) bool {
	in := m.reg.Counter("tcp_messages_in_total", "")
	limit := time.Now().Add(drainTimeout)
	for {
		got := in.Value()
		switch {
		case got > m.want:
			rep.problem("live-mesh: %d frames received for floods that send %d: duplicate query processing", got, m.want)
			return false
		case got == m.want:
			return true
		case time.Now().After(limit):
			rep.problem("live-mesh: only %d of %d flood frames arrived within %v", got, m.want, drainTimeout)
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// reply is one request's outcome.
type reply struct {
	dev     int
	sky     []tuple.Tuple
	lat     time.Duration
	backend time.Duration
	err     error
}

// loop runs lockstep rounds until d elapses or, when limit > 0, limit
// requests have been sent. Round r sends caller c's request to device
// meshCallers·r + c (mod n), so each caller cycles through its own 8
// devices.
func (m *mesh) loop(d time.Duration, limit int, rep *report) meshPhase {
	ph := meshPhase{start: time.Now()}
	deadline := ph.start.Add(d)
	var replies [meshCallers]reply
	for r := 0; time.Now().Before(deadline) && (limit <= 0 || r*meshCallers < limit); r++ {
		var wg sync.WaitGroup
		for c := range replies {
			dev := (r*meshCallers + c) % len(m.peers)
			m.sent++
			m.want += m.flood[dev]
			wg.Add(1)
			go func(c, dev int) {
				defer wg.Done()
				sky, lat, err := m.request(dev, core.DeviceID(100+c), uint8(r))
				replies[c] = reply{dev: dev, sky: sky, lat: lat, err: err,
					backend: time.Duration(m.backendNs[dev].Load())}
			}(c, dev)
		}
		wg.Wait()
		now := time.Now()
		for _, rp := range replies {
			ph.record(m, rp, now, rep)
		}
		if !m.drain(rep) {
			break
		}
	}
	ph.end = time.Now()
	return ph
}

// record classifies one reply and checks its answer against the oracle.
func (ph *meshPhase) record(m *mesh, rp reply, now time.Time, rep *report) {
	ph.t.attempted++
	var ne net.Error
	switch {
	case errors.Is(rp.err, errRejected):
		ph.t.rejected++
		return
	case errors.As(rp.err, &ne) && ne.Timeout():
		ph.t.timedOut++
		return
	case rp.err != nil:
		ph.t.incomplete++
		return
	}
	ph.lat = append(ph.lat, ms(rp.lat))
	ph.done = append(ph.done, now)
	if m.spans != nil {
		ph.backend = append(ph.backend, ms(rp.backend))
		ph.gwSelf = append(ph.gwSelf, ms(rp.lat-rp.backend))
	}
	recall, exact := score(rp.sky, m.truth[rp.dev])
	ph.recall = append(ph.recall, recall)
	if !exact {
		ph.t.wrong++
		rep.problem("live-mesh: device %d answered %d tuples with recall %.3f against an oracle of %d", rp.dev, len(rp.sky), recall, len(m.truth[rp.dev]))
	}
}

// quiesce checks, once the last flood has drained, the amplification and
// quiescence invariants: every originated query was evaluated exactly
// once by each of the other n−1 peers, every request that reached a front
// door originated exactly one query, and no frame arrives in the next half
// second.
func (m *mesh) quiesce(rep *report) {
	in := m.reg.Counter("tcp_messages_in_total", "")
	before := in.Value()
	time.Sleep(500 * time.Millisecond)
	if late := in.Value() - before; late != 0 {
		rep.problem("live-mesh: %d frames arrived after the last flood had drained", late)
	}
	orig := m.counter("core_queries_originated_total")
	proc := m.counter("core_queries_processed_total")
	n := int64(len(m.peers))
	if proc != (n-1)*orig {
		rep.problem("live-mesh: amplification breach: %d remote evaluations for %d queries, want %d", proc, orig, (n-1)*orig)
	}
	if orig != m.sent {
		rep.problem("live-mesh: %d requests reached the front doors but %d queries originated", m.sent, orig)
	}
}

// warm sends one request per device so every link is dialled before
// timing starts.
func (m *mesh) warm(rep *report) {
	for dev := range m.peers {
		m.sent++
		m.want += m.flood[dev]
		sky, _, err := m.request(dev, 99, uint8(dev))
		if err != nil {
			rep.problem("live-mesh: warm-up request to device %d failed: %v", dev, err)
			continue
		}
		if _, exact := score(sky, m.truth[dev]); !exact {
			rep.problem("live-mesh: warm-up answer from device %d is wrong", dev)
		}
		m.drain(rep)
	}
}

// measured runs one warm, timed, quiesced phase on m and returns it with
// the registry counter deltas over it.
func (m *mesh) measured(d time.Duration, limit int, rep *report) (meshPhase, func(string) float64) {
	m.warm(rep)
	runtime.GC()
	before := map[string]int64{}
	names := []string{"tcp_bytes_out_total", "tcp_messages_out_total", "tcp_send_retries_total",
		"tcp_dead_letters_total", "tcp_dup_results_total", "core_queries_originated_total",
		"core_queries_processed_total", "core_queries_suppressed_total", "core_filter_replacements_total"}
	pruned := m.reg.CounterL("core_tuples_pruned_total", `mode="`+core.Under.String()+`"`, "")
	for _, n := range names {
		before[n] = m.counter(n)
	}
	before["pruned"] = pruned.Value()
	ph := m.loop(d, limit, rep)
	m.quiesce(rep)
	delta := func(name string) float64 {
		if name == "pruned" {
			return float64(pruned.Value() - before[name])
		}
		return float64(m.counter(name) - before[name])
	}
	return ph, delta
}

func runLiveMesh(cfg runConfig) (*report, error) {
	rep := newReport()
	rep.info["loop"] = "closed"
	rep.info["callers"] = meshCallers
	rep.info["rounds"] = "lockstep, flood drained between rounds"
	rep.info["transport"] = "loopback"

	if !cfg.trace {
		var m *mesh
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			if m != nil {
				m.close()
				m = nil
			}
			runtime.GC()
			t0 := time.Now()
			var err error
			if m, err = meshSetup(cfg.seed, false); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		defer m.close()
		m.oracle()
		ph, delta := m.measured(cfg.duration(), 0, rep)
		rep.tally = ph.t
		w := summarizeWindows(ph.lat, ph.done, ph.start, ph.end)
		rep.info["latency_samples"] = len(ph.lat)
		rep.info["latency_window_min_samples"] = w.minSamples
		rep.e2e["setup_s"] = median(setups)
		rep.e2e["qps"] = w.qps
		rep.e2e["latency_p50_ms"] = w.p50
		rep.e2e["latency_p99_ms"] = w.p99
		rep.e2e["bytes_per_query"] = per(delta("tcp_bytes_out_total"), delta("core_queries_originated_total"))
		rep.e2e["recall"] = mean(ph.recall)
		rep.e2e["rss_peak_mb"] = peakRSSMB()
		return rep, nil
	}

	half := cfg.duration() / 2
	m, err := meshSetup(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	m.oracle()
	a := takeSnap()
	base, _ := m.measured(half, 0, rep)
	b := takeSnap()
	m.close()
	procLayer(a, b, float64(len(base.lat)), rep.layers)

	tm, err := meshSetup(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	defer tm.close()
	tm.oracle()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, delta := tm.measured(half, tracedQueryCap, rep)
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
	q := delta("core_queries_originated_total")
	l.setP("gateway.self_ms_p50", traced.gwSelf, 0.50)
	l.setP("tcp.query_ms_p50", traced.backend, 0.50)
	l.setP("tcp.query_ms_p99", traced.backend, 0.99)
	l["tcp.frames_per_query"] = per(delta("tcp_messages_out_total"), q)
	l["tcp.retries_per_query"] = per(delta("tcp_send_retries_total"), q)
	l["tcp.dead_letters"] = delta("tcp_dead_letters_total")
	l["tcp.dup_results_per_query"] = per(delta("tcp_dup_results_total"), q)
	l["core.remote_evals_per_query"] = per(delta("core_queries_processed_total"), q)
	l["core.suppressed_per_query"] = per(delta("core_queries_suppressed_total"), q)
	l["core.filter_replacements_per_query"] = per(delta("core_filter_replacements_total"), q)
	l["core.tuples_pruned_per_query"] = per(delta("pruned"), q)

	var spans []*telemetry.Span
	for _, sl := range tm.spans {
		spans = append(spans, sl.Spans()...)
	}
	queueWrite, hop, handle := transportStages(trace.Merge(spans))
	l.setP("tcp.queue_write_us_p50", queueWrite, 0.50)
	l.setP("tcp.hop_us_p50", hop, 0.50)
	l.setP("tcp.handle_us_p50", handle, 0.50)
	return rep, nil
}

// transportStages extracts, in microseconds, each frame's wait from
// enqueue to write on its sender, each hop's write-to-decode latency, and
// each query frame's handling time (handle to reply) on its receiver.
func transportStages(tls []*trace.Timeline) (queueWrite, hop, handle []float64) {
	type link struct{ from, to int32 }
	for _, tl := range tls {
		enq := map[link][]float64{}
		wr := map[link][]float64{}
		handled := map[int32]float64{}
		for _, st := range tl.Stages {
			switch st.Kind {
			case telemetry.StageEnqueue:
				enq[link{st.Device, st.Peer}] = append(enq[link{st.Device, st.Peer}], st.T)
			case telemetry.StageWrite:
				wr[link{st.Device, st.Peer}] = append(wr[link{st.Device, st.Peer}], st.T)
			case telemetry.StageHandle:
				handled[st.Device] = st.T
			case telemetry.StageReply:
				if t, ok := handled[st.Device]; ok {
					handle = append(handle, (st.T-t)*1e6)
				}
			}
		}
		// One writer per link sends its queue in order: the k-th enqueue
		// is the k-th write.
		for l, es := range enq {
			ws := wr[l]
			for k := 0; k < len(es) && k < len(ws); k++ {
				queueWrite = append(queueWrite, (ws[k]-es[k])*1e6)
			}
		}
		for _, h := range tl.Hops {
			if !h.Lost {
				hop = append(hop, h.Latency*1e6)
			}
		}
	}
	return queueWrite, hop, handle
}
