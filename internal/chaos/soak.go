package chaos

import (
	"fmt"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// SoakConfig describes one live-socket soak: a grid of real tcp.Peers wired
// through a chaos Router, issuing queries on a cadence while the plan plays
// out, each query scored against a liveness-aware centralized oracle.
type SoakConfig struct {
	// Grid is the network side length: Grid×Grid peers, one per cell.
	Grid int
	// Tuples is the total dataset cardinality, grid-partitioned over peers.
	Tuples int
	// Seed drives data generation and the router's extras stream.
	Seed int64
	// Plan is the fault schedule; its outages are enacted for real (the
	// peer's process is closed, its lease decays) and its partitions, loss
	// and chaos windows are applied by the proxies.
	Plan *faults.Plan
	// Horizon is the plan time (seconds) that Wall maps onto.
	Horizon float64
	// Wall is how long queries are issued.
	Wall time.Duration
	// QueryEvery is the issue cadence, rotating over stable originators.
	QueryEvery time.Duration
	// D is the constrained-skyline distance (0 means unconstrained).
	D float64
	// SF issues queries under the sampling-filter strategy (tcp.Peer.QuerySF)
	// instead of the breadth-first flood; the oracle and scoring are
	// identical.
	SF bool
	// Peer configures every peer; LeaseTTL should be set so real crashes
	// decay out of the directory.
	Peer tcp.Config
	// Extras adds socket-level churn on every link.
	Extras Extras
	// Trace gives every peer its own SpanLog recording per-hop transport
	// spans. Logs are per-device and survive crash/respawn, so a restarted
	// peer keeps appending to its device's history; the merged spans come
	// back in SoakResult.Spans, ready for trace.Merge / cmd/skytrace.
	Trace bool
	// Flight, when non-nil, is shared by every peer: dead-letters, decode
	// failures, dial failures and reconnects land in the ring as they
	// happen.
	Flight *telemetry.FlightRecorder
	// FlightDump, when set with Flight, snapshots the recorder to this
	// file the first time a query's recall lands below RecallTrigger —
	// the black-box dump for the failure that tripped the gate.
	FlightDump string
	// RecallTrigger is the dump threshold (0 disables dumping).
	RecallTrigger float64
}

// QueryOutcome scores one soak query.
type QueryOutcome struct {
	Org      int
	Issued   time.Duration // offset from soak start
	Err      error
	Complete bool
	Results  int
	Recall   float64
	Truth    int
}

// SoakResult aggregates a soak run.
type SoakResult struct {
	Peers   int
	Queries []QueryOutcome
	// Spans is every peer's span log merged (only with SoakConfig.Trace).
	Spans []*telemetry.Span
	// FlightDumped reports whether a recall miss snapshotted the recorder.
	FlightDumped bool
}

// MeanRecall averages per-query recall (1 when no queries ran).
func (s *SoakResult) MeanRecall() float64 {
	if len(s.Queries) == 0 {
		return 1
	}
	sum := 0.0
	for _, q := range s.Queries {
		sum += q.Recall
	}
	return sum / float64(len(s.Queries))
}

// Completed counts queries that reached their quorum before timing out.
func (s *SoakResult) Completed() int {
	n := 0
	for _, q := range s.Queries {
		if q.Complete {
			n++
		}
	}
	return n
}

// soakNet guards the mutable fleet state shared between the query loop and
// the outage timers.
type soakNet struct {
	mu    sync.Mutex
	peers []*tcp.Peer
	alive []bool
}

// Soak runs the scenario. The oracle is liveness-aware: each query's ground
// truth is the constrained skyline over the union of the datasets of peers
// alive at issue time — a crashed device's tuples are gone and no protocol
// can recover them, but peers that are merely partitioned stay in the
// truth, so meeting a recall floor still requires the transport to carry
// their results across the heal.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Grid <= 0 || cfg.Plan == nil || cfg.Horizon <= 0 || cfg.Wall <= 0 ||
		cfg.QueryEvery <= 0 {
		return nil, fmt.Errorf("chaos: incomplete soak config %+v", cfg)
	}
	d := cfg.D
	if d == 0 {
		d = core.Unconstrained()
	}
	n := cfg.Grid * cfg.Grid
	gcfg := gen.DefaultConfig(cfg.Tuples, 2, gen.Independent, cfg.Seed)
	data := gen.Generate(gcfg)
	parts := gen.GridPartition(data, cfg.Grid, gcfg.Space)
	positions := make(map[int]tuple.Point, n)
	for i := 0; i < n; i++ {
		positions[i] = gen.CellRect(i/cfg.Grid, i%cfg.Grid, cfg.Grid, gcfg.Space).Center()
	}

	dir := tcp.NewDirectory()
	router := NewRouter(dir, cfg.Plan, Options{
		Scale:     cfg.Horizon / cfg.Wall.Seconds(),
		Positions: positions,
		Seed:      cfg.Seed,
		Extras:    cfg.Extras,
	})
	defer router.Close()

	net := &soakNet{peers: make([]*tcp.Peer, n), alive: make([]bool, n)}
	defer func() {
		net.mu.Lock()
		peers := append([]*tcp.Peer(nil), net.peers...)
		net.mu.Unlock()
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}()

	var spanLogs []*telemetry.SpanLog
	if cfg.Trace {
		spanLogs = make([]*telemetry.SpanLog, n)
		for i := range spanLogs {
			spanLogs[i] = telemetry.NewSpanLog()
		}
	}

	spawn := func(i int) error {
		pcfg := cfg.Peer
		if cfg.Trace {
			pcfg.Spans = spanLogs[i]
		}
		pcfg.Flight = cfg.Flight
		p, err := tcp.NewPeer(core.DeviceID(i), parts[i], gcfg.Schema(), core.Under,
			true, positions[i], router.View(core.DeviceID(i)), pcfg)
		if err != nil {
			return fmt.Errorf("chaos: peer %d: %w", i, err)
		}
		r, c := i/cfg.Grid, i%cfg.Grid
		if r > 0 {
			p.AddNeighbor(core.DeviceID(i - cfg.Grid))
		}
		if r < cfg.Grid-1 {
			p.AddNeighbor(core.DeviceID(i + cfg.Grid))
		}
		if c > 0 {
			p.AddNeighbor(core.DeviceID(i - 1))
		}
		if c < cfg.Grid-1 {
			p.AddNeighbor(core.DeviceID(i + 1))
		}
		net.peers[i] = p
		net.alive[i] = true
		return nil
	}
	for i := 0; i < n; i++ {
		if err := spawn(i); err != nil {
			return nil, err
		}
	}

	// Enact outages for real: close the peer when its window opens (its
	// heartbeats stop and the lease decays honestly) and restart it — new
	// port, same identity and data — when a bounded window closes.
	scale := cfg.Horizon / cfg.Wall.Seconds()
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	unstable := make(map[int]bool)
	for _, o := range cfg.Plan.Outages {
		o := o
		if o.Node < 0 || o.Node >= n {
			continue
		}
		unstable[o.Node] = true
		timers = append(timers, time.AfterFunc(time.Duration(o.Start/scale*float64(time.Second)), func() {
			net.mu.Lock()
			p := net.peers[o.Node]
			net.peers[o.Node] = nil
			net.alive[o.Node] = false
			net.mu.Unlock()
			if p != nil {
				p.Close()
			}
		}))
		if o.End > 0 {
			timers = append(timers, time.AfterFunc(time.Duration(o.End/scale*float64(time.Second)), func() {
				net.mu.Lock()
				defer net.mu.Unlock()
				if net.peers[o.Node] == nil {
					spawn(o.Node)
				}
			}))
		}
	}
	var stable []int
	for i := 0; i < n; i++ {
		if !unstable[i] {
			stable = append(stable, i)
		}
	}
	if len(stable) == 0 {
		return nil, fmt.Errorf("chaos: plan crashes every node; no stable originator")
	}

	res := &SoakResult{Peers: n}
	var (
		resMu  sync.Mutex
		wg     sync.WaitGroup
		dumped bool
	)
	start := time.Now()
	ticker := time.NewTicker(cfg.QueryEvery)
	defer ticker.Stop()
	for turn := 0; ; turn++ {
		<-ticker.C
		issued := time.Since(start)
		if issued >= cfg.Wall {
			break
		}
		net.mu.Lock()
		org := stable[turn%len(stable)]
		p := net.peers[org]
		aliveCount := 0
		var union []tuple.Tuple
		seen := make(map[[2]float64]bool)
		for i := 0; i < n; i++ {
			if !net.alive[i] {
				continue
			}
			aliveCount++
			for _, t := range parts[i] {
				s := [2]float64{t.X, t.Y}
				if !seen[s] {
					seen[s] = true
					union = append(union, t)
				}
			}
		}
		net.mu.Unlock()
		if p == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qr tcp.QueryResult
			var err error
			if cfg.SF {
				qr, err = p.QuerySF(p.Pos(), d, aliveCount)
			} else {
				qr, err = p.Query(p.Pos(), d, aliveCount)
			}
			truth := skyline.Constrained(union, p.Pos(), d)
			out := QueryOutcome{
				Org: org, Issued: issued, Err: err,
				Complete: qr.Complete, Results: qr.Results, Truth: len(truth),
			}
			bysite := make(map[[2]float64]tuple.Tuple, len(truth))
			for _, t := range truth {
				bysite[[2]float64{t.X, t.Y}] = t
			}
			matched := 0
			for _, t := range qr.Skyline {
				if u, ok := bysite[[2]float64{t.X, t.Y}]; ok && u.Equal(t) {
					matched++
				}
			}
			if len(truth) == 0 {
				out.Recall = 1
			} else {
				out.Recall = float64(matched) / float64(len(truth))
			}
			if cfg.Flight != nil && cfg.RecallTrigger > 0 && out.Recall < cfg.RecallTrigger {
				cfg.Flight.Record(telemetry.FlightEvent{
					Kind: "recall_miss", Peer: int32(org),
					Detail: fmt.Sprintf("recall %.3f < %.3f (%d/%d tuples)",
						out.Recall, cfg.RecallTrigger, out.Results, out.Truth),
				})
			}
			resMu.Lock()
			res.Queries = append(res.Queries, out)
			if cfg.Flight != nil && cfg.FlightDump != "" && !dumped &&
				cfg.RecallTrigger > 0 && out.Recall < cfg.RecallTrigger {
				if err := cfg.Flight.DumpFile(cfg.FlightDump); err == nil {
					dumped = true
					res.FlightDumped = true
				}
			}
			resMu.Unlock()
		}()
	}
	wg.Wait()
	for _, l := range spanLogs {
		res.Spans = append(res.Spans, l.Spans()...)
	}
	return res, nil
}
