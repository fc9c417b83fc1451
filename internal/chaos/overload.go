package chaos

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gateway"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// OverloadConfig describes one overload soak: the same live-socket peer
// grid and fault plan as Soak, but fronted by a gateway whose admission
// budget is deliberately smaller than the offered load. An open-loop clock
// drives queries at OfferedQPS — typically 2× the gateway's Rate — while
// crashes and partitions play out underneath.
//
// The contract under test is graceful degradation: the queries the gateway
// ACCEPTS must stay correct (recall against the liveness-aware oracle),
// and every query it does not accept must get an explicit rejection —
// zero unexplained outcomes.
type OverloadConfig struct {
	// Grid, Tuples, Seed, Plan, Horizon, Wall: as in SoakConfig.
	Grid    int
	Tuples  int
	Seed    int64
	Plan    *faults.Plan
	Horizon float64
	Wall    time.Duration
	// OfferedQPS is the open-loop arrival rate into the gateway.
	OfferedQPS float64
	// Regions is how many distinct query regions the clock cycles over
	// (0 ⇒ 2); fewer regions means more coalescing and caching.
	Regions int
	// D is the constrained-skyline distance (0 means unconstrained).
	D float64
	// SF runs queries under the sampling-filter strategy.
	SF bool
	// ReqDeadline bounds each request including admission queueing
	// (0 ⇒ 3s).
	ReqDeadline time.Duration
	// Peer configures every grid peer; Gateway configures the front tier.
	Peer    tcp.Config
	Gateway gateway.Config
}

// OverloadResult classifies every request of an overload soak. Accepted +
// Shedded + BackendErrors + Unexplained always equals Sent: a request with
// no explicit outcome lands in Unexplained, and the soak's gate holds that
// at zero.
type OverloadResult struct {
	Peers         int
	Sent          int
	Accepted      int
	Shedded       int
	ShedByReason  map[string]int
	BackendErrors int
	Unexplained   int
	// Coalesced and Cached count accepted responses served by attaching
	// to an in-flight execution or from the movement-aware cache.
	Coalesced int
	Cached    int
	// MeanRecall and MinRecall score accepted responses against the
	// liveness-aware oracle at each request's issue time.
	MeanRecall float64
	MinRecall  float64
	// P50/P95/P99 are latency quantiles over accepted requests.
	P50, P95, P99 time.Duration
}

// String renders the result as one log-friendly line.
func (r *OverloadResult) String() string {
	return fmt.Sprintf(
		"sent %d: accepted %d (%d coalesced, %d cached), shed %d %v, backend errors %d, unexplained %d, recall mean %.3f min %.3f, p50 %v p95 %v p99 %v",
		r.Sent, r.Accepted, r.Coalesced, r.Cached, r.Shedded, r.ShedByReason,
		r.BackendErrors, r.Unexplained, r.MeanRecall, r.MinRecall, r.P50, r.P95, r.P99)
}

// SoakOverload runs the scenario. The gateway fronts one stable entry peer
// (the first node the plan never crashes); its admission control, not the
// MANET, decides what runs, and the oracle holds the accepted subset to
// the usual recall floor.
func SoakOverload(cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.Grid <= 0 || cfg.Plan == nil || cfg.Horizon <= 0 || cfg.Wall <= 0 ||
		cfg.OfferedQPS <= 0 {
		return nil, fmt.Errorf("chaos: incomplete overload config %+v", cfg)
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 2
	}
	if cfg.ReqDeadline <= 0 {
		cfg.ReqDeadline = 3 * time.Second
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
	spawn := func(i int) error {
		p, err := tcp.NewPeer(core.DeviceID(i), parts[i], gcfg.Schema(), core.Under,
			true, positions[i], router.View(core.DeviceID(i)), cfg.Peer)
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

	// Enact outages for real, exactly as Soak does.
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
	entry := -1
	for i := 0; i < n; i++ {
		if !unstable[i] {
			entry = i
			break
		}
	}
	if entry < 0 {
		return nil, fmt.Errorf("chaos: plan crashes every node; no stable entry peer")
	}

	// The entry peer never crashes; the quorum follows the live fleet.
	net.mu.Lock()
	entryPeer := net.peers[entry]
	net.mu.Unlock()
	alive := func() int {
		net.mu.Lock()
		defer net.mu.Unlock()
		k := 0
		for _, a := range net.alive {
			if a {
				k++
			}
		}
		return k
	}
	backend := gateway.PeerBackend(entryPeer, alive, n)
	g, err := gateway.New(backend, cfg.Gateway)
	if err != nil {
		return nil, err
	}
	defer g.Close()

	// Query regions: distinct gateway cache/coalescing cells spread over
	// the field. Each query runs around its region's position, originated
	// at the entry peer.
	regions := make([]tuple.Point, cfg.Regions)
	for i := range regions {
		regions[i] = tuple.Point{X: float64(i) * 4 * 250, Y: 0}
	}

	res := &OverloadResult{Peers: n, ShedByReason: make(map[string]int), MinRecall: 1}
	var (
		resMu   sync.Mutex
		wg      sync.WaitGroup
		lats    []time.Duration
		recalls []float64
	)
	interval := time.Duration(float64(time.Second) / cfg.OfferedQPS)
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sent := 0
	for now := start; !now.After(start.Add(cfg.Wall)); {
		// Liveness-aware oracle snapshot at issue time.
		net.mu.Lock()
		var union []tuple.Tuple
		seen := make(map[[2]float64]bool)
		for i := 0; i < n; i++ {
			if !net.alive[i] {
				continue
			}
			for _, t := range parts[i] {
				s := [2]float64{t.X, t.Y}
				if !seen[s] {
					seen[s] = true
					union = append(union, t)
				}
			}
		}
		net.mu.Unlock()

		req := gateway.Request{
			Pos:      regions[sent%len(regions)],
			D:        cfg.D,
			Deadline: time.Now().Add(cfg.ReqDeadline),
		}
		if cfg.SF {
			req.Strategy = gateway.SF
		}
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			r, err := g.Do(req)
			lat := time.Since(t0)
			resMu.Lock()
			defer resMu.Unlock()
			switch {
			case err == nil:
				res.Accepted++
				lats = append(lats, lat)
				switch r.Source {
				case gateway.SourceCoalesced:
					res.Coalesced++
				case gateway.SourceCache:
					res.Cached++
				}
				truth := skyline.Constrained(union, req.Pos, d)
				bysite := make(map[[2]float64]tuple.Tuple, len(truth))
				for _, tt := range truth {
					bysite[[2]float64{tt.X, tt.Y}] = tt
				}
				matched := 0
				for _, tt := range r.Skyline {
					if u, ok := bysite[[2]float64{tt.X, tt.Y}]; ok && u.Equal(tt) {
						matched++
					}
				}
				recall := 1.0
				if len(truth) > 0 {
					recall = float64(matched) / float64(len(truth))
				}
				recalls = append(recalls, recall)
				if recall < res.MinRecall {
					res.MinRecall = recall
				}
			case errors.Is(err, gateway.ErrShedded):
				res.Shedded++
				var se *gateway.SheddedError
				if errors.As(err, &se) {
					res.ShedByReason[wire.RejectCodeName(se.Code)]++
				}
			case err != nil && !errors.Is(err, gateway.ErrGatewayClosed):
				res.BackendErrors++
			default:
				res.Unexplained++
			}
		}()
		now = <-ticker.C
	}
	res.Sent = sent
	wg.Wait()

	sum := 0.0
	for _, r := range recalls {
		sum += r
	}
	if len(recalls) > 0 {
		res.MeanRecall = sum / float64(len(recalls))
	} else {
		res.MeanRecall = 1
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	res.P50, res.P95, res.P99 = q(0.50), q(0.95), q(0.99)
	return res, nil
}
