// Command skypeer deploys the distributed skyline protocol across real
// processes: a directory server for bootstrap, then one peer process per
// device, each serving its local relation over TCP with the binary wire
// format. A peer can also issue a query and print the assembled skyline.
//
// A three-terminal session:
//
//	skypeer -dirserver :7940
//	skypeer -join 127.0.0.1:7940 -id 0 -data dev-00.csv -x 250 -y 250 -neighbors 1
//	skypeer -join 127.0.0.1:7940 -id 1 -data dev-01.csv -x 750 -y 250 -neighbors 0 \
//	        -query 400 -peers 2
//
// Data files are CSV (skygen) or the binary dataset format (skygen
// -format bin), selected by extension.
//
// With -lease TTL a peer registers under a directory lease it keeps alive
// by heartbeat; if the process crashes, the lease decays and the other
// peers prune it from their flood fan-out instead of black-holing frames.
//
// With -gateway ADDR a peer additionally serves the overload-hardened
// query front door (internal/gateway): clients send query frames to that
// address and get results or explicit reject frames back, under
// single-flight coalescing (-gwrate, -gwburst, -gwqueue for admission
// control; -gwmaxspeed/-gwslack/-gwcachettl for the movement-aware result
// cache; -breaker/-breakercooldown for per-neighbor circuit breakers on
// the transport). Drive it with cmd/skyload.
//
// Any mode accepts -http ADDR to serve live telemetry: /metrics
// (Prometheus text), /metrics.json (snapshot), and /debug/pprof. With
// -trace the peer additionally records per-hop transport spans, served at
// /trace.jsonl — collect every peer's dump with cmd/skytrace to get merged
// causal timelines. -flight N keeps a lock-free ring of the last N fault
// events (dead-letters, decode/dial failures, reconnects) at /flight.jsonl.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"manetskyline/internal/core"
	"manetskyline/internal/gateway"
	"manetskyline/internal/gen"
	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "skypeer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dirserver = flag.String("dirserver", "", "run a directory server on this address and block")
		join      = flag.String("join", "", "directory server address to join as a peer")
		id        = flag.Int("id", 0, "this peer's device id")
		dataPath  = flag.String("data", "", "local relation file (.csv or .bin)")
		x         = flag.Float64("x", 500, "this peer's x position")
		y         = flag.Float64("y", 500, "this peer's y position")
		neighbors = flag.String("neighbors", "", "comma-separated neighbor device ids")
		dim       = flag.Int("dim", 2, "attributes (for the schema when data is empty)")
		attrMax   = flag.Float64("attrmax", 1000, "global attribute upper bound")
		mode      = flag.String("mode", "UNE", "VDR estimation: EXT|OVE|UNE")
		filters   = flag.Int("filters", 1, "filtering tuples per query")
		query     = flag.Float64("query", 0, "issue one query with this distance of interest, print the skyline, and exit")
		peers     = flag.Int("peers", 0, "network size for the query quorum (default: directory size)")
		lease     = flag.Duration("lease", 0, "register with a directory lease of this TTL, kept alive by heartbeat (0 = permanent)")
		httpAddr  = flag.String("http", "", "serve /metrics, /metrics.json, /trace.jsonl, /flight.jsonl, and /debug/pprof on this address")
		traceOn   = flag.Bool("trace", false, "record per-hop transport spans, served at /trace.jsonl (needs -http)")
		flightN   = flag.Int("flight", 0, "keep a flight recorder of the last N fault events, served at /flight.jsonl (needs -http)")

		gwAddr     = flag.String("gateway", "", "serve a query front door on this address: single-flight coalescing, movement-aware cache, admission control")
		gwRate     = flag.Float64("gwrate", 0, "gateway: sustained admitted queries/sec (0 = unlimited)")
		gwBurst    = flag.Int("gwburst", 0, "gateway: token-bucket burst (0 = ceil(rate))")
		gwQueue    = flag.Int("gwqueue", 0, "gateway: bounded admission queue depth (0 = 64)")
		gwTTL      = flag.Duration("gwcachettl", 0, "gateway: cap on the result cache TTL (0 = movement bound only)")
		gwSpeed    = flag.Float64("gwmaxspeed", 0, "gateway: scenario speed bound (units/sec) deriving the movement-aware cache TTL")
		gwSlack    = flag.Float64("gwslack", 0, "gateway: movement (distance units) a cached skyline may absorb before expiring")
		gwDeadline = flag.Duration("gwdeadline", 0, "gateway: per-request deadline including queueing (0 = 2s)")
		gwSF       = flag.Bool("gwsf", false, "gateway: run admitted queries under the SF strategy instead of the BF flood")

		breakerN  = flag.Int("breaker", 0, "open a per-neighbor circuit breaker after N consecutive dial failures (0 = off)")
		breakerCD = flag.Duration("breakercooldown", 0, "circuit breaker cooldown before the half-open probe (0 = 2s)")
	)
	flag.Parse()

	var (
		reg    *telemetry.Registry
		spans  *telemetry.SpanLog
		flight *telemetry.FlightRecorder
	)
	if *httpAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		if *traceOn {
			spans = telemetry.NewSpanLog()
		}
		if *flightN > 0 {
			flight = telemetry.NewFlightRecorder(*flightN)
		}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, telemetry.NewObsMux(reg, spans, flight)) }()
		fmt.Printf("telemetry on http://%s/metrics\n", ln.Addr())
	}

	if *dirserver != "" {
		srv, err := tcp.NewDirectoryServer(*dirserver)
		if err != nil {
			return err
		}
		defer srv.Close()
		srv.SetRegistry(reg)
		fmt.Printf("directory server on %s\n", srv.Addr())
		waitForSignal()
		return nil
	}

	if *join == "" {
		return fmt.Errorf("need -dirserver or -join (see -help)")
	}

	var data []tuple.Tuple
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(*dataPath, ".bin") {
			data, err = gen.ReadBin(f)
		} else {
			data, err = gen.ReadCSV(f)
		}
		if err != nil {
			return err
		}
		if len(data) > 0 {
			*dim = data[0].Dim()
		}
	}
	schema := tuple.NewSchema(*dim, 0, *attrMax)

	var est core.Estimation
	switch *mode {
	case "EXT":
		est = core.Exact
	case "OVE":
		est = core.Over
	case "UNE":
		est = core.Under
	default:
		return fmt.Errorf("unknown estimation mode %q", *mode)
	}

	client := tcp.NewDirectoryClient(*join)
	cfg := tcp.DefaultConfig()
	cfg.Registry = reg
	cfg.Spans = spans
	cfg.Flight = flight
	cfg.LeaseTTL = *lease
	cfg.BreakerThreshold = *breakerN
	cfg.BreakerCooldown = *breakerCD
	peer, err := tcp.NewPeer(core.DeviceID(*id), data, schema, est, true,
		tuple.Point{X: *x, Y: *y}, client, cfg)
	if err != nil {
		return err
	}
	defer peer.Close()
	peer.SetNumFilters(*filters)

	for _, part := range strings.Split(*neighbors, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nb, err := strconv.Atoi(part)
		if err != nil {
			return fmt.Errorf("bad neighbor id %q", part)
		}
		peer.AddNeighbor(core.DeviceID(nb))
	}

	fmt.Printf("peer %d on %s with %d tuples at (%.0f,%.0f)\n",
		*id, peer.Addr(), len(data), *x, *y)

	if *gwAddr != "" {
		// Gateway mode: this peer becomes the fleet's query front door.
		// Quorum size tracks the live directory so crashed peers fall out
		// of the wait; -peers freezes it instead.
		peersFn := func() int {
			if *peers > 0 {
				return *peers
			}
			if all, err := client.List(); err == nil {
				return len(all)
			}
			return 0
		}
		g, err := gateway.New(gateway.PeerBackend(peer, peersFn, 1), gateway.Config{
			Rate:            *gwRate,
			Burst:           *gwBurst,
			QueueDepth:      *gwQueue,
			DefaultDeadline: *gwDeadline,
			CacheTTL:        *gwTTL,
			MaxSpeed:        *gwSpeed,
			MovementSlack:   *gwSlack,
			Registry:        reg,
		})
		if err != nil {
			return err
		}
		defer g.Close()
		strategy := gateway.BF
		if *gwSF {
			strategy = gateway.SF
		}
		srv, err := gateway.NewServer(g, gateway.ServerConfig{
			Addr: *gwAddr, ID: core.DeviceID(*id), Strategy: strategy, ReqTimeout: *gwDeadline,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("gateway front door on %s (rate %g qps, cache ttl %v)\n",
			srv.Addr(), *gwRate, g.CacheTTL())
		fmt.Println("serving; ctrl-c to stop")
		waitForSignal()
		return nil
	}

	if *query <= 0 {
		fmt.Println("serving; ctrl-c to stop")
		waitForSignal()
		return nil
	}

	total := *peers
	if total <= 0 {
		all, err := client.List()
		if err != nil {
			return err
		}
		total = len(all)
	}
	res, err := peer.Query(peer.Pos(), *query, total)
	if err != nil {
		return err
	}
	fmt.Printf("query d=%g: %d peers answered in %v (complete=%v)\n",
		*query, res.Results, res.Elapsed.Round(1e6), res.Complete)
	for _, t := range res.Skyline {
		fmt.Printf("  (%8.2f, %8.2f) %v\n", t.X, t.Y, t.Attrs)
	}
	return nil
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
