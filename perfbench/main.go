// Command perfbench is the repository's benchmark. It drives one stack of
// the system from outside, through its public entry points, for a fixed
// time, checks every answer against a centralized oracle, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with all
// tracing off; with --trace 1 they are the per-layer ones, from a separate
// traced run. --workload all runs every workload both ways and prints
// their tables. README.md explains the workloads and metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload local-ac --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a per-layer metric
	// should move, or defines an end-to-end metric.
	moves string
}

// endToEnd is every end-to-end metric; each workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of 5 set-ups: data generation, storage build, peers, gateways and links; excludes the oracle"},
	{"qps", "queries/s", "higher", "completed queries per host second (sim-bf: simulated queries)"},
	{"latency_p50_ms", "ms", "lower", "per-query response time; local-ac: caller CPU time, live-mesh: wall time, mean of 250 ms windows' p50; sim-bf: simulated §5.2.3 time"},
	{"latency_p99_ms", "ms", "lower", "as latency_p50_ms, 99th percentile; local-ac, live-mesh: mean of 5 windows' p99"},
	{"bytes_per_query", "B", "lower", "sim-bf: radio bytes incl. AODV; live-mesh: tcp_bytes_out_total; local-ac: wire size of its query and result frames"},
	{"recall", "ratio", "higher", "mean share of the centralized oracle's skyline each answer holds"},
	{"rss_peak_mb", "MB", "lower", "peak resident set of the run's process"},
}

// perLayer is every per-layer metric; a workload that does not measure
// one reports notMeasured for it.
var perLayer = []metricDef{
	{"gateway.self_ms_p50", "ms", "lower", "latency_p50_ms on live-mesh"},
	{"tcp.query_ms_p50", "ms", "lower", "latency_p50_ms on live-mesh"},
	{"tcp.query_ms_p99", "ms", "lower", "latency_p99_ms on live-mesh"},
	{"tcp.frames_per_query", "count", "lower", "bytes_per_query and qps on live-mesh"},
	{"tcp.retries_per_query", "count", "lower", "qps on live-mesh"},
	{"tcp.dead_letters", "count", "lower", "failed queries on live-mesh"},
	{"tcp.dup_results_per_query", "count", "lower", "bytes_per_query and qps on live-mesh"},
	{"tcp.queue_write_us_p50", "us", "lower", "latency_p50_ms on live-mesh"},
	{"tcp.hop_us_p50", "us", "lower", "latency_p50_ms on live-mesh"},
	{"tcp.handle_us_p50", "us", "lower", "latency_p50_ms on live-mesh"},
	{"core.remote_evals_per_query", "count", "lower", "qps on live-mesh and sim-bf; n-1 when fault-free"},
	{"core.suppressed_per_query", "count", "lower", "qps on live-mesh and sim-bf"},
	{"core.originate_ms_p50", "ms", "lower", "latency_p50_ms on local-ac"},
	{"core.process_ms_p50", "ms", "lower", "latency_p50_ms on local-ac"},
	{"core.process_ms_p99", "ms", "lower", "latency_p99_ms on local-ac"},
	{"core.merge_ms_p50", "ms", "lower", "latency_p50_ms on local-ac"},
	{"core.filter_replacements_per_query", "count", "higher", "bytes_per_query on local-ac and sim-bf"},
	{"core.tuples_pruned_per_query", "count", "higher", "bytes_per_query on local-ac and sim-bf"},
	{"core.drr", "ratio", "higher", "bytes_per_query on local-ac and sim-bf (pooled Formula 1)"},
	{"localsky.scanned_per_eval", "count", "lower", "latency_p50_ms on local-ac"},
	{"localsky.id_cmp_per_eval", "count", "lower", "latency_p50_ms on local-ac"},
	{"localsky.val_cmp_per_eval", "count", "lower", "latency_p50_ms on local-ac"},
	{"localsky.dist_checks_per_eval", "count", "lower", "latency_p50_ms on local-ac"},
	{"localsky.skip_share", "ratio", "higher", "latency_p50_ms on local-ac"},
	{"sim.events_per_query", "count", "lower", "qps on sim-bf"},
	{"sim.events_per_s", "1/s", "higher", "qps on sim-bf"},
	{"radio.frames_per_query", "count", "lower", "qps and bytes_per_query on sim-bf"},
	{"radio.neighbor_queries_per_query", "count", "lower", "qps on sim-bf"},
	{"radio.neighbor_scanned_per_query", "count", "lower", "qps on sim-bf"},
	{"radio.drops_per_query", "count", "lower", "recall on sim-bf"},
	{"aodv.rreq_per_query", "count", "lower", "bytes_per_query and qps on sim-bf"},
	{"aodv.control_bytes_per_query", "B", "lower", "bytes_per_query on sim-bf"},
	{"manet.messages_per_query", "count", "lower", "bytes_per_query on sim-bf"},
	{"manet.response_s_mean", "s", "lower", "latency_p50_ms on sim-bf (mean §5.2.3 response time)"},
	{"sim.self_share", "ratio", "lower", "qps on sim-bf"},
	{"radio.self_share", "ratio", "lower", "qps on sim-bf"},
	{"aodv.self_share", "ratio", "lower", "qps on sim-bf"},
	{"mobility.self_share", "ratio", "lower", "qps on sim-bf"},
	{"manet.self_share", "ratio", "lower", "qps on sim-bf"},
	{"localsky.self_share", "ratio", "lower", "qps on local-ac"},
	{"storage.self_share", "ratio", "lower", "qps on local-ac"},
	{"core.self_share", "ratio", "lower", "qps on local-ac"},
	{"tcp.self_share", "ratio", "lower", "qps on live-mesh"},
	{"wire.self_share", "ratio", "lower", "qps on live-mesh"},
	{"gateway.self_share", "ratio", "lower", "qps on live-mesh"},
	{"runtime.self_share", "ratio", "lower", "qps on every workload"},
	{"other.self_share", "ratio", "lower", "qps on every workload (standard library, syscalls, the benchmark)"},
	{"proc.cpu_util", "ratio", "higher", "qps on every workload: CPU s / (wall s × nproc)"},
	{"proc.allocs_per_query", "count", "lower", "qps on every workload"},
	{"proc.alloc_bytes_per_query", "B", "lower", "qps on every workload"},
	{"proc.gc_cpu_share", "ratio", "lower", "qps on every workload"},
	{"proc.trace_overhead_share", "ratio", "lower", "none: 1 - traced qps / untraced qps"},
	{"failed_share", "ratio", "lower", "(incomplete + timed out + rejected + wrong) / attempted"},
}

// notMeasured is reported for a per-layer metric the workload does not
// observe: its stack lacks the layer, or the layer's work is hidden behind
// the workload's public entry point.
const notMeasured = -1

const (
	setupRepeats = 5
	// p99Windows is how many equal windows a closed-loop run's p99 is
	// averaged over. Five 4-second windows keep over 1000 samples, ten
	// beyond the 99th percentile, in each window of local-ac and live-mesh.
	p99Windows = 5
	// p50Window is the length of the windows a closed-loop run's p50 is
	// averaged over: short enough that the host stays in one speed state
	// for most of a window.
	p50Window = 250 * time.Millisecond
)

// workload is one stack driven from outside; BENCHMARK.json and README.md
// say why each exists.
type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{"sim-bf", runSimBF},
	{"local-ac", runLocalAC},
	{"live-mesh", runLiveMesh},
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

type layerMetrics map[string]float64

// setP sets the p-quantile of samples, leaving the metric unmeasured when
// there are none.
func (l layerMetrics) setP(name string, samples []float64, p float64) {
	if v, n := percentile(samples, p); n > 0 {
		l[name] = v
	}
}

func (l layerMetrics) setShares(shares map[string]float64) {
	for pkg, v := range shares {
		l[pkg+".self_share"] = v
	}
}

type report struct {
	e2e      map[string]float64
	layers   layerMetrics
	tally    tally
	problems []string
	// repeats lists deterministic outputs that differed when the same
	// work was repeated within the run.
	repeats []string
	info    map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: layerMetrics{}, info: map[string]any{}}
}

// problem records a failed check; the run then reports correct=false.
// Only the first few are kept verbatim.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.info["problems"] = len(r.problems)
}

// nondeterministic records that repeating the same work within the run
// changed a deterministic output. Answers are still checked on their own;
// this is reported (info "deterministic": false and a printed line) but
// does not fail the run, because the digest exists to compare runs.
func (r *report) nondeterministic(format string, args ...any) {
	if len(r.repeats) < 20 {
		r.repeats = append(r.repeats, fmt.Sprintf(format, args...))
	}
	r.info["deterministic"] = false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result(trace bool) result {
	res := result{
		Correct:   r.tally.failed() == 0 && len(r.problems) == 0 && r.tally.attempted > 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed(),
		Metrics:   map[string]metricValue{},
	}
	if trace {
		for _, d := range perLayer {
			v, ok := r.layers[d.name]
			if !ok {
				v = notMeasured
			}
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{r.e2e[d.name], d.unit}
		}
	}
	return res
}

// provenance describes the host, toolchain and code a result came from.
func provenance() map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_sha"] = s.Value
			case "vcs.modified":
				p["git_modified"] = s.Value == "true"
			}
		}
	}
	if sha, ok := os.LookupEnv("PERFBENCH_SOURCE_SHA256"); ok {
		p["source_sha256"] = sha
	}
	return p
}

func printTable(w io.Writer, title string, defs []metricDef, res result) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, d := range defs {
		m := res.Metrics[d.name]
		val := fmt.Sprintf("%.6g", m.Value)
		if m.Value == notMeasured {
			val = "n/a"
		}
		fmt.Fprintf(w, "%-36s %14s %-10s %-6s %s\n", d.name, val, m.Unit, d.better, d.moves)
	}
}

func runOne(w workload, cfg runConfig, stdout io.Writer) (result, error) {
	rep, err := w.run(cfg)
	if err != nil {
		return result{}, err
	}
	res := rep.result(cfg.trace)
	defs, kind := endToEnd, "end-to-end"
	if cfg.trace {
		defs, kind = perLayer, "per-layer (traced run)"
	}
	printTable(stdout, fmt.Sprintf("%s %s, seed %d, %gs", w.name, kind, cfg.seed, cfg.seconds), defs, res)
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", p)
	}
	for _, p := range rep.repeats {
		fmt.Fprintf(stdout, "# NONDETERMINISTIC: %s\n", p)
	}
	info := provenance()
	for k, v := range rep.info {
		info[k] = v
	}
	info["workload"] = w.name
	info["seed"] = cfg.seed
	info["seconds"] = cfg.seconds
	info["trace"] = cfg.trace
	t := rep.tally
	info["failures"] = map[string]int64{"incomplete": t.incomplete, "timed_out": t.timedOut, "rejected": t.rejected, "wrong": t.wrong}
	line, _ := json.Marshal(map[string]any{"info": info})
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	if *name != "all" {
		res, err := runOne(todo[0], cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	// all: every workload untraced, then traced; the last line combines
	// them.
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		for _, tr := range []bool{false, true} {
			c := cfg
			c.trace = tr
			res, err := runOne(w, c, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for n, v := range res.Metrics {
				all.Metrics[w.name+"/"+n] = v
			}
		}
	}
	line, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
