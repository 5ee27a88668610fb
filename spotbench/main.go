// Command spotbench is the repository benchmark. It drives spothost only
// through its public entry points and times those calls from outside:
//
//	paper  the full-fidelity reproduction of every table and figure
//	       (experiments.All at Parallel 2), in a fresh child process
//	sweep  multi-knob grids through sweep.Run with warm start, fork and
//	       prune on, one fresh child process per pass over the grid set
//	serve  an open-loop load generator registering tenant fleets with a
//	       spotserve child process over loopback at three fixed rates,
//	       then bursts of fleets registered at once and timed until drained
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash spotbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run records spans around every call into a layer and
// reports the per-layer metrics instead (see NOTES.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"wall_s", "s"},
	{"rate_per_s", "1/s"},
}

// experimentNames mirrors experiments.All; checkMetricTables fails the run
// if the two ever disagree.
var experimentNames = []string{
	"figure1", "table1", "table2", "figure6", "figure7", "figure8", "figure9",
	"figure10", "figure11", "table3", "table4", "figure12", "section6",
	"ablations", "robustness", "fleet", "heterogeneity",
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"paper_wall_s", "s"},
		{"sweep_cells_per_s", "1/s"},
		{"serve_done_p50_ms.low", "ms"},
		{"serve_done_p50_ms.mid", "ms"},
		{"serve_done_p50_ms.high", "ms"},
		{"serve_done_p95_ms.low", "ms"},
		{"serve_done_p95_ms.mid", "ms"},
		{"serve_done_p95_ms.high", "ms"},
		{"serve_max_rate_per_s", "1/s"},
		{"fail_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"},

		{"market.generate_ms", "ms"},
		{"market.generate_catalog_ms", "ms"},
		{"market.envelope_ms", "ms"},
		{"market.envelope_catalog_ms", "ms"},
		{"market.cursor_ns", "ns"},
		{"market.cache_hits", "count"},
		{"market.cache_misses", "count"},

		{"sched.cell_ms", "ms"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"cloud.spot_requests", "count"},
		{"cloud.revocations", "count"},
		{"cloud.spot_grant_ratio", "ratio"},
		{"sched.migrations", "count"},
		{"sched.checkpoint_overhead_ratio", "ratio"},
		{"sched.fork_resume_ms", "ms"},

		{"fleet.cell_ms", "ms"},
		{"fleet.catalog_cell_ms", "ms"},
		{"fleet.events", "count"},
		{"fleet.launches", "count"},
		{"fleet.replicas_lost", "count"},
		{"fleet.step_ms", "ms"},
		{"obs.overhead_ratio", "ratio"},

		{"tpcw.run_ms", "ms"},
	}
	for _, n := range experimentNames {
		d = append(d, metricDef{"experiments." + n + "_s", "s"})
	}
	return append(d, []metricDef{
		{"experiments.render_ms", "ms"},
		{"runpool.cpu_util", "ratio"},

		{"sweep.cells", "count"},
		{"sweep.simulated", "count"},
		{"sweep.shared", "count"},
		{"sweep.forked", "count"},
		{"sweep.pruned", "count"},
		{"sweep.reuse_ratio", "ratio"},
		{"sweep.plan_ms", "ms"},

		{"controlplane.steps_per_s", "1/s"},
		{"controlplane.queue_depth_max", "count"},
		{"controlplane.queue_wait_p50_ms", "ms"},
		{"controlplane.queue_wait_p95_ms", "ms"},
		{"controlplane.overhead_ratio", "ratio"},

		{"httpapi.register_p50_ms", "ms"},
		{"httpapi.register_p95_ms", "ms"},
		{"httpapi.snapshot_p50_ms", "ms"},
		{"httpapi.snapshot_p95_ms", "ms"},
		{"httpapi.timeline_p50_ms", "ms"},
		{"httpapi.timeline_p95_ms", "ms"},
		{"httpapi.refused", "count"},

		{"loadgen.late_p95_ms", "ms"},
	}...)
}()

// config is one benchmark invocation.
type config struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Spotserve string // spotserve binary (serve workload)
	Out       string // scratch directory inside the checkout
}

// outcome is what a workload measured: operation counts plus named values.
// A traced run fills Layer; an untraced run fills E2E.
type outcome struct {
	Attempted int
	Failed    int
	E2E       map[string]float64
	Layer     map[string]float64
}

func newOutcome() *outcome {
	return &outcome{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"paper": runPaper,
	"sweep": runSweep,
	"serve": runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "record" {
		os.Exit(recordMain(os.Args[2:]))
	}
	var cfg config
	flag.StringVar(&cfg.Workload, "workload", "", "paper | sweep | serve")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.Seconds, "seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.Spotserve, "spotserve", "", "spotserve binary (serve workload)")
	flag.StringVar(&cfg.Out, "out", ".bench_build", "scratch directory for spans and logs")
	flag.Parse()
	cfg.Trace = *trace != 0

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "spotbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (paper | sweep | serve)", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := checkMetricTables(); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	// The load generator and the orchestrator stay within the box's two
	// CPUs' worth of threads.
	runtime.GOMAXPROCS(2)

	out, err := wl(cfg)
	if err != nil {
		return err
	}
	if cfg.Trace {
		probes, err := runProbeChild(cfg)
		if err != nil {
			return err
		}
		for k, v := range probes {
			out.Layer[k] = v
		}
		if out.Attempted > 0 {
			out.Layer["fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
		}
	}
	rep := report{
		Correct:   out.Failed == 0 && out.Attempted > 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, out.E2E
	if cfg.Trace {
		defs, vals = perLayer, out.Layer
	}
	for _, d := range defs {
		rep.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkMetricTables fails when the metric tables drift from the
// experiments registry or from BENCHMARK.json (when it is present).
func checkMetricTables() error {
	if err := checkExperimentNames(); err != nil {
		return err
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	same := func(what string, a []struct{ Name, Unit string }, b []metricDef) error {
		x := make([]string, len(a))
		for i, m := range a {
			x[i] = m.Name + " " + m.Unit
		}
		y := make([]string, len(b))
		for i, m := range b {
			y[i] = m.Name + " " + m.Unit
		}
		sort.Strings(x)
		sort.Strings(y)
		if fmt.Sprint(x) != fmt.Sprint(y) {
			return fmt.Errorf("BENCHMARK.json %s metrics differ from the benchmark's table", what)
		}
		return nil
	}
	if err := same("end_to_end", bj.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", bj.PerLayer, perLayer)
}

// spansPath is where a traced child writes its spans.
func spansPath(cfg config, part string) string {
	return filepath.Join(cfg.Out, "spans", fmt.Sprintf("%s-seed%d-%s.jsonl", cfg.Workload, cfg.Seed, part))
}
