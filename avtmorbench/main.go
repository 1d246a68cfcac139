// Command avtmorbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one named workload from a seed,
// checks the program's outputs, and prints every metric of the chosen
// mode as the last line of standard output:
//
//	go run . --workload rlc-sparse --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// inputs again with spans recorded around the calls into each layer
// and prints the per-layer metrics instead. Workloads, their reasons
// and the map from layer metrics to the end-to-end metrics they should
// move live in interactions.json; README.md defines every metric.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

//go:embed interactions.json
var interactionsJSON []byte

// config is the part of interactions.json the benchmark itself reads.
type config struct {
	HeldOutSeed     uint64             `json:"held_out_seed"`
	LatencyLimitMS  float64            `json:"latency_limit_ms"`
	LatenessBoundMS float64            `json:"lateness_bound_ms"`
	OfferedRPS      map[string]float64 `json:"offered_rps"`
	Workloads       []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	Layers []layerEntry `json:"layers"`
}

// layerEntry is one row of the interaction map.
type layerEntry struct {
	Layer      string   `json:"layer"`
	Metrics    []string `json:"metrics"`
	Moves      []string `json:"moves"`
	On         []string `json:"on"`
	NoChangeOn []string `json:"no_change_on"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(interactionsJSON, &c); err != nil {
		return nil, fmt.Errorf("interactions.json: %w", err)
	}
	return &c, nil
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"reduce_s", "s"},
	{"rom_sim_s", "s"},
	{"rom_rel_err", "ratio"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"cold_reduce_ms_p95", "ms"},
	{"hot_reduce_ms_p50", "ms"},
	{"rom_get_ms_p50", "ms"},
	{"goodput_rps", "1/s"},
	{"ok_share", "ratio"},
	{"admitted_share", "ratio"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"netlist.parse_ms_p50", "ms"},
	{"netlist.alloc_mb_per_parse", "MB"},
	{"assoc.setup_ms", "ms"},
	{"assoc.h1_ms", "ms"},
	{"assoc.h2_ms", "ms"},
	{"assoc.h3_ms", "ms"},
	{"assoc.candidates", "count"},
	{"solver.factor_ms", "ms"},
	{"solver.solve_ms", "ms"},
	{"solver.factorizations", "count"},
	{"solver.symbolic_analyses", "count"},
	{"solver.numeric_refactors", "count"},
	{"solver.refactor_share", "ratio"},
	{"solver.batch_width", "count"},
	{"solver.cache_hits", "count"},
	{"qr.orthonormalize_ms", "ms"},
	{"qr.kept_share", "ratio"},
	{"qldae.project_ms", "ms"},
	{"ode.rom_sim_ms", "ms"},
	{"ode.steps", "count"},
	{"romio.write_ms", "ms"},
	{"romio.read_ms", "ms"},
	{"romio.bytes", "bytes"},
	{"romio.bytes_identical_share", "ratio"},
	{"store.write_ms_p50", "ms"},
	{"store.get_ms_p50", "ms"},
	{"store.hits", "count"},
	{"reducer.hit_share", "ratio"},
	{"reducer.coalesced", "count"},
	{"serve.reduce_handler_ms_p50", "ms"},
	{"serve.get_handler_ms_p50", "ms"},
	{"serve.simulate_handler_ms_p50", "ms"},
	{"serve.wire_ms_p50", "ms"},
	{"serve.queue_wait_ms_p95", "ms"},
	{"admission.refused", "count"},
	{"admission.queue_refused", "count"},
	{"admission.cost_per_ms_cold", "1/ms"},
	{"admission.cost_per_ms_hot", "1/ms"},
	{"quota.refused", "count"},
	{"cluster.forward_share", "ratio"},
	{"cluster.forward_ms_p50", "ms"},
	{"cluster.peer_forward_errors", "count"},
	{"replica.push_ms_p50", "ms"},
	{"replica.pushes", "count"},
	{"replica.push_errors", "count"},
	{"wire.batch_ms_p50", "ms"},
	{"loadgen.offered_rps", "1/s"},
	{"loadgen.achieved_rps", "1/s"},
	{"loadgen.lateness_ms_p95", "ms"},
	{"fail_share", "ratio"},
	{"refused_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.replay_match", "ratio"},
}

// result is one run's outcome. Metrics a workload's layers never touch
// stay 0 in a traced run: the layer did no work there.
type result struct {
	attempted, failed int
	invalid           string // non-empty: the run is reported, not scored
	metrics           map[string]float64
	notes             map[string]any // provenance beyond the contract keys
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, notes: map[string]any{}}
}

// fail records one failed operation with its reason on stderr.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "avtmorbench: FAIL: "+format+"\n", args...)
}

// Every workload sets up at least minSetups times and until the
// set-ups have taken minSetupSeconds; setup_s is their median. A
// set-up of a tenth of a second varies a lot from one to the next, so
// cheap set-ups repeat more often.
const (
	minSetups       = 3
	minSetupSeconds = 1.0
)

// moreSetups reports whether a workload that has taken the set-up
// times setups so far must set up again.
func moreSetups(setups []float64) bool {
	return len(setups) < minSetups || sum(setups) < minSetupSeconds
}

// workloadFunc runs one workload; trace selects the per-layer mode.
type workloadFunc func(rc *runConfig) (*result, error)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	cfg     *config
	name    string
}

var workloads = map[string]workloadFunc{
	"paper-qldae": runPaperQLDAE,
	"rlc-sparse":  runRLCSparse,
	"fleet-mix":   runFleetMix,
}

func main() {
	name := flag.String("workload", "", "workload name (see interactions.json)")
	seed := flag.Uint64("seed", 0, "input seed; 0 gives the paper's sizes")
	seconds := flag.Float64("seconds", 15, "measurement time per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "avtmorbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if host, err = startSpeedMeter(calibrations[name]); err != nil {
		return err
	}
	defer host.close()
	start := time.Now()
	res, err := wl(&runConfig{seed: seed, seconds: seconds, trace: trace == 1, cfg: cfg, name: name})
	if err != nil {
		return err
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	index, stolen := host.runIndex()
	prov := map[string]any{
		"workload": name, "seed": seed, "trace": trace, "seconds": seconds,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"held_out_seed": cfg.HeldOutSeed, "wall_s": time.Since(start).Seconds(),
		"host_speed_index": index, "steal_share": stolen,
	}
	if r, ok := cfg.OfferedRPS[name]; ok {
		prov["offered_rps"] = r
	}
	if res.invalid != "" {
		prov["invalid"] = res.invalid
	}
	for k, v := range res.notes {
		prov[k] = v
	}
	line, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	out := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && trace == 1 {
			v, ok = 0, true
		}
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	final, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.invalid == "",
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}
