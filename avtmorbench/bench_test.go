package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"avtmor"
)

// The percentile rule: a reported percentile keeps at least minTail
// samples beyond its nearest rank, and falls back no lower than the
// median.
func TestTailRankKeepsTenBeyond(t *testing.T) {
	if q := tailRank(1000, 0.95); q != 0.95 {
		t.Fatalf("1000 samples: p95 reported as %v", q)
	}
	if q := tailRank(8, 0.95); q != 0.5 {
		t.Fatalf("8 samples: reported %v, want the median", q)
	}
	for n := 1; n <= 2000; n++ {
		q := tailRank(n, 0.95)
		if q > 0.95 || q < 0.5 {
			t.Fatalf("n=%d: quantile %v outside [0.5, 0.95]", n, q)
		}
		if q > 0.5 && n-int(math.Ceil(q*float64(n))) < minTail {
			t.Fatalf("n=%d: quantile %v leaves fewer than %d samples beyond", n, q, minTail)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs, 0.95); got != 190 {
		t.Fatalf("p95 of 1..200 = %v, want 190", got)
	}
}

func TestScheduleIsDeterministicFromSeed(t *testing.T) {
	w := fleetMix.weights[:]
	a := makeSchedule(7, 40, 15, w, 0.2)
	b := makeSchedule(7, 40, 15, w, 0.2)
	c := makeSchedule(8, 40, 15, w, 0.2)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedule lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two schedules of one seed", i)
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != 600 {
		t.Fatalf("schedule holds %d ops, want 40/s × 15 s = 600", len(a))
	}
	counts := make([]int, numClasses)
	for _, o := range a {
		counts[o.class]++
	}
	for k, w := range w {
		if math.Abs(float64(counts[k])-600*w) > 1 {
			t.Fatalf("class %d: %d ops, want %.0f", k, counts[k], 600*w)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatal("due times not increasing")
		}
	}
}

// A request queued behind a slow one is timed from its due time, so
// the wait shows in its latency; the generator's own lateness does not
// include that wait.
func TestLatencyIsTimedFromDue(t *testing.T) {
	ops := []op{{at: 0}, {at: 0}, {at: 0}}
	const service = 30 * time.Millisecond
	out := runOpenLoop(ops, 1, func(i int, o op, oc *outcome) { time.Sleep(service) })
	last := out[2]
	if last.latency() < 3*service {
		t.Fatalf("third request's latency %v, want at least %v", last.latency(), 3*service)
	}
	if last.done.Sub(last.sent) > 2*service {
		t.Fatalf("third request's own service %v", last.done.Sub(last.sent))
	}
	for i, o := range out {
		if o.lateness > service {
			t.Fatalf("op %d dispatched %v late", i, o.lateness)
		}
	}
}

func TestGeneratedNetlistsParseWithUniqueKeys(t *testing.T) {
	rng := newRand(3, "cold")
	keys := map[string]bool{}
	for i := 0; i < 12; i++ {
		body, params, lo, hi := ladderNetlist(rng, i, ladderNodes(i)), ladderParams, 30, 60
		if i%4 == 3 {
			body, params, lo, hi = rlcNetlist(rng, i, rlcSections(i)), rlcParams, 1479, 1519
		}
		sys, err := avtmor.ParseNetlist(bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if n := sys.States(); n < lo || n > hi {
			t.Fatalf("body %d has %d states, want %d..%d", i, n, lo, hi)
		}
		key := avtmor.RequestKey(sys, queryOpts(t, params)...)
		if keys[key] {
			t.Fatalf("body %d repeats a request key", i)
		}
		keys[key] = true
	}
}

func queryOpts(t *testing.T, params string) []avtmor.Option {
	t.Helper()
	if params == rlcParams {
		return []avtmor.Option{avtmor.WithOrders(6, 0, 0), avtmor.WithExpansion(0, 0.4, 0.9)}
	}
	return []avtmor.Option{avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(0)}
}

// A live node's exposition passes the strict parser and counts the
// reduction just made.
func TestStrictScrapeOfLiveNode(t *testing.T) {
	f, err := startFleet(mix{nodes: 1, replicas: 1}, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	rb := &reqBody{body: []byte(ladderNetlist(newRand(1, "hot"), 0, 40)), params: ladderParams}
	var oc outcome
	f.reduce(rb, true, "probe-1", &oc)
	if !oc.ok {
		t.Fatal("reduce failed")
	}
	sc, err := scrape(f.hc, f.nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("avtmor_reductions_total"); !ok || v != 1 {
		t.Fatalf("avtmor_reductions_total = %v (present %v), want 1", v, ok)
	}
	if sp := f.nodes[0].rec.spans; len(sp) == 0 || sp[0].route != "reduce" || sp[0].rid != "probe-1" {
		t.Fatalf("middleware recorded %+v", sp)
	}
	if code, _, _, err := f.do(http.MethodGet, f.nodes[0].addr, "/v1/roms/"+rb.key, nil, nil); err != nil || code != http.StatusOK {
		t.Fatalf("GET of the reduced key: %d %v", code, err)
	}
}

// The traced replay reproduces the untraced reduction bit for bit, and
// its solver counters match.
func TestReplayMatchesReduce(t *testing.T) {
	line := newRLCLine(newRand(5, "rlc-sparse"), 5, 200)
	sys, err := line.public()
	if err != nil {
		t.Fatal(err)
	}
	c := &inCase{q: line.internal(), opts: []avtmor.Option{avtmor.WithOrders(6, 0, 0), avtmor.WithExpansion(0, 0.4, 0.9)}}
	c.opt = coreOptions(true)
	rom, err := avtmor.Reduce(context.Background(), sys, c.opts...)
	if err != nil {
		t.Fatal(err)
	}
	v, sp, err := replay(context.Background(), c.q, c.opt)
	if err != nil {
		t.Fatal(err)
	}
	basis, err := basisOf(rom)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBasis(v, basis) {
		t.Fatal("replayed basis differs from avtmor.Reduce's")
	}
	if !sameCounters(sp.stats, rom.Stats()) {
		t.Fatalf("replay counters %+v, reduction %+v", sp.stats, rom.Stats())
	}
}

// BENCHMARK.json, the metric catalogue and the interaction map agree.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Fatalf("%s %d: catalogue %v, BENCHMARK.json %v", kind, i, d, got[i])
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(b.Workloads) || len(workloads) != len(b.Workloads) {
		t.Fatalf("workloads: %d in interactions.json, %d registered, %d in BENCHMARK.json", len(cfg.Workloads), len(workloads), len(b.Workloads))
	}
	for i, w := range b.Workloads {
		if cfg.Workloads[i].Name != w.Name || workloads[w.Name] == nil {
			t.Fatalf("workload %q is not registered or not in interactions.json", w.Name)
		}
	}
	mapped := map[string]int{}
	for _, l := range cfg.Layers {
		for _, m := range l.Metrics {
			mapped[m]++
		}
	}
	for _, d := range perLayer {
		if mapped[d.name] != 1 {
			t.Fatalf("per-layer metric %s appears %d times in the interaction map", d.name, mapped[d.name])
		}
	}
	if len(mapped) != len(perLayer) {
		t.Fatalf("the interaction map names %d metrics, the catalogue %d", len(mapped), len(perLayer))
	}
}

// The shares interactions.json states for fleet-mix are the ones the
// load uses.
func TestFleetMixSharesDocumented(t *testing.T) {
	var doc struct {
		Shares map[string]json.RawMessage `json:"fleet_mix_shares"`
	}
	if err := json.Unmarshal(interactionsJSON, &doc); err != nil {
		t.Fatal(err)
	}
	stated := func(name string) float64 {
		var entry []any
		if err := json.Unmarshal(doc.Shares[name], &entry); err != nil || len(entry) != 2 {
			t.Fatalf("fleet_mix_shares.%s: want [share, reason], got %s", name, doc.Shares[name])
		}
		return entry[0].(float64)
	}
	for c, name := range classNames {
		if got := stated(name); got != fleetMix.weights[c] {
			t.Errorf("%s: interactions.json states %v, the mix uses %v", name, got, fleetMix.weights[c])
		}
	}
	if got := stated("plain_http"); got != fleetMix.plainShare {
		t.Errorf("plain_http: interactions.json states %v, the mix uses %v", got, fleetMix.plainShare)
	}
	if got := stated("if_none_match"); got != fleetMix.notModified {
		t.Errorf("if_none_match: interactions.json states %v, the mix uses %v", got, fleetMix.notModified)
	}
}

// A run too short for a cold-reduce percentile reports the slowest
// case's median over the passes, and says so.
func TestCaseTailSlowestCase(t *testing.T) {
	passes := []*pass{
		{perReduce: []float64{1, 9, 3}},
		{perReduce: []float64{1, 7, 3}},
		{perReduce: []float64{1, 20, 3}},
	}
	perCase := byCase(passes, func(p *pass) []float64 { return p.perReduce })
	v, q := caseTail(perCase)
	if v != 9 || q != slowestCase {
		t.Fatalf("got %v (%v), want 9 (%s)", v, q, slowestCase)
	}
	many := make([]float64, 400)
	for i := range many {
		many[i] = float64(i)
	}
	if v, q := caseTail([][]float64{many}); q != 0.95 || v != tail(many, 0.95) {
		t.Fatalf("with 400 samples got %v (%v), want the 95th percentile", v, q)
	}
}

// Samples regroup by case, and the in-process p50 is the geometric mean
// of the case medians.
func TestByCaseAndCaseMedian(t *testing.T) {
	passes := []*pass{{perSim: []float64{1, 100}}, {perSim: []float64{3, 300}}, {perSim: []float64{2, 200}}, {perSim: []float64{2, 400}}}
	perCase := byCase(passes, func(p *pass) []float64 { return p.perSim })
	if want := [][]float64{{1, 3, 2, 2}, {100, 300, 200, 400}}; !reflect.DeepEqual(perCase, want) {
		t.Fatalf("byCase = %v, want %v", perCase, want)
	}
	if got := caseMedian(perCase); math.Abs(got-20) > 1e-9 {
		t.Fatalf("caseMedian = %v, want 20 (the geometric mean of 2 and 200)", got)
	}
}

// The speed index is the trimmed mean of the kernel times over its
// window divided by the share of CPU time the guest kept.
func TestSpeedIndex(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := &speedMeter{}
	for i := 0; i < 40; i++ {
		s.at = append(s.at, t0.Add(time.Duration(i)*samplePeriod))
		s.cost = append(s.cost, 1.2)
		// A quarter of every tick is stolen.
		s.total = append(s.total, 1000+uint64(4*i))
		s.steal = append(s.steal, 500+uint64(i))
	}
	if got := s.index(t0, t0.Add(39*samplePeriod)); math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("index = %v, want 1.2/0.75 = 1.6", got)
	}
	s.cost[30] = 100 // one outlier is trimmed away
	if got := s.index(t0.Add(25*samplePeriod), t0.Add(39*samplePeriod)); math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("index with an outlier = %v, want 1.6", got)
	}
	// A short interval rests on at least minSpeedSamples samples.
	if d := s.scaled(t0.Add(30*samplePeriod), 160*time.Millisecond); (d - 100*time.Millisecond).Abs() > time.Microsecond {
		t.Fatalf("scaled = %v, want 100ms", d)
	}
}
