package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"avtmor"
	"avtmor/avtmorclient"
	"avtmor/internal/promtext"
	"avtmor/internal/query"
	"avtmor/serve"
)

// The serving workloads drive real avtmord servers (serve.New behind
// loopback listeners) in this process with open-loop load, then check
// every served artifact against an in-process reduction of the same
// request.

// Request classes of the serving mixes.
const (
	clsColdLadder = iota // unique quadratic G-ladder, H2 path
	clsColdRLC           // unique ~1500-state linear RLC ladder
	clsHot               // a key reduced earlier
	clsGet               // GET /v1/roms/{digest}
	clsSimulate          // POST /v1/roms/{digest}/simulate
	clsBatch             // AVTMBRQ batch frame of hot bodies
	numClasses
)

var classNames = [numClasses]string{"cold_ladder", "cold_rlc", "hot", "get", "simulate", "batch"}

// mix is one serving workload's traffic.
type mix struct {
	nodes, replicas int
	weights         [numClasses]float64
	plainShare      float64 // share sent as plain HTTP to node 0
	notModified     float64 // share of GETs carrying If-None-Match
}

var fleetMix = mix{
	nodes: 3, replicas: 2,
	weights:     [numClasses]float64{0.16, 0.02, 0.34, 0.32, 0.12, 0.04},
	plainShare:  0.2,
	notModified: 0.35,
}

// Fixed numbers of the serving workloads.
const (
	hotKeys    = 16
	batchWidth = 3
	simTEnd    = 20.0
	simSteps   = 2000
	simEvery   = 50
)

// reqBody is one reduce request: body, query string and, once known,
// the artifact's content address.
type reqBody struct {
	body   []byte
	params string
	rlc    bool
	key    string
}

// served is one ROM answer to verify after the load.
type served struct {
	req *reqBody
	raw []byte
}

// simServed is one simulate answer to verify after the load.
type simServed struct {
	req  *reqBody
	amp  float64
	freq float64
	raw  []byte
}

// node is one running server.
type node struct {
	addr string
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	rec  *spanRec // nil when untraced
}

// fleet is a running set of nodes plus the clients that drive it.
type fleet struct {
	nodes  []*node
	client *avtmorclient.Client
	hc     *http.Client
	hot    []*reqBody
	cold   map[int]*reqBody // schedule index → body

	mu      sync.Mutex
	served  []served    // guarded by mu
	sims    []simServed // guarded by mu
	batchMS []float64   // guarded by mu
}

// startFleet starts m.nodes servers with stores under root.
func startFleet(m mix, root string, trace bool) (*fleet, error) {
	f := &fleet{cold: map[int]*reqBody{}}
	var lns []net.Listener
	var addrs []string
	for i := 0; i < m.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		// The cache limit bounds the full models cached ROMs keep alive;
		// evicted artifacts reload from the store. The default quota
		// bucket never runs dry at the offered rate, so every request
		// pays the quota check and none is refused by it.
		cfg := serve.Config{
			StoreDir: filepath.Join(root, fmt.Sprintf("node%d", i)), CacheLimit: 24, AntiEntropyInterval: -1,
			Quotas: map[string]serve.QuotaSpec{"": {Rate: 1e4, Burst: 1e4}},
		}
		if m.nodes > 1 {
			cfg.Node, cfg.Peers, cfg.Replicas = addrs[i], addrs, m.replicas
		}
		srv, err := serve.New(cfg)
		if err != nil {
			ln.Close()
			f.stop()
			return nil, err
		}
		n := &node{addr: addrs[i], srv: srv, done: make(chan struct{})}
		h := srv.Handler()
		if trace {
			n.rec = &spanRec{}
			h = n.rec.wrap(h)
		}
		n.hs = &http.Server{Handler: h}
		go func() {
			defer close(n.done)
			n.hs.Serve(ln)
		}()
		f.nodes = append(f.nodes, n)
	}
	f.hc = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 16},
	}
	c, err := avtmorclient.New(avtmorclient.Config{Nodes: addrs})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.client = c
	return f, nil
}

// stop shuts every node down and waits for it. The stopped servers
// are dropped, so their caches can be collected before verification;
// the nodes keep their addresses and span records.
func (f *fleet) stop() {
	for _, n := range f.nodes {
		if n.hs == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.hs.Shutdown(ctx)
		cancel()
		<-n.done
		n.srv.Close()
		n.hs, n.srv = nil, nil
	}
	if f.hc != nil {
		f.hc.CloseIdleConnections()
	}
}

// rid returns the trace ID of schedule entry i.
func rid(i int) string { return fmt.Sprintf("bench-%d", i) }

// do sends a plain HTTP request to addr and returns status, headers
// and body.
func (f *fleet) do(method, addr, path string, body []byte, hdr map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// reduce submits one reduce request, ring-aware or plain, and queues
// the answer for verification.
func (f *fleet) reduce(rb *reqBody, plain bool, id string, out *outcome) {
	if !plain {
		res, err := f.client.Reduce(context.Background(), rb.body, mustQuery(rb.params))
		if err != nil {
			var se *avtmorclient.StatusError
			out.refused = errors.As(err, &se) && se.Code == http.StatusTooManyRequests
			if !out.refused {
				fmt.Fprintf(os.Stderr, "avtmorbench: reduce failed: %v\n", err)
			}
			return
		}
		out.rid = res.RequestID
		f.record(rb, res.Key, res.Raw)
		out.ok = true
		return
	}
	h := map[string]string{serve.HeaderRequestID: id, "Content-Type": "application/octet-stream"}
	out.rid = id
	code, rh, raw, err := f.do(http.MethodPost, f.nodes[0].addr, "/v1/reduce?"+rb.params, rb.body, h)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "avtmorbench: reduce failed: %v\n", err)
	case code == http.StatusTooManyRequests:
		out.refused = true
	case code != http.StatusOK:
		fmt.Fprintf(os.Stderr, "avtmorbench: reduce answered %d: %s\n", code, bytes.TrimSpace(raw))
	default:
		f.record(rb, rh.Get("X-Avtmor-Rom-Key"), raw)
		out.ok = true
	}
}

// record queues one served ROM for verification.
func (f *fleet) record(rb *reqBody, key string, raw []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rb.key == "" {
		rb.key = key
	}
	f.served = append(f.served, served{req: rb, raw: raw})
}

func mustQuery(s string) url.Values {
	v, err := url.ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return v
}

// exec performs scheduled request i.
func (f *fleet) exec(m mix, i int, o op, out *outcome) {
	id := rid(i)
	hot := f.hot[o.arg%len(f.hot)]
	switch o.class {
	case clsColdLadder, clsColdRLC:
		f.reduce(f.cold[i], o.plain, id, out)
	case clsHot:
		f.reduce(hot, o.plain, id, out)
	case clsGet:
		addr := f.nodes[0].addr
		if !o.plain {
			addr = f.client.Owner(hot.key)
		}
		hdr := map[string]string{serve.HeaderRequestID: id}
		want := http.StatusOK
		if o.x < m.notModified {
			hdr["If-None-Match"] = `"` + hot.key + `"`
			want = http.StatusNotModified
		}
		out.rid = id
		code, _, raw, err := f.do(http.MethodGet, addr, "/v1/roms/"+hot.key, nil, hdr)
		switch {
		case err != nil || (code != want && code != http.StatusTooManyRequests):
			fmt.Fprintf(os.Stderr, "avtmorbench: GET answered %d (want %d): %v\n", code, want, err)
		case code == http.StatusTooManyRequests:
			out.refused = true
		default:
			out.ok = true
			if code == http.StatusOK {
				f.mu.Lock()
				f.served = append(f.served, served{req: hot, raw: raw})
				f.mu.Unlock()
			}
		}
	case clsSimulate:
		addr := f.nodes[0].addr
		if !o.plain {
			addr = f.client.Owner(hot.key)
		}
		amp, freq := 0.5+o.x, 0.02+0.05*float64(o.arg%7)/7
		body, _ := json.Marshal(map[string]any{
			"tEnd": simTEnd, "steps": simSteps, "integrator": "rk4", "every": simEvery,
			"input": map[string]any{"kind": "sin", "values": []float64{amp}, "freqHz": []float64{freq}},
		})
		out.rid = id
		code, _, raw, err := f.do(http.MethodPost, addr, "/v1/roms/"+hot.key+"/simulate", body,
			map[string]string{serve.HeaderRequestID: id, "Content-Type": "application/json"})
		switch {
		case err != nil || (code != http.StatusOK && code != http.StatusTooManyRequests):
			fmt.Fprintf(os.Stderr, "avtmorbench: simulate answered %d: %v %s\n", code, err, bytes.TrimSpace(raw))
		case code == http.StatusTooManyRequests:
			out.refused = true
		default:
			out.ok = true
			f.mu.Lock()
			f.sims = append(f.sims, simServed{req: hot, amp: amp, freq: freq, raw: raw})
			f.mu.Unlock()
		}
	case clsBatch:
		var bodies [][]byte
		var reqs []*reqBody
		for k := 0; k < batchWidth; k++ {
			rb := f.hot[(o.arg+k)%len(f.hot)]
			bodies, reqs = append(bodies, rb.body), append(reqs, rb)
		}
		t := time.Now()
		items, err := f.client.ReduceBatch(context.Background(), bodies, mustQuery(ladderParams))
		d := host.since(t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avtmorbench: batch failed: %v\n", err)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.batchMS = append(f.batchMS, ms(d))
		for k, it := range items {
			if !it.OK() {
				fmt.Fprintf(os.Stderr, "avtmorbench: batch item answered %d: %s\n", it.Status, it.Err)
				return
			}
			f.served = append(f.served, served{req: reqs[k], raw: it.Raw})
		}
		out.ok = true
	}
}

// setupFleet starts a fleet, generates the cold bodies the schedule
// needs and pre-seeds the hot keys.
func setupFleet(m mix, seed uint64, ops []op, root string, trace bool) (*fleet, error) {
	f, err := startFleet(m, root, trace)
	if err != nil {
		return nil, err
	}
	hotRng, coldRng := newRand(seed, "hot"), newRand(seed, "cold")
	for i := 0; i < hotKeys; i++ {
		f.hot = append(f.hot, &reqBody{body: []byte(ladderNetlist(hotRng, 1000000+i, ladderNodes(2*i))), params: ladderParams})
	}
	nl, nr := 0, 0
	for i, o := range ops {
		switch o.class {
		case clsColdLadder:
			f.cold[i] = &reqBody{body: []byte(ladderNetlist(coldRng, i, ladderNodes(nl))), params: ladderParams}
			nl++
		case clsColdRLC:
			f.cold[i] = &reqBody{body: []byte(rlcNetlist(coldRng, i, rlcSections(nr))), params: rlcParams, rlc: true}
			nr++
		}
	}
	for _, rb := range f.hot {
		res, err := f.client.Reduce(context.Background(), rb.body, mustQuery(rb.params))
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("pre-seeding hot keys: %w", err)
		}
		rb.key = res.Key
	}
	return f, nil
}

// reference is the in-process reduction of one request. Only ladder
// references keep their ROM, for the simulate checks: an RLC ROM holds
// its dense full model.
type reference struct {
	rom   *avtmor.ROM
	order int
	stats avtmor.Stats
	raw   []byte
	basis [][]float64
	h1    []complex128
}

var probeS = []complex128{complex(0, 0.1), complex(0, 1)}

// verifier reduces every served request in process, once per key,
// and compares the served artifacts against it.
type verifier struct {
	refs      map[string]*reference
	order     []*reqBody // verified requests, first seen first
	checked   map[[32]byte]bool
	reduceS   []float64
	relErr    []float64
	identical int
	compared  int
}

func (v *verifier) ref(ctx context.Context, rb *reqBody) (*reference, error) {
	if r, ok := v.refs[rb.key]; ok {
		return r, nil
	}
	sys, err := avtmor.ParseNetlist(bytes.NewReader(rb.body))
	if err != nil {
		return nil, err
	}
	q, err := query.Parse(mustQuery(rb.params))
	if err != nil {
		return nil, err
	}
	rom, err := avtmor.Reduce(ctx, sys, q.Opts...)
	if err != nil {
		return nil, err
	}
	v.order = append(v.order, rb)
	r := &reference{order: rom.Order(), stats: rom.Stats()}
	if !rb.rlc {
		r.rom = rom
	}
	var b bytes.Buffer
	if _, err := rom.WriteTo(&b); err != nil {
		return nil, err
	}
	r.raw = b.Bytes()
	if r.basis, err = basisOf(rom); err != nil {
		return nil, err
	}
	for _, s := range probeS {
		h, err := rom.TransferH1(0, s)
		if err != nil {
			return nil, err
		}
		r.h1 = append(r.h1, h[0])
	}
	if !rb.rlc {
		// A ladder's diffusion time grows as n², so probing at ω = 20/n²
		// puts every ladder's error near 1e-2, whatever its length.
		n := float64(sys.States())
		e, err := rom.H1Error(0, complex(0, 20/(n*n)))
		if err != nil {
			return nil, err
		}
		v.relErr = append(v.relErr, e)
	}
	v.refs[rb.key] = r
	return r, nil
}

// check compares one served ROM with its reference: it must decode,
// keep the reference's order and basis bit for bit, and agree on H1
// at the probe points. Raw bytes are compared only to report how often
// they agree: the artifact header carries build telemetry.
func (v *verifier) check(ctx context.Context, s served) error {
	r, err := v.ref(ctx, s.req)
	if err != nil {
		return err
	}
	v.compared++
	if bytes.Equal(s.raw, r.raw) {
		v.identical++
	}
	sum := sha256.Sum256(s.raw)
	if v.checked[sum] {
		return nil
	}
	rom, err := avtmor.ReadROM(bytes.NewReader(s.raw))
	if err != nil {
		return fmt.Errorf("decoding served ROM: %w", err)
	}
	if rom.Order() != r.order {
		return fmt.Errorf("served order %d, in-process %d", rom.Order(), r.order)
	}
	basis, err := basisOf(rom)
	if err != nil {
		return err
	}
	for j := range basis {
		for i := range basis[j] {
			if math.Float64bits(basis[j][i]) != math.Float64bits(r.basis[j][i]) {
				return errors.New("served basis differs from the in-process reduction")
			}
		}
	}
	for k, s := range probeS {
		h, err := rom.TransferH1(0, s)
		if err != nil {
			return err
		}
		if relErr(h[0], r.h1[k]) > 1e-12 {
			return fmt.Errorf("served H1(%v) differs by %.3g", s, relErr(h[0], r.h1[k]))
		}
	}
	v.checked[sum] = true
	return nil
}

// checkSim compares a served trajectory with the in-process ROM's.
func (v *verifier) checkSim(ctx context.Context, s simServed) (time.Duration, error) {
	r, err := v.ref(ctx, s.req)
	if err != nil {
		return 0, err
	}
	var got struct {
		T []float64   `json:"t"`
		Y [][]float64 `json:"y"`
	}
	if err := json.Unmarshal(s.raw, &got); err != nil {
		return 0, fmt.Errorf("decoding trajectory: %w", err)
	}
	u := func(t float64) []float64 { return []float64{s.amp * math.Sin(2*math.Pi*s.freq*t)} }
	t0 := time.Now()
	want, err := r.rom.Simulate(ctx, u, simTEnd, avtmor.WithRK4(simSteps))
	d := host.since(t0)
	if err != nil {
		return 0, err
	}
	if len(got.T) == 0 || len(got.T) != len(got.Y) {
		return 0, errors.New("empty or ragged trajectory")
	}
	peak := 0.0
	for _, y := range want.Y {
		peak = math.Max(peak, math.Abs(y[0]))
	}
	for k, t := range got.T {
		if math.Abs(got.Y[k][0]-want.OutputAt(t, 0)) > 1e-9*math.Max(peak, 1e-300) {
			return 0, fmt.Errorf("trajectory differs at t=%g", t)
		}
	}
	return d, nil
}

// timingWindow is the least time each of the two timing phases of a
// serving run (rom_sim_s, then reduce_s) takes after verification:
// one burst of a second or less would follow the host's momentary
// speed.
const timingWindow = 1500 * time.Millisecond

// timingRounds repeats the served simulations, then reduces the
// verified requests in first-seen order, in process and on a collected
// heap, in whole rounds until each phase has taken timingWindow. Only
// these rounds are timed: verification runs beside a heap of
// references, and how long it takes depends on the seed's cold
// requests. Whole rounds give every run the same mix of requests.
func (v *verifier) timingRounds(ctx context.Context, sims []simServed, simS *[]float64) error {
	runtime.GC()
	for start := time.Now(); time.Since(start) < timingWindow; {
		for _, s := range sims {
			d, err := v.checkSim(ctx, s)
			if err != nil {
				return err
			}
			*simS = append(*simS, d.Seconds())
		}
	}
	runtime.GC()
	for start := time.Now(); time.Since(start) < timingWindow; {
		for _, rb := range v.order {
			sys, err := avtmor.ParseNetlist(bytes.NewReader(rb.body))
			if err != nil {
				return err
			}
			q, err := query.Parse(mustQuery(rb.params))
			if err != nil {
				return err
			}
			t := time.Now()
			if _, err := avtmor.Reduce(ctx, sys, q.Opts...); err != nil {
				return err
			}
			v.reduceS = append(v.reduceS, host.since(t).Seconds())
		}
	}
	return nil
}

// loadRun is one measured load on one fleet.
type loadRun struct {
	ops     []op
	out     []outcome
	wall    time.Duration
	allocMB float64
	simS    []float64
	verify  *verifier
	f       *fleet
	scrapes []*promtext.Scrape // every node's /metrics at the end of a traced load
}

// runLoad sets the fleet up repeatedly (the median is setup_s; the
// last fleet serves the load), runs the schedule, and
// verifies every answer after the load.
func runLoad(rc *runConfig, m mix, rps, seconds float64, root string, trace bool, res *result) (*loadRun, []float64, error) {
	ops := makeSchedule(rc.seed, rps, seconds, m.weights[:], m.plainShare)
	var setups []float64
	var f *fleet
	for k := 0; moreSetups(setups); k++ {
		if f != nil {
			f.stop()
		}
		// Collect first, so no set-up pays for another's garbage.
		runtime.GC()
		dir := filepath.Join(root, fmt.Sprintf("fleet%d", k))
		t := time.Now()
		nf, err := setupFleet(m, rc.seed, ops, dir, trace)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, host.since(t).Seconds())
		f = nf
	}
	runtime.GC()
	a0 := allocMB()
	t0 := time.Now()
	out := runOpenLoop(ops, runtime.NumCPU(), func(i int, o op, oc *outcome) { f.exec(m, i, o, oc) })
	lr := &loadRun{ops: ops, out: out, wall: time.Since(t0), allocMB: allocMB() - a0, f: f}
	if trace {
		for _, n := range f.nodes {
			sc, err := scrape(f.hc, n.addr)
			if err != nil {
				f.stop()
				return nil, nil, fmt.Errorf("scraping %s: %w", n.addr, err)
			}
			lr.scrapes = append(lr.scrapes, sc)
		}
	}
	// Verification runs on a stopped fleet and a collected heap, so it
	// shares the machine with nothing.
	f.stop()
	runtime.GC()
	ctx := context.Background()
	v := &verifier{refs: map[string]*reference{}, checked: map[[32]byte]bool{}}
	lr.verify = v
	bad := map[*reqBody]bool{}
	for _, s := range f.served {
		if err := v.check(ctx, s); err != nil {
			fmt.Fprintf(os.Stderr, "avtmorbench: FAIL: served ROM: %v\n", err)
			bad[s.req] = true
		}
	}
	for _, s := range f.sims {
		if _, err := v.checkSim(ctx, s); err != nil {
			fmt.Fprintf(os.Stderr, "avtmorbench: FAIL: served simulation: %v\n", err)
			bad[s.req] = true
		}
	}
	if len(bad) == 0 {
		if err := v.timingRounds(ctx, f.sims, &lr.simS); err != nil {
			return nil, nil, err
		}
	}
	// A wrong answer anywhere marks the requests that produced it failed.
	for i, o := range ops {
		oc := &out[i]
		res.attempted++
		switch {
		case oc.refused:
		case !oc.ok:
			res.failed++
		case (o.class == clsColdLadder || o.class == clsColdRLC) && bad[f.cold[i]]:
			oc.ok = false
			res.failed++
		case (o.class == clsHot || o.class == clsGet || o.class == clsSimulate) && bad[f.hot[o.arg%len(f.hot)]]:
			oc.ok = false
			res.failed++
		case o.class == clsBatch && f.batchBad(o.arg, bad):
			oc.ok = false
			res.failed++
		}
	}
	return lr, setups, nil
}

// batchBad reports whether any hot body of the batch frame starting at
// hot index arg produced a wrong answer.
func (f *fleet) batchBad(arg int, bad map[*reqBody]bool) bool {
	for k := 0; k < batchWidth; k++ {
		if bad[f.hot[(arg+k)%len(f.hot)]] {
			return true
		}
	}
	return false
}

func runFleetMix(rc *runConfig) (*result, error) { return runServing(rc, fleetMix) }

// scratchDir makes a temporary directory under the working directory's
// build area and returns it with its cleanup.
func scratchDir() (string, func(), error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "avtmorbench-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// runServing runs a serving workload and reports its metrics.
func runServing(rc *runConfig, m mix) (*result, error) {
	rps := rc.cfg.OfferedRPS[rc.name]
	if rps <= 0 {
		return nil, fmt.Errorf("no offered rate for %s in interactions.json", rc.name)
	}
	root, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	res := newResult()
	if rc.trace {
		return traceServing(rc, m, rps, root, res)
	}
	lr, setups, err := runLoad(rc, m, rps, rc.seconds, root, false, res)
	if err != nil {
		return nil, err
	}
	scoreServing(rc, lr, rps, res)
	res.metrics["setup_s"] = median(setups)
	return res, nil
}

// scoreServing computes the end-to-end metrics of a load.
func scoreServing(rc *runConfig, lr *loadRun, rps float64, res *result) {
	lat := make([][]float64, numClasses)
	var late []float64
	good, refused := 0, 0
	limit := time.Duration(rc.cfg.LatencyLimitMS * float64(time.Millisecond))
	for i, o := range lr.ops {
		oc := &lr.out[i]
		late = append(late, ms(oc.lateness))
		if oc.refused {
			refused++
			continue
		}
		if !oc.ok {
			continue
		}
		lat[o.class] = append(lat[o.class], ms(host.scaled(oc.due, oc.latency())))
		if oc.latency() <= limit {
			good++
		}
	}
	cold := append(append([]float64(nil), lat[clsColdLadder]...), lat[clsColdRLC]...)
	m := res.metrics
	m["reduce_s"] = median(lr.verify.reduceS)
	m["rom_sim_s"] = median(lr.simS)
	m["rom_rel_err"] = median(lr.verify.relErr)
	m["alloc_mb"] = lr.allocMB / float64(max(1, len(lr.ops)-refused))
	m["cold_reduce_ms_p95"] = tail(cold, 0.95)
	m["hot_reduce_ms_p50"] = median(lat[clsHot])
	m["rom_get_ms_p50"] = median(lat[clsGet])
	res.notes["ungated"] = map[string]float64{
		"cold_reduce_ms_p50": median(cold), "simulate_ms_p50": median(lat[clsSimulate]),
		"hot_reduce_ms_p95": tail(lat[clsHot], 0.95), "rom_get_ms_p95": tail(lat[clsGet], 0.95),
		"simulate_ms_p95": tail(lat[clsSimulate], 0.95),
	}
	m["goodput_rps"] = float64(good) / lr.wall.Seconds()
	m["ok_share"] = share(float64(res.attempted-res.failed), float64(res.attempted))
	m["admitted_share"] = share(float64(res.attempted-refused), float64(res.attempted))
	lateP95 := tail(late, 0.95)
	if lateP95 > rc.cfg.LatenessBoundMS {
		res.invalid = fmt.Sprintf("generator lateness p95 %.1f ms exceeds the %.0f ms bound", lateP95, rc.cfg.LatenessBoundMS)
	}
	counts := map[string]int{}
	q := map[string]float64{}
	for c := 0; c < numClasses; c++ {
		counts[classNames[c]] = len(lat[c])
	}
	q["cold_reduce_ms_p95"] = tailRank(len(cold), 0.95)
	q["hot_reduce_ms_p95"] = tailRank(len(lat[clsHot]), 0.95)
	q["rom_get_ms_p95"] = tailRank(len(lat[clsGet]), 0.95)
	q["simulate_ms_p95"] = tailRank(len(lat[clsSimulate]), 0.95)
	res.notes["samples"] = counts
	res.notes["reported_quantile"] = q
	res.notes["refused"] = refused
	res.notes["lateness_ms_p95"] = lateP95
	res.notes["verified_keys"] = len(lr.verify.refs)
	res.notes["achieved_rps"] = float64(len(lr.ops)) / lr.wall.Seconds()
}
