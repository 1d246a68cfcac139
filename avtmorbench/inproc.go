package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"avtmor"
	"avtmor/internal/circuits"
	"avtmor/internal/core"
	"avtmor/internal/qldae"
)

// The in-process workloads reduce fixed sets of systems serially
// through avtmor.Reduce, one "pass" at a time, and simulate every ROM
// of the pass. Full-model references are computed once in set-up.

// inCase is one reduction of a pass.
type inCase struct {
	name  string
	sys   *avtmor.System // what the untraced pass reduces
	q     *qldae.System  // the identical internal QLDAE, for the replay
	opt   core.Options   // the options opts resolve to
	opts  []avtmor.Option
	order int // the ROM order every reduction must keep
	w     *avtmor.Workload
	// rebuild makes a fresh System equal to sys, as a resubmitted
	// request would carry it.
	rebuild func() (*avtmor.System, error)

	// paper-qldae reference: the full-model transient.
	refTraj *avtmor.Result
	// rlc-sparse reference: full-model H1 at the fixed frequency ω.
	omega float64
	refH1 complex128
}

// Error bounds every in-process ROM must stay within.
const (
	paperErrBound = 0.1  // transient, relative to the reference peak
	rlcErrBound   = 0.01 // H1 at the line's ω
)

// relErr returns the case's figure of merit for one ROM and its
// simulated trajectory.
func (c *inCase) relErr(rom *avtmor.ROM, res *avtmor.Result) (float64, error) {
	if c.refTraj != nil {
		return avtmor.MaxRelErr(c.refTraj, res, 0), nil
	}
	h, err := rom.TransferH1(0, complex(0, c.omega))
	if err != nil {
		return 0, err
	}
	return relErr(h[0], c.refH1), nil
}

// paperCases builds the paper's four §3 testbenches at the paper's
// orders; seeds other than 0 move the current line's length by one
// stage. The voltage line keeps the paper's length: one stage more or
// less moved its reduction time by about 6%, and the pass time by
// about 2.5%, a tenth of the bounds spent on input noise alone.
func paperCases(seed uint64) ([]*inCase, error) {
	rng := newRand(seed, "paper-qldae")
	ntlv := 50
	ntlc := intJitter(rng, seed, 70, 1)
	mk := func(mkPub func() *avtmor.Workload, q *circuits.Workload, k1, k2, k3, order int) *inCase {
		pub := mkPub()
		return &inCase{
			name: pub.Name, sys: pub.System, q: q.Sys, w: pub, order: order,
			rebuild: func() (*avtmor.System, error) { return mkPub().System, nil },
			opt:     core.Options{K1: k1, K2: k2, K3: k3, S0: pub.S0},
			opts:    []avtmor.Option{avtmor.WithOrders(k1, k2, k3), avtmor.WithExpansion(pub.S0)},
		}
	}
	cases := []*inCase{
		mk(func() *avtmor.Workload { return avtmor.NTLVoltage(ntlv) }, circuits.NTLVoltage(ntlv), 7, 4, 2, 13),
		mk(func() *avtmor.Workload { return avtmor.NTLCurrent(ntlc) }, circuits.NTLCurrent(ntlc), 6, 3, 2, 11),
		mk(avtmor.RFReceiver, circuits.RFReceiver(), 4, 2, 0, 14),
		mk(avtmor.Varistor, circuits.Varistor(), 7, 0, 2, 8),
	}
	ctx := context.Background()
	for _, c := range cases {
		ref, err := c.w.Simulate(ctx, c.w.System)
		if err != nil {
			return nil, fmt.Errorf("%s full-model reference: %w", c.name, err)
		}
		c.refTraj = ref
	}
	return cases, nil
}

// rlcSizes are the section counts of the rlc-sparse lines: 1023, 1999
// and 4999 states; the largest is CSR-only. rlcOmegas are the
// frequencies their H1 is checked at: a long line's passband shrinks
// with its length, and each ω puts the order-18 ROM's error near 1e-3,
// where it barely moves with the seed's jitter.
var (
	rlcSizes  = []int{512, 1000, 2500}
	rlcOmegas = []float64{0.002, 0.001, 0.0003}
)

// rlcCases builds the three RLC lines and their full-model H1
// references.
func rlcCases(seed uint64) ([]*inCase, error) {
	rng := newRand(seed, "rlc-sparse")
	var cases []*inCase
	for k, sections := range rlcSizes {
		line := newRLCLine(rng, seed, sections)
		sys, err := line.public()
		if err != nil {
			return nil, err
		}
		c := &inCase{
			name: fmt.Sprintf("rlc-%d", line.n), sys: sys, q: line.internal(), order: 18, omega: rlcOmegas[k],
			rebuild: line.public,
			opt:     core.Options{K1: 6, S0: 0, ExtraPoints: []float64{0.4, 0.9}},
			opts:    []avtmor.Option{avtmor.WithOrders(6, 0, 0), avtmor.WithExpansion(0, 0.4, 0.9)},
			// Only the stimulus and integrator of this workload are used.
			w: avtmor.RLCLine(2),
		}
		if c.refH1, err = line.fullH1(c.omega); err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// simulate drives a ROM with the case's workload stimulus.
func (c *inCase) simulate(ctx context.Context, rom *avtmor.ROM) (*avtmor.Result, error) {
	return c.w.Simulate(ctx, rom)
}

// pass is one untraced pass.
type pass struct {
	roms         []*avtmor.ROM
	reduceWall   time.Duration
	simWall      time.Duration
	perReduce    []float64 // ms
	perSim       []float64 // ms
	allocMB      float64
	maxErr       float64
	correctCount int
}

// runPass reduces every case serially, then simulates every ROM and
// checks it against its order and error bound. The heap is collected
// before each timed call, so no call pays for another's garbage; a
// pass's wall times are the sums of its calls.
func runPass(ctx context.Context, cases []*inCase, bound float64, res *result) (*pass, error) {
	p := &pass{}
	a0 := allocMB()
	for _, c := range cases {
		runtime.GC()
		t := time.Now()
		rom, err := avtmor.Reduce(ctx, c.sys, c.opts...)
		d := host.since(t)
		if err != nil {
			return nil, fmt.Errorf("reduce %s: %w", c.name, err)
		}
		p.reduceWall += d
		p.perReduce = append(p.perReduce, ms(d))
		p.roms = append(p.roms, rom)
	}
	p.allocMB = allocMB() - a0
	results := make([]*avtmor.Result, len(cases))
	for i, c := range cases {
		runtime.GC()
		t := time.Now()
		r, err := c.simulate(ctx, p.roms[i])
		d := host.since(t)
		if err != nil {
			return nil, fmt.Errorf("simulate %s ROM: %w", c.name, err)
		}
		p.simWall += d
		p.perSim = append(p.perSim, ms(d))
		results[i] = r
	}
	for i, c := range cases {
		res.attempted++
		e, err := c.relErr(p.roms[i], results[i])
		switch {
		case err != nil:
			res.fail("%s: error probe: %v", c.name, err)
		case p.roms[i].Order() != c.order:
			res.fail("%s: ROM order %d, want %d", c.name, p.roms[i].Order(), c.order)
		case !(e <= bound):
			res.fail("%s: relative error %.3g above the bound %.3g", c.name, e, bound)
		default:
			p.correctCount++
		}
		p.maxErr = math.Max(p.maxErr, e)
	}
	return p, nil
}

// memStore is an in-memory avtmor.ROMStore holding serialized ROMs.
type memStore struct {
	mu  sync.Mutex
	raw map[string][]byte // guarded by mu
}

func (m *memStore) Load(key string) (*avtmor.ROM, error) {
	m.mu.Lock()
	b, ok := m.raw[key]
	m.mu.Unlock()
	if !ok {
		return nil, nil
	}
	return avtmor.ReadROM(bytes.NewReader(b))
}

func (m *memStore) Store(key string, rom *avtmor.ROM) error {
	var b bytes.Buffer
	if _, err := rom.WriteTo(&b); err != nil {
		return err
	}
	m.mu.Lock()
	m.raw[key] = b.Bytes()
	m.mu.Unlock()
	return nil
}

// hotPhase measures the in-process serving paths on a pass's ROMs: a
// repeated request answered from the root Reducer's cache (primed
// through a ROM store, so nothing is reduced again), and the artifact
// round trip WriteTo → ReadROM a GET pays. A repeated request arrives
// as a freshly built System, so each hit pays the fingerprint of its
// input as a real resubmission does. Rounds run after every pass, so
// the samples span the whole run.
type hotPhase struct {
	rd       *avtmor.Reducer
	hot, get [][]float64 // ms, per case
}

func newHotPhase(ctx context.Context, cases []*inCase, roms []*avtmor.ROM) (*hotPhase, error) {
	st := &memStore{raw: map[string][]byte{}}
	for i, c := range cases {
		if err := st.Store(avtmor.RequestKey(c.sys, c.opts...), roms[i]); err != nil {
			return nil, err
		}
	}
	h := &hotPhase{rd: avtmor.NewReducer(avtmor.WithROMStore(st)),
		hot: make([][]float64, len(cases)), get: make([][]float64, len(cases))}
	for _, c := range cases {
		if _, err := h.rd.Reduce(ctx, c.sys, c.opts...); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// rounds runs n rounds of one hot request and one ROM round trip per
// case; every answer must keep the case's order.
func (h *hotPhase) rounds(ctx context.Context, cases []*inCase, roms []*avtmor.ROM, n int, res *result) error {
	fresh := make([]*avtmor.System, len(cases))
	for r := 0; r < n; r++ {
		for i, c := range cases {
			var err error
			if fresh[i], err = c.rebuild(); err != nil {
				return err
			}
		}
		// Collect between rounds so no sample pays for another's garbage.
		runtime.GC()
		for i, c := range cases {
			t := time.Now()
			rom, err := h.rd.Reduce(ctx, fresh[i], c.opts...)
			d := host.since(t)
			res.attempted++
			if err != nil || rom.Order() != c.order {
				res.fail("%s: hot reduce answered %v (order mismatch or error)", c.name, err)
				continue
			}
			h.hot[i] = append(h.hot[i], ms(d))
			rt, err := roundTrips(roms[i], c.order)
			if err != nil {
				res.fail("%s: ROM round trip failed: %v", c.name, err)
				continue
			}
			h.get[i] = append(h.get[i], ms(rt))
		}
	}
	if st := h.rd.Stats(); st.Reductions != 0 {
		return errors.New("the hot phase reduced instead of hitting the cache")
	}
	return nil
}

// getBatch is the number of ROM round trips one rom_get sample times:
// a single round trip of a paper ROM takes a fraction of a millisecond,
// too little to time steadily on its own.
const getBatch = 10

// roundTrips times getBatch WriteTo → ReadROM round trips of rom and
// returns the mean time of one; every decoded ROM must keep order.
func roundTrips(rom *avtmor.ROM, order int) (time.Duration, error) {
	var b bytes.Buffer
	t := time.Now()
	for k := 0; k < getBatch; k++ {
		b.Reset()
		if _, err := rom.WriteTo(&b); err != nil {
			return 0, err
		}
		back, err := avtmor.ReadROM(&b)
		if err != nil {
			return 0, err
		}
		if back.Order() != order {
			return 0, fmt.Errorf("decoded order %d, want %d", back.Order(), order)
		}
	}
	return host.since(t) / getBatch, nil
}

func runPaperQLDAE(rc *runConfig) (*result, error) {
	return runInProcess(rc, paperCases, paperErrBound, 40)
}

func runRLCSparse(rc *runConfig) (*result, error) {
	return runInProcess(rc, rlcCases, rlcErrBound, 1)
}

// slowestCase is the provenance label of a tail metric that reports
// the slowest case's median instead of a percentile.
const slowestCase = "slowest-case median"

// caseTail returns the 95th percentile of all samples when the
// percentile rule holds for them. A run of paper-qldae holds a few
// passes of four reductions, far too few for a tail, so otherwise it
// returns the slowest case's median. The second value names what was
// reported.
func caseTail(perCase [][]float64) (float64, any) {
	xs := slices.Concat(perCase...)
	if q := tailRank(len(xs), 0.95); q == 0.95 {
		return tail(xs, 0.95), q
	}
	slowest := 0.0
	for _, c := range perCase {
		slowest = math.Max(slowest, median(c))
	}
	return slowest, slowestCase
}

// byCase regroups the samples f picks from each pass, one per case in
// case order, by case.
func byCase(passes []*pass, f func(*pass) []float64) [][]float64 {
	out := make([][]float64, len(f(passes[0])))
	for _, p := range passes {
		for i, x := range f(p) {
			out[i] = append(out[i], x)
		}
	}
	return out
}

// caseMedian is the p50 of an in-process workload: the geometric mean
// over its cases of each case's median. The cases of a pass differ in
// cost by up to 100x, so the plain median of all samples would sit on
// the boundary between two cases and flip between them from run to
// run; this figure moves with every case instead.
func caseMedian(perCase [][]float64) float64 {
	logSum := 0.0
	for _, xs := range perCase {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(perCase)))
}

// runInProcess runs either in-process workload: repeated set-up
// (median reported), then passes for the measured time, each followed
// by hotRounds rounds of the hot phase.
func runInProcess(rc *runConfig, build func(uint64) ([]*inCase, error), bound float64, hotRounds int) (*result, error) {
	ctx := context.Background()
	res := newResult()
	var setups []float64
	var cases []*inCase
	for moreSetups(setups) {
		// Collect first, so no set-up pays for another's garbage.
		runtime.GC()
		t := time.Now()
		cs, err := build(rc.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, host.since(t).Seconds())
		cases = cs
	}
	if rc.trace {
		return traceInProcess(ctx, rc, cases, bound, res)
	}
	var passes []*pass
	var hp *hotPhase
	start := time.Now()
	for {
		t := time.Now()
		p, err := runPass(ctx, cases, bound, res)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if hp == nil {
			if hp, err = newHotPhase(ctx, cases, p.roms); err != nil {
				return nil, err
			}
		}
		if err := hp.rounds(ctx, cases, p.roms, hotRounds, res); err != nil {
			return nil, err
		}
		// Stop when another pass would overrun the measured time.
		if time.Since(start)+time.Since(t) > time.Duration(rc.seconds*float64(time.Second)) {
			break
		}
	}
	hot, get := slices.Concat(hp.hot...), slices.Concat(hp.get...)
	var reduceS, alloc []float64
	var maxErr, reduced, wall float64
	for _, p := range passes {
		reduceS = append(reduceS, p.reduceWall.Seconds())
		alloc = append(alloc, p.allocMB)
		maxErr = math.Max(maxErr, p.maxErr)
		reduced += float64(p.correctCount)
		wall += p.reduceWall.Seconds()
	}
	perReduce := byCase(passes, func(p *pass) []float64 { return p.perReduce })
	perSim := byCase(passes, func(p *pass) []float64 { return p.perSim })
	simS := 0.0
	caseMS := map[string]float64{}
	for i, c := range cases {
		simS += median(perSim[i]) / 1000
		caseMS[c.name] = median(perReduce[i])
	}
	m := res.metrics
	m["setup_s"] = median(setups)
	m["reduce_s"] = median(reduceS)
	m["rom_sim_s"] = simS
	m["rom_rel_err"] = maxErr
	m["alloc_mb"] = median(alloc)
	var coldQ, simQ any
	m["cold_reduce_ms_p95"], coldQ = caseTail(perReduce)
	m["hot_reduce_ms_p50"] = caseMedian(hp.hot)
	m["rom_get_ms_p50"] = caseMedian(hp.get)
	m["goodput_rps"] = reduced / wall
	m["ok_share"] = share(float64(res.attempted-res.failed), float64(res.attempted))
	m["admitted_share"] = 1
	ungated := map[string]float64{
		"cold_reduce_ms_p50": caseMedian(perReduce), "simulate_ms_p50": caseMedian(perSim),
		"hot_reduce_ms_p95": tail(hot, 0.95), "rom_get_ms_p95": tail(get, 0.95),
	}
	ungated["simulate_ms_p95"], simQ = caseTail(perSim)
	res.notes["ungated"] = ungated
	res.notes["case_reduce_ms"] = caseMS
	res.notes["passes"] = len(passes)
	res.notes["samples"] = map[string]int{
		"cold_reduce": len(passes) * len(cases), "hot_reduce": len(hot), "rom_get": len(get),
		"simulate": len(passes) * len(cases),
	}
	res.notes["reported_quantile"] = map[string]any{
		"cold_reduce_ms_p95": coldQ, "hot_reduce_ms_p95": tailRank(len(hot), 0.95),
		"rom_get_ms_p95": tailRank(len(get), 0.95), "simulate_ms_p95": simQ,
	}
	return res, nil
}
