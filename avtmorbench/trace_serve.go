package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"avtmor"
	"avtmor/internal/core"
	"avtmor/internal/netlist"
	"avtmor/internal/promtext"
	"avtmor/internal/query"
	"avtmor/internal/store"
	"avtmor/serve"
)

// The traced serving run wraps each node's handler with a timing
// middleware, scrapes every node's /metrics with the strict parser at
// the end, and replays the cold bodies through the parser, the
// reduction layers and a scratch store.

// hspan is one handled request on one node.
type hspan struct {
	route     string
	rid       string
	forwarded bool
	dur       time.Duration
	cost      int64
}

// spanRec records the spans of one node.
type spanRec struct {
	mu    sync.Mutex
	spans []hspan // guarded by mu
}

// passWriter passes a response through, keeping io.ReaderFrom so file
// bodies are still sent the way the unwrapped server sends them.
type passWriter struct {
	http.ResponseWriter
}

func (w passWriter) ReadFrom(r io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(w.ResponseWriter, r)
}

func (w passWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/reduce":
		return "reduce"
	case r.Method == http.MethodPost && p == "/v1/reduce/batch":
		return "batch"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/roms/"):
		return "get"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/simulate"):
		return "simulate"
	}
	return "other"
}

func (rec *spanRec) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		next.ServeHTTP(passWriter{w}, r)
		d := host.since(t)
		var cost int64
		fmt.Sscan(w.Header().Get(serve.HeaderCost), &cost)
		sp := hspan{route: routeOf(r), rid: r.Header.Get(serve.HeaderRequestID),
			forwarded: r.Header.Get(serve.HeaderForwarded) != "", dur: d, cost: cost}
		rec.mu.Lock()
		rec.spans = append(rec.spans, sp)
		rec.mu.Unlock()
	})
}

// scrape fetches and strictly parses one node's exposition.
func scrape(hc *http.Client, addr string) (*promtext.Scrape, error) {
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics answered %d", resp.StatusCode)
	}
	return promtext.Parse(resp.Body)
}

// total sums a counter or gauge over every node's scrape.
func total(scrapes []*promtext.Scrape, name string) float64 {
	s := 0.0
	for _, sc := range scrapes {
		if v, ok := sc.Value(name); ok {
			s += v
		}
	}
	return s
}

// histQuantile estimates the q-quantile of a histogram family summed
// over the scrapes, interpolating linearly inside the bucket, in ms.
func histQuantile(scrapes []*promtext.Scrape, family string, q float64) float64 {
	cum := map[float64]float64{}
	for _, sc := range scrapes {
		fam := sc.Family(family)
		if fam == nil {
			continue
		}
		for _, s := range fam.Samples {
			if s.Name != family+"_bucket" {
				continue
			}
			for _, l := range s.Labels {
				if l.Name == "le" {
					le := math.Inf(1)
					if l.Value != "+Inf" {
						fmt.Sscan(l.Value, &le)
					}
					cum[le] += s.Value
				}
			}
		}
	}
	var les []float64
	for le := range cum {
		les = append(les, le)
	}
	if len(les) == 0 {
		return 0
	}
	sort.Float64s(les)
	n := cum[les[len(les)-1]]
	if n == 0 {
		return 0
	}
	target := q * n
	prevLE, prevC := 0.0, 0.0
	for _, le := range les {
		c := cum[le]
		if c >= target {
			if math.IsInf(le, 1) {
				return prevLE * 1000
			}
			return 1000 * (prevLE + (le-prevLE)*share(target-prevC, c-prevC))
		}
		prevLE, prevC = le, c
	}
	return prevLE * 1000
}

// coreOptions are the engine options of the two cold request kinds.
func coreOptions(rlc bool) core.Options {
	if rlc {
		return core.Options{K1: 6, S0: 0, ExtraPoints: []float64{0.4, 0.9}}
	}
	return core.Options{K1: 4, K2: 2, S0: 0}
}

// maxReplays bounds how many cold bodies the traced run replays.
const maxReplays = 24

// traceServing runs half the time untraced and half traced, both from
// the same seed, and reports the per-layer metrics of the traced half.
func traceServing(rc *runConfig, m mix, rps float64, root string, res *result) (*result, error) {
	half := rc.seconds / 2
	base, _, err := runLoad(rc, m, rps, half, filepath.Join(root, "untraced"), false, newResult())
	if err != nil {
		return nil, err
	}
	lr, _, err := runLoad(rc, m, rps, half, filepath.Join(root, "traced"), true, res)
	if err != nil {
		return nil, err
	}
	scrapes := lr.scrapes
	mt := res.metrics

	// Handler spans, matched to the generator's records by request ID.
	entry := map[string]hspan{}
	byRoute := map[string][]float64{}
	forwarded, entries := 0, 0
	for _, n := range lr.f.nodes {
		for _, sp := range n.rec.spans {
			if sp.route == "other" {
				continue
			}
			if sp.forwarded {
				forwarded++
				continue
			}
			entries++
			entry[sp.rid] = sp
			byRoute[sp.route] = append(byRoute[sp.route], ms(sp.dur))
		}
	}
	var wire, costCold, costHot, handled, client []float64
	for i, o := range lr.ops {
		oc := &lr.out[i]
		sp, ok := entry[oc.rid]
		if !ok || oc.rid == "" {
			continue
		}
		c := host.scaled(oc.sent, oc.done.Sub(oc.sent))
		wire = append(wire, ms(c-sp.dur))
		handled = append(handled, ms(sp.dur))
		client = append(client, ms(c))
		if sp.cost > 0 && oc.ok && sp.dur > 0 {
			switch o.class {
			case clsColdLadder, clsColdRLC:
				costCold = append(costCold, float64(sp.cost)/ms(sp.dur))
			case clsHot:
				costHot = append(costHot, float64(sp.cost)/ms(sp.dur))
			}
		}
	}
	mt["serve.reduce_handler_ms_p50"] = median(byRoute["reduce"])
	mt["serve.get_handler_ms_p50"] = median(byRoute["get"])
	mt["serve.simulate_handler_ms_p50"] = median(byRoute["simulate"])
	mt["serve.wire_ms_p50"] = median(wire)
	mt["serve.queue_wait_ms_p95"] = histQuantile(scrapes, "avtmor_queue_wait_seconds", 0.95)
	mt["admission.refused"] = total(scrapes, "avtmor_admission_rejected_total")
	mt["admission.queue_refused"] = total(scrapes, "avtmor_rejected_total")
	mt["admission.cost_per_ms_cold"] = median(costCold)
	mt["admission.cost_per_ms_hot"] = median(costHot)
	mt["quota.refused"] = total(scrapes, "avtmor_quota_rejected_total")
	mt["cluster.forward_share"] = share(float64(forwarded), float64(entries))
	mt["cluster.forward_ms_p50"] = histQuantile(scrapes, "avtmor_forward_seconds", 0.5)
	mt["cluster.peer_forward_errors"] = total(scrapes, "avtmor_cluster_peer_forward_errors_total")
	mt["replica.push_ms_p50"] = histQuantile(scrapes, "avtmor_replica_push_seconds", 0.5)
	mt["replica.pushes"] = total(scrapes, "avtmor_cluster_replica_pushes_total")
	mt["replica.push_errors"] = total(scrapes, "avtmor_cluster_replica_push_errors_total")
	mt["reducer.hit_share"] = share(total(scrapes, "avtmor_cache_hits_total"), total(scrapes, "avtmor_reduce_total"))
	mt["reducer.coalesced"] = total(scrapes, "avtmor_coalesced_total")
	mt["store.hits"] = total(scrapes, "avtmor_store_hits_total")
	mt["wire.batch_ms_p50"] = median(lr.f.batchMS)

	var late, lat, baseLat []float64
	refused, answered := 0, 0
	for i := range lr.out {
		oc := &lr.out[i]
		late = append(late, ms(oc.lateness))
		if oc.refused {
			refused++
		}
		if oc.ok || oc.refused {
			answered++
		}
		if oc.ok {
			lat = append(lat, ms(host.scaled(oc.due, oc.latency())))
		}
	}
	for i := range base.out {
		if base.out[i].ok {
			baseLat = append(baseLat, ms(host.scaled(base.out[i].due, base.out[i].latency())))
		}
	}
	mt["loadgen.offered_rps"] = float64(len(lr.ops)) / half
	mt["loadgen.achieved_rps"] = float64(answered) / lr.wall.Seconds()
	mt["loadgen.lateness_ms_p95"] = tail(late, 0.95)
	mt["fail_share"] = share(float64(res.failed), float64(res.attempted))
	mt["refused_share"] = share(float64(refused), float64(res.attempted))
	mt["trace.overhead_share"] = median(lat)/median(baseLat) - 1
	mt["trace.coverage"] = share(sum(handled), sum(client))
	mt["ode.rom_sim_ms"] = 1000 * median(lr.simS)
	mt["ode.steps"] = simSteps
	mt["romio.bytes_identical_share"] = share(float64(lr.verify.identical), float64(lr.verify.compared))
	if err := replayCold(lr, filepath.Join(root, "scratch-store"), mt); err != nil {
		return nil, err
	}
	return res, nil
}

// replayCold replays up to maxReplays cold bodies of the load through
// ParseNetlist, the reduction layers, the ROM codec and a scratch
// store.
func replayCold(lr *loadRun, storeDir string, mt map[string]float64) error {
	st, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var parse, parseMB, setup, h1, h2, h3, qrMS, proj, factor, solve []float64
	var cands, kept, facts, syms, refacts, width, hits []float64
	var wr, rd, size, swr, sget []float64
	matched, replayed := 0, 0
	for i, o := range lr.ops {
		rb := lr.f.cold[i]
		if rb == nil || replayed >= maxReplays || !lr.out[i].ok {
			continue
		}
		ref := lr.verify.refs[rb.key]
		if ref == nil {
			continue
		}
		replayed++
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		sys, err := avtmor.ParseNetlist(bytes.NewReader(rb.body))
		parse = append(parse, ms(host.since(t)))
		runtime.ReadMemStats(&m1)
		parseMB = append(parseMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if err != nil {
			return err
		}
		ckt, err := netlist.Parse(bytes.NewReader(rb.body))
		if err != nil {
			return err
		}
		q, err := ckt.Build()
		if err != nil {
			return err
		}
		opt := coreOptions(o.class == clsColdRLC)
		v, sp, err := replay(ctx, q, opt)
		if err != nil {
			return err
		}
		f, sv, err := solverReplay(ctx, q, opt)
		if err != nil {
			return err
		}
		setup, h1, h2, h3 = append(setup, ms(sp.setup)), append(h1, ms(sp.h1)), append(h2, ms(sp.h2)), append(h3, ms(sp.h3))
		qrMS, proj = append(qrMS, ms(sp.qr)), append(proj, ms(sp.project))
		factor, solve = append(factor, ms(f)), append(solve, ms(sv))
		cands, kept = append(cands, float64(sp.candidates)), append(kept, share(float64(sp.order), float64(sp.candidates)))
		facts, syms, refacts = append(facts, float64(sp.stats.Factorizations)), append(syms, float64(sp.stats.SymbolicAnalyses)), append(refacts, float64(sp.stats.NumericRefactors))
		width, hits = append(width, share(float64(sp.stats.BatchColumns), float64(sp.stats.BatchSolves))), append(hits, float64(sp.stats.Hits))
		if sameBasis(v, ref.basis) && sameCounters(sp.stats, ref.stats) {
			matched++
		}

		// The codec and the store on the served artifact.
		t = time.Now()
		rom, err := avtmor.ReadROM(bytes.NewReader(ref.raw))
		rd = append(rd, ms(host.since(t)))
		if err != nil {
			return err
		}
		var b bytes.Buffer
		t = time.Now()
		if _, err := rom.WriteTo(&b); err != nil {
			return err
		}
		wr, size = append(wr, ms(host.since(t))), append(size, float64(b.Len()))
		req, err := query.Parse(mustQuery(rb.params))
		if err != nil {
			return err
		}
		key := req.Key(sys)
		t = time.Now()
		if err := st.Store(key, rom); err != nil {
			return err
		}
		swr = append(swr, ms(host.since(t)))
		t = time.Now()
		if _, err := st.Get(store.Digest(key)); err != nil {
			return err
		}
		sget = append(sget, ms(host.since(t)))
	}
	mt["netlist.parse_ms_p50"] = median(parse)
	mt["netlist.alloc_mb_per_parse"] = median(parseMB)
	mt["assoc.setup_ms"] = median(setup)
	mt["assoc.h1_ms"] = median(h1)
	mt["assoc.h2_ms"] = median(h2)
	mt["assoc.h3_ms"] = median(h3)
	mt["assoc.candidates"] = median(cands)
	mt["qr.orthonormalize_ms"] = median(qrMS)
	mt["qr.kept_share"] = median(kept)
	mt["qldae.project_ms"] = median(proj)
	mt["solver.factor_ms"] = median(factor)
	mt["solver.solve_ms"] = median(solve)
	mt["solver.factorizations"] = median(facts)
	mt["solver.symbolic_analyses"] = median(syms)
	mt["solver.numeric_refactors"] = median(refacts)
	mt["solver.refactor_share"] = share(median(refacts), median(facts))
	mt["solver.batch_width"] = median(width)
	mt["solver.cache_hits"] = median(hits)
	mt["romio.write_ms"] = median(wr)
	mt["romio.read_ms"] = median(rd)
	mt["romio.bytes"] = median(size)
	mt["store.write_ms_p50"] = median(swr)
	mt["store.get_ms_p50"] = median(sget)
	mt["trace.replay_match"] = share(float64(matched), float64(replayed))
	return nil
}
