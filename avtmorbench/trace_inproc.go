package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"avtmor"
	"avtmor/internal/assoc"
	"avtmor/internal/core"
	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
	"avtmor/internal/solver"
)

// The traced in-process run replays core.ReduceContext step by step
// through the public calls of each layer, timing every call from the
// outside. Nothing wraps solver.LinearSolver: ShiftedCache routes by
// the concrete backend type, so a wrapper would change what it times.

// spans holds one traced reduction's per-layer times and counts.
type spans struct {
	setup, h1, h2, h3, qr, project time.Duration
	candidates, order              int
	stats                          solver.CacheStats
}

func (s *spans) total() time.Duration { return s.setup + s.h1 + s.h2 + s.h3 + s.qr + s.project }

// timed runs f and adds its wall time to *d.
func timed[T any](d *time.Duration, f func() (T, error)) (T, error) {
	t := time.Now()
	v, err := f()
	*d += host.since(t)
	return v, err
}

// replay mirrors core.ReduceContext's serial path for sys under opt:
// the realization, H1 and H2 per expansion point, H3 (quadratic and
// cubic) about S0, then orthonormalization and projection. It returns
// the basis V and the spans.
func replay(ctx context.Context, sys *qldae.System, opt core.Options) (*mat.Dense, *spans, error) {
	sp := &spans{}
	r, err := timed(&sp.setup, func() (*assoc.Realization, error) {
		return assoc.NewWithSolverCtx(ctx, sys, solver.ByKind(opt.Solver))
	})
	if err != nil {
		return nil, nil, err
	}
	r.SetBlockSize(opt.BlockSize)
	wantH2 := sys.G2 != nil || sys.D1 != nil
	var cols [][]float64
	for _, s0 := range append([]float64{opt.S0}, opt.ExtraPoints...) {
		h1, err := timed(&sp.h1, func() ([][]float64, error) { return r.H1Moments(opt.K1, s0) })
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, h1...)
		if !wantH2 {
			continue
		}
		h2, err := timed(&sp.h2, func() ([][]float64, error) {
			if opt.DecoupledH2 {
				return r.H2CandidatesDecoupled(opt.K2, s0)
			}
			return r.H2Candidates(opt.K2, s0)
		})
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, h2...)
	}
	if wantH2 && opt.K3 > 0 && sys.Inputs() == 1 {
		h3, err := timed(&sp.h3, func() ([][]float64, error) { return r.H3Moments(opt.K3, opt.S0) })
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, h3...)
	}
	if sys.G3 != nil && opt.K3 > 0 && sys.Inputs() == 1 {
		h3c, err := timed(&sp.h3, func() ([][]float64, error) {
			s3, err := kron.NewSumSolver3(sys.G1)
			if err != nil {
				return nil, err
			}
			return r.H3MomentsCubic(s3, opt.K3, opt.S0)
		})
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, h3c...)
	}
	drop := opt.DropTol
	if drop <= 0 {
		drop = 1e-8
	}
	v, _ := timed(&sp.qr, func() (*mat.Dense, error) { return qr.Orthonormalize(cols, drop), nil })
	if v == nil {
		return nil, nil, errors.New("replay: every candidate deflated")
	}
	timed(&sp.project, func() (*qldae.System, error) { return sys.Project(v), nil })
	sp.candidates, sp.order = len(cols), v.C
	sp.stats = r.SolverStats()
	return v, sp, nil
}

// solverReplay re-runs the H1 factorizations and block back-solves of
// one reduction through a fresh shifted cache: one factor per
// expansion point, then one SolveBatch per Krylov step carrying the
// step's right-hand sides, rebuilt the way H1Moments builds them.
func solverReplay(ctx context.Context, sys *qldae.System, opt core.Options) (factor, solve time.Duration, err error) {
	sc := solver.NewShiftedCache(solver.Operand(sys.G1, sys.G1S), nil, solver.ByKind(opt.Solver))
	m := sys.Inputs()
	for _, s0 := range append([]float64{opt.S0}, opt.ExtraPoints...) {
		f, err := timed(&factor, func() (solver.Factorization, error) { return sc.FactorCtx(ctx, -s0) })
		if err != nil {
			return 0, 0, err
		}
		cur := make([][]float64, m)
		for in := range cur {
			cur[in] = sys.B.Col(in)
		}
		for k := 0; k < opt.K1; k++ {
			batch := make([][]float64, m)
			for in := range batch {
				batch[in] = mat.CopyVec(cur[in])
			}
			t := time.Now()
			f.SolveBatch(batch)
			solve += host.since(t)
			for in := range batch {
				if n2 := mat.Norm2(batch[in]); n2 > 0 {
					mat.ScaleVec(1/n2, batch[in])
				}
			}
			cur = batch
		}
	}
	return factor, solve, nil
}

// basisOf extracts a ROM's projection basis through the public Lift:
// lifting the unit vector e_j yields column j exactly.
func basisOf(rom *avtmor.ROM) ([][]float64, error) {
	q := rom.Order()
	out := make([][]float64, q)
	e := make([]float64, q)
	for j := 0; j < q; j++ {
		e[j] = 1
		col, err := rom.Lift(e)
		if err != nil {
			return nil, err
		}
		e[j] = 0
		out[j] = col
	}
	return out, nil
}

// sameBasis reports whether v equals the columns cols bit for bit.
func sameBasis(v *mat.Dense, cols [][]float64) bool {
	if v.C != len(cols) {
		return false
	}
	for j, col := range cols {
		if len(col) != v.R {
			return false
		}
		for i, x := range col {
			if math.Float64bits(x) != math.Float64bits(v.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// sameCounters compares the replay's solver counters with the
// untraced reduction's.
func sameCounters(cs solver.CacheStats, st avtmor.Stats) bool {
	return cs.Factorizations == st.Factorizations && cs.Hits == st.SolveCacheHits &&
		cs.BatchSolves == st.BatchSolves && cs.BatchColumns == st.BatchColumns &&
		cs.SymbolicAnalyses == st.SymbolicAnalyses && cs.NumericRefactors == st.NumericRefactors
}

// tracedPass is one traced pass: per-layer sums over the cases.
type tracedPass struct {
	sp            spans
	sim           time.Duration
	steps         int
	factor, solve time.Duration
	wall          time.Duration // replayed reductions plus simulations
	matched       int
}

// runTracedPass replays every case, simulates the replayed ROMs'
// untraced twins, and checks the replay against the untraced pass.
func runTracedPass(ctx context.Context, cases []*inCase, ref *pass, res *result) (*tracedPass, error) {
	tp := &tracedPass{}
	var vs []*mat.Dense
	var sps []*spans
	// Timed like runPass: the heap is collected before each call.
	for i, c := range cases {
		runtime.GC()
		t := time.Now()
		v, sp, err := replay(ctx, c.q, c.opt)
		tp.wall += host.since(t)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", c.name, err)
		}
		vs, sps = append(vs, v), append(sps, sp)
		runtime.GC()
		t = time.Now()
		r, err := c.simulate(ctx, ref.roms[i])
		d := host.since(t)
		if err != nil {
			return nil, err
		}
		tp.sim += d
		tp.wall += d
		tp.steps += r.Steps
	}
	for i, c := range cases {
		sp := sps[i]
		tp.sp.setup += sp.setup
		tp.sp.h1 += sp.h1
		tp.sp.h2 += sp.h2
		tp.sp.h3 += sp.h3
		tp.sp.qr += sp.qr
		tp.sp.project += sp.project
		tp.sp.candidates += sp.candidates
		tp.sp.order += sp.order
		s := &tp.sp.stats
		s.Factorizations += sp.stats.Factorizations
		s.Hits += sp.stats.Hits
		s.BatchSolves += sp.stats.BatchSolves
		s.BatchColumns += sp.stats.BatchColumns
		s.SymbolicAnalyses += sp.stats.SymbolicAnalyses
		s.NumericRefactors += sp.stats.NumericRefactors
		f, sv, err := solverReplay(ctx, c.q, c.opt)
		if err != nil {
			return nil, fmt.Errorf("solver replay %s: %w", c.name, err)
		}
		tp.factor += f
		tp.solve += sv
		basis, err := basisOf(ref.roms[i])
		if err != nil {
			return nil, err
		}
		okV, okC := sameBasis(vs[i], basis), sameCounters(sp.stats, ref.roms[i].Stats())
		if okV && okC {
			tp.matched++
		} else {
			fmt.Fprintf(os.Stderr, "avtmorbench: trace: %s replay differs from the untraced reduction (basis equal %v, solver counters equal %v)\n", c.name, okV, okC)
		}
	}
	return tp, nil
}

// traceInProcess alternates untraced and traced passes (at least two
// untraced and one traced) and reports the per-layer metrics.
func traceInProcess(ctx context.Context, rc *runConfig, cases []*inCase, bound float64, res *result) (*result, error) {
	var plain []*pass
	var traced []*tracedPass
	start := time.Now()
	for len(plain) < 2 || len(traced) < 1 || time.Since(start).Seconds() < rc.seconds {
		p, err := runPass(ctx, cases, bound, res)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		if len(plain) > 1 && len(traced) >= 1 && time.Since(start).Seconds() >= rc.seconds {
			break
		}
		tp, err := runTracedPass(ctx, cases, p, res)
		if err != nil {
			return nil, err
		}
		traced = append(traced, tp)
	}
	med := func(f func(*tracedPass) float64) float64 {
		var xs []float64
		for _, t := range traced {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	var plainWall, tracedWall, tracedSpans []float64
	for _, p := range plain {
		plainWall = append(plainWall, ms(p.reduceWall+p.simWall))
	}
	for _, t := range traced {
		tracedWall = append(tracedWall, ms(t.wall))
		tracedSpans = append(tracedSpans, ms(t.sp.total()+t.sim))
	}
	m := res.metrics
	m["assoc.setup_ms"] = med(func(t *tracedPass) float64 { return ms(t.sp.setup) })
	m["assoc.h1_ms"] = med(func(t *tracedPass) float64 { return ms(t.sp.h1) })
	m["assoc.h2_ms"] = med(func(t *tracedPass) float64 { return ms(t.sp.h2) })
	m["assoc.h3_ms"] = med(func(t *tracedPass) float64 { return ms(t.sp.h3) })
	m["assoc.candidates"] = float64(traced[0].sp.candidates)
	m["qr.orthonormalize_ms"] = med(func(t *tracedPass) float64 { return ms(t.sp.qr) })
	m["qr.kept_share"] = share(float64(traced[0].sp.order), float64(traced[0].sp.candidates))
	m["qldae.project_ms"] = med(func(t *tracedPass) float64 { return ms(t.sp.project) })
	m["ode.rom_sim_ms"] = med(func(t *tracedPass) float64 { return ms(t.sim) })
	m["ode.steps"] = float64(traced[0].steps)
	m["solver.factor_ms"] = med(func(t *tracedPass) float64 { return ms(t.factor) })
	m["solver.solve_ms"] = med(func(t *tracedPass) float64 { return ms(t.solve) })
	st := traced[0].sp.stats
	m["solver.factorizations"] = float64(st.Factorizations)
	m["solver.symbolic_analyses"] = float64(st.SymbolicAnalyses)
	m["solver.numeric_refactors"] = float64(st.NumericRefactors)
	m["solver.refactor_share"] = share(float64(st.NumericRefactors), float64(st.Factorizations))
	m["solver.batch_width"] = share(float64(st.BatchColumns), float64(st.BatchSolves))
	m["solver.cache_hits"] = float64(st.Hits)
	// Coverage divides the layer spans by the wall time of the untraced
	// passes on the same inputs, so work avtmor.Reduce does outside the
	// replayed calls (conversion, validation, ROM assembly) lowers it.
	// A slow host only adds time, so both figures compare the fastest
	// pass of each kind.
	m["trace.overhead_share"] = slices.Min(tracedWall)/slices.Min(plainWall) - 1
	m["trace.coverage"] = share(slices.Min(tracedSpans), slices.Min(plainWall))
	m["trace.replay_match"] = med(func(t *tracedPass) float64 { return share(float64(t.matched), float64(len(cases))) })

	// romio: the artifact codec on this workload's ROMs, and whether two
	// independent reductions of one request serialize to equal bytes.
	var wr, rd, size []float64
	identical := 0
	for i := range cases {
		var a, b bytes.Buffer
		t := time.Now()
		if _, err := plain[0].roms[i].WriteTo(&a); err != nil {
			return nil, err
		}
		wr = append(wr, ms(host.since(t)))
		size = append(size, float64(a.Len()))
		if _, err := plain[1].roms[i].WriteTo(&b); err != nil {
			return nil, err
		}
		if bytes.Equal(a.Bytes(), b.Bytes()) {
			identical++
		}
		t = time.Now()
		if _, err := avtmor.ReadROM(&a); err != nil {
			return nil, err
		}
		rd = append(rd, ms(host.since(t)))
	}
	m["romio.write_ms"] = median(wr)
	m["romio.read_ms"] = median(rd)
	m["romio.bytes"] = median(size)
	m["romio.bytes_identical_share"] = share(float64(identical), float64(len(cases)))

	hp, err := newHotPhase(ctx, cases, plain[0].roms)
	if err != nil {
		return nil, err
	}
	if err := hp.rounds(ctx, cases, plain[0].roms, 10, res); err != nil {
		return nil, err
	}
	rs := hp.rd.Stats()
	m["reducer.hit_share"] = share(float64(rs.CacheHits), float64(rs.CacheHits+rs.StoreHits+rs.Reductions+rs.Coalesced))
	m["reducer.coalesced"] = float64(rs.Coalesced)
	m["fail_share"] = share(float64(res.failed), float64(res.attempted))
	res.notes["passes"] = map[string]int{"untraced": len(plain), "traced": len(traced)}
	return res, nil
}
