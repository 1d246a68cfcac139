// Package assoc implements the associated-transform realizations that are
// the paper's core contribution: the single-s linear state spaces of
// A2(H2) (Eq. (17)) and A3(H3) (§2.2), together with the structure-
// exploiting shifted solvers of §2.3. The realization matrix
//
//	G̃2 = ⎡G1  G2⎤   ∈ R^{(n+n²)×(n+n²)},  b̃2 = ⎡D1·b⎤,  c̃2 = [I 0]
//	     ⎣0  ⊕²G1⎦                              ⎣b⊗b ⎦
//
// is never formed: every (G̃2 − τI)⁻¹ application is one Kronecker-sum
// solve (a Sylvester equation over the cached Schur form of G1) plus one
// shifted LU solve with G1 — O(n³) instead of O((n+n²)³).
//
// The H3 chains never leave the Schur coordinates of G1 = Q·T·Qᵀ. Their
// seeds are transformed factor by factor in O(n³): (Qᵀb)^{⊗3} for the
// cubic path, (Qᵀb) ⊗ [QᵀD1b; (Qᵀb)⊗(Qᵀb)] for the quadratic one. Each
// resolvent power carries z̃ to the next with no transform. The H̃3
// resolvent (G1⊕G̃2 − σI)⁻¹ is solved in three steps: the ⊕³T
// recurrence on the n²×n bottom block, one product with
// Ĝ2 = Qᵀ·G2·(Q⊗Q) (built once per realization), and one n×n
// quasi-triangular Sylvester solve for the top block. H3 therefore
// factors no (G1 − τI) per Schur eigenvalue; its only shifted LU is the
// (G1 − s0·I) it shares with H1 and H2. A power leaves Schur
// coordinates only for what its path consumes: the n×n top block
// (quadratic, 2n³) or the entries of z at the nonzero columns of G3
// (cubic, contracted against rows of Q).
package assoc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"avtmor/internal/kron"
	"avtmor/internal/lu"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/schur"
	"avtmor/internal/solver"
	"avtmor/internal/sparse"
)

// Realization bundles a QLDAE with the cached factorizations used by every
// associated-transform computation. All shift-invert back-solves with
// (G1 − τI) go through one solver.ShiftedCache, so the backend (dense LU,
// sparse LU, or auto-routed) is a constructor choice and factorizations
// are shared across H1/H2/H3 and across multipoint expansion
// frequencies. The Schur form of G1 that powers the Kronecker-sum
// solves of H2/H3 is computed lazily on first use: linear-only (H1)
// reductions of large sparse circuits never pay the O(n³) step.
//
// A Realization is safe for the concurrent moment generation of
// core.Reduce's parallel fan-out: the shifted caches are mutexed, and
// distinct shifts factor concurrently.
type Realization struct {
	Sys   *qldae.System
	gt2   *Gt2
	sc    *solver.ShiftedCache // cache: (G1 − τI) factorizations
	ctx   context.Context      // cancels the Krylov chains and factor steps
	block int                  // SolveBatch width cap; 0 = batch everything

	mu     sync.Mutex
	s2     *kron.SumSolver2       // guarded by mu; (⊕²G1 − σI)⁻¹ via Schur(G1), lazy
	s2err  error                  // guarded by mu
	s2done bool                   // guarded by mu
	g2h    *mat.Dense             // guarded by mu; Ĝ2 = Qᵀ·G2·(Q⊗Q), lazy
	luCplx map[complex128]*lu.CLU // guarded by mu
}

// New prepares the realization with the auto-routed solver backend.
func New(sys *qldae.System) (*Realization, error) {
	return NewWithSolver(sys, nil)
}

// NewWithSolver prepares the realization with an explicit linear-solver
// backend (nil selects solver.Auto).
func NewWithSolver(sys *qldae.System, ls solver.LinearSolver) (*Realization, error) {
	return NewWithSolverCtx(context.Background(), sys, ls)
}

// NewWithSolverCtx is NewWithSolver bound to a context: every moment
// chain, resolvent power, and shifted factor step of this realization
// polls ctx and aborts with its error once the caller gives up. One
// Realization serves one Reduce call, so binding the context at
// construction keeps the per-iteration hot paths signature-stable.
func NewWithSolverCtx(ctx context.Context, sys *qldae.System, ls solver.LinearSolver) (*Realization, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Realization{
		Sys:    sys,
		sc:     solver.NewShiftedCache(solver.Operand(sys.G1, sys.G1S), nil, ls),
		ctx:    ctx,
		luCplx: map[complex128]*lu.CLU{},
	}
	r.gt2 = &Gt2{r: r}
	return r, nil
}

// SetBlockSize caps how many right-hand sides the moment generators
// group into one SolveBatch call: 0 (the default) batches every column
// that shares a shift, 1 reproduces the vector-granular legacy path,
// and k > 1 caps blocks at k columns. Per-column results are
// bit-identical for every setting — SolveBatch is arithmetic-equivalent
// to looped Solve — so the ROM does not depend on the choice; only the
// locality/scratch-memory trade-off moves. Call before moment
// generation starts: the value is read concurrently afterwards.
func (r *Realization) SetBlockSize(k int) {
	if k < 0 {
		k = 0
	}
	r.block = k
}

// solveBatch pushes cols through f in blocks of the configured width.
// Each column is overwritten in place with its solution.
func (r *Realization) solveBatch(f solver.Factorization, cols [][]float64) {
	n := len(cols)
	if n == 0 {
		return
	}
	bs := r.block
	if bs <= 0 || bs > n {
		bs = n
	}
	for i := 0; i < n; i += bs {
		j := i + bs
		if j > n {
			j = n
		}
		f.SolveBatch(cols[i:j])
	}
}

// SolverStats reports the shifted-factorization cache counters (factor
// steps actually paid, cache hits, batch-solve traffic) for the
// observability layer.
func (r *Realization) SolverStats() solver.CacheStats { return r.sc.Stats() }

// SolverBackend names the backend the shifted pencil actually factors
// through (Auto resolved to its routing decision).
func (r *Realization) SolverBackend() string { return r.sc.BackendName() }

// Sum2 returns the lazily-built Kronecker-sum solver over Schur(G1).
// The H2/H3 structured solves need the dense G1; CSR-only systems get
// an explanatory error instead of an n×n densification.
func (r *Realization) Sum2() (*kron.SumSolver2, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.s2done {
		r.s2done = true
		if r.Sys.G1 == nil {
			r.s2err = errors.New("assoc: H2/H3 associated solves need a dense G1 (CSR-only system); supply qldae.System.G1 or reduce with K2 = K3 = 0")
		} else if s2, err := kron.NewSumSolver2(r.Sys.G1); err != nil {
			r.s2err = fmt.Errorf("assoc: Schur of G1 failed: %w", err)
		} else {
			r.s2 = s2
		}
	}
	return r.s2, r.s2err
}

// Schur returns the cached Schur form of G1 (computing it on first use).
func (r *Realization) Schur() (*schur.Schur, error) {
	s2, err := r.Sum2()
	if err != nil {
		return nil, err
	}
	return s2.Schur(), nil
}

// Gt2Solver returns the shifted solver for the Eq.-(17) matrix G̃2.
func (r *Realization) Gt2Solver() *Gt2 { return r.gt2 }

// shiftedLU returns a cached factorization of (G1 − τI) from the
// solver-backed shift cache.
func (r *Realization) shiftedLU(tau float64) (solver.Factorization, error) {
	f, err := r.sc.FactorCtx(r.ctx, -tau)
	if err != nil {
		return nil, fmt.Errorf("assoc: (G1 − %g·I) singular: %w", tau, err)
	}
	// Scale of the shifted pencil (max(‖G1‖_max, |τ|) bounds
	// ‖G1 − τI‖_max within a factor of 2), so the ratio test keeps its
	// meaning when |τ| dwarfs the matrix entries.
	scale := math.Max(r.sc.Scale(), math.Abs(tau))
	if f.MinAbsPivot() < 1e-12*scale {
		return nil, fmt.Errorf("assoc: (G1 − %g·I) is numerically singular (pivot ratio %.2g); expand at a non-DC point s0",
			tau, f.MinAbsPivot()/scale)
	}
	return f, nil
}

// shiftedCLU returns a cached complex factorization of (G1 − τI); this
// verification-only path stays dense.
func (r *Realization) shiftedCLU(tau complex128) (*lu.CLU, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.luCplx[tau]; ok {
		return f, nil
	}
	if r.Sys.G1 == nil {
		return nil, errors.New("assoc: complex-frequency evaluation needs a dense G1 (CSR-only system)")
	}
	f, err := lu.ShiftedReal(r.Sys.G1, -tau)
	if err != nil {
		return nil, fmt.Errorf("assoc: (G1 − %v·I) singular: %w", tau, err)
	}
	r.luCplx[tau] = f
	return f, nil
}

// Btilde2 builds the input column of the Eq.-(17) realization for input
// pair (i, j): [½(D1ᵢ·bⱼ + D1ⱼ·bᵢ); ½(bᵢ⊗bⱼ + bⱼ⊗bᵢ)]. For SISO (i=j=0)
// this is exactly [D1·b; b⊗b].
func (r *Realization) Btilde2(i, j int) []float64 {
	sys := r.Sys
	n := sys.N
	out := make([]float64, n+n*n)
	tmp := make([]float64, n)
	if sys.D1 != nil {
		if sys.D1[i] != nil {
			sys.D1[i].MulVec(tmp, sys.B.Col(j))
			mat.Axpy(0.5, tmp, out[:n])
		}
		if sys.D1[j] != nil {
			sys.D1[j].MulVec(tmp, sys.B.Col(i))
			mat.Axpy(0.5, tmp, out[:n])
		}
	}
	bi, bj := sys.B.Col(i), sys.B.Col(j)
	kij := kron.VecKron(bi, bj)
	kji := kron.VecKron(bj, bi)
	for k := range kij {
		out[n+k] = 0.5 * (kij[k] + kji[k])
	}
	return out
}

// Gt2 solves (G̃2 − τI)·z = rhs by block back-substitution:
// w = (⊕²G1 − τI)⁻¹·g, then x = (G1 − τI)⁻¹·(f − G2·w). It implements
// kron.ShiftedSolver so that the complex H̃3 evaluation (SolveKronC) can
// run the column recurrence over it.
type Gt2 struct {
	r *Realization
}

// Dim returns n + n².
func (g *Gt2) Dim() int {
	n := g.r.Sys.N
	return n + n*n
}

// SolveShifted computes (G̃2 − τI)⁻¹·rhs for real τ. It is the inner
// solve of every H2 Arnoldi step, so the ctx poll here is what makes
// that chain cancelable.
func (g *Gt2) SolveShifted(tau float64, rhs []float64) ([]float64, error) {
	if err := g.r.ctx.Err(); err != nil {
		return nil, err
	}
	n := g.r.Sys.N
	if len(rhs) != n+n*n {
		panic("assoc: Gt2 SolveShifted length mismatch")
	}
	s2, err := g.r.Sum2()
	if err != nil {
		return nil, err
	}
	w, err := s2.Solve(tau, rhs[n:])
	if err != nil {
		return nil, err
	}
	f, err := g.r.shiftedLU(tau)
	if err != nil {
		return nil, err
	}
	top := mat.CopyVec(rhs[:n])
	if g.r.Sys.G2 != nil {
		g.r.Sys.G2.AddMulVec(top, -1, w)
	}
	f.Solve(top, top)
	out := make([]float64, n+n*n)
	copy(out[:n], top)
	copy(out[n:], w)
	return out, nil
}

// SolveShiftedBatch computes (G̃2 − τI)⁻¹·rhs for a block of right-hand
// sides sharing one shift: the Kronecker-sum solves stay per column
// (the Schur recurrence is inherently vector-granular), but the top
// blocks all go through one batched (G1 − τI) substitution — the chain
// grouping of the block solve path. Per-column results are
// bit-identical to looped SolveShifted calls.
func (g *Gt2) SolveShiftedBatch(tau float64, rhss [][]float64) ([][]float64, error) {
	if err := g.r.ctx.Err(); err != nil {
		return nil, err
	}
	n := g.r.Sys.N
	s2, err := g.r.Sum2()
	if err != nil {
		return nil, err
	}
	f, err := g.r.shiftedLU(tau)
	if err != nil {
		return nil, err
	}
	// The top blocks solve in place inside the output buffers: outs[i]
	// is assembled as [rhs top | w] and its leading n entries are then
	// corrected and substituted directly — no per-column staging copy.
	outs := make([][]float64, len(rhss))
	tops := make([][]float64, len(rhss))
	ws := make([][]float64, len(rhss))
	for i, rhs := range rhss {
		if len(rhs) != n+n*n {
			panic("assoc: Gt2 SolveShiftedBatch length mismatch")
		}
		w, err := s2.Solve(tau, rhs[n:])
		if err != nil {
			return nil, err
		}
		out := make([]float64, n+n*n)
		copy(out[:n], rhs[:n])
		copy(out[n:], w)
		outs[i] = out
		tops[i] = out[:n]
		ws[i] = out[n:]
	}
	if g.r.Sys.G2 != nil {
		// One batched G2 pass for every column's coupling term (the row
		// metadata of the n×n² block is traversed once for the block).
		g2w := make([][]float64, len(ws))
		for i := range g2w {
			g2w[i] = mat.GetVec(n)
		}
		g.r.Sys.G2.MulBatchTo(g2w, ws)
		for i := range tops {
			mat.Axpy(-1, g2w[i], tops[i])
			mat.PutVec(g2w[i])
		}
	}
	g.r.solveBatch(f, tops)
	return outs, nil
}

// SolveShiftedC computes (G̃2 − τI)⁻¹·rhs for complex τ.
func (g *Gt2) SolveShiftedC(tau complex128, rhs []complex128) ([]complex128, error) {
	n := g.r.Sys.N
	if len(rhs) != n+n*n {
		panic("assoc: Gt2 SolveShiftedC length mismatch")
	}
	s2, err := g.r.Sum2()
	if err != nil {
		return nil, err
	}
	w, err := s2.SolveC(tau, rhs[n:])
	if err != nil {
		return nil, err
	}
	f, err := g.r.shiftedCLU(tau)
	if err != nil {
		return nil, err
	}
	top := make([]complex128, n)
	copy(top, rhs[:n])
	if g.r.Sys.G2 != nil {
		g2w := make([]complex128, n)
		g.r.Sys.G2.MulVecC(g2w, w)
		for i := range top {
			top[i] -= g2w[i]
		}
	}
	f.Solve(top, top)
	out := make([]complex128, n+n*n)
	copy(out[:n], top)
	copy(out[n:], w)
	return out, nil
}

// h3Schur is the H̃3 resolvent (G1⊕G̃2 − σI)⁻¹ in the Schur coordinates
// of G1. With G1 = Q·T·Qᵀ, the similarity Q ⊗ diag(Q, Q⊗Q) turns
// G1⊕G̃2 into T⊕[[T, Ĝ2], [0, ⊕²T]] with Ĝ2 = Qᵀ·G2·(Q⊗Q): every
// diagonal block is quasi-triangular, so the resolvent needs no shifted
// LU of G1 at all.
type h3Schur struct {
	s2  *kron.SumSolver2
	s3  *kron.SumSolver3
	g2h *mat.Dense
}

// h3Schur returns the Schur-coordinate H̃3 resolvent; Ĝ2 is built on
// first use and cached for the life of the realization.
func (r *Realization) h3Schur() (*h3Schur, error) {
	s2, err := r.Sum2()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.g2h == nil {
		r.g2h = schurG2(r.Sys.G2, s2.Schur().Q)
	}
	return &h3Schur{s2: s2, s3: kron.FromSchur3(s2.Schur()), g2h: r.g2h}, nil
}

// schurG2 returns Ĝ2 = Qᵀ·G2·(Q⊗Q) (n×n²) from the nonzeros of G2:
// entry g at (i, a·n+b) adds g·(Q[a,:]⊗Q[b,:]) to row i of G2·(Q⊗Q),
// and each nonzero row i of that product adds its outer product with
// Q[i,:] to Ĝ2.
func schurG2(g2 *sparse.CSR, q *mat.Dense) *mat.Dense {
	n := q.R
	n2 := n * n
	out := mat.NewDense(n, n2)
	row := make([]float64, n2)
	for i := 0; i < n; i++ {
		if g2.RowPtr[i] == g2.RowPtr[i+1] {
			continue
		}
		mat.Zero(row)
		for k := g2.RowPtr[i]; k < g2.RowPtr[i+1]; k++ {
			g, c := g2.Val[k], g2.ColIdx[k]
			qb := q.Row(c % n)
			for a, qa := range q.Row(c / n) {
				if ga := g * qa; ga != 0 {
					mat.Axpy(ga, qb, row[a*n:(a+1)*n])
				}
			}
		}
		for ip, qi := range q.Row(i) {
			if qi != 0 {
				mat.Axpy(qi, row, out.Row(ip))
			}
		}
	}
	return out
}

// solve applies (G1⊕G̃2 − σI)⁻¹ in place in Schur coordinates. The
// state is split into its top block (n blocks of n: the G1-rows of
// every G̃2 column) and its bottom block (n blocks of n²), solved in
// three steps:
//
//  1. the ⊕³T recurrence on the bottom block;
//  2. top −= Ĝ2·bottom, one product per column block;
//  3. one n×n quasi-triangular Sylvester solve (⊕²T − σI) for the top.
//
// ctx is polled once per outer column block of step 1.
func (h *h3Schur) solve(ctx context.Context, sigma float64, top, bot []float64) error {
	if err := h.s3.SolveSchur(ctx, sigma, bot); err != nil {
		return err
	}
	mulSubBlocks(h.g2h, bot, top)
	return h.s2.SolveSchur(sigma, top)
}

// mulSubBlocks computes top_p −= G·bot_p for every column block p
// (top_p of length G.R, bot_p of length G.C). Rows of G are taken four
// at a time so that each pass over bot_p feeds four dot products.
func mulSubBlocks(g *mat.Dense, bot, top []float64) {
	m, nc := g.R, g.C
	nb := len(top) / m
	i := 0
	for ; i+4 <= m; i += 4 {
		g0, g1, g2, g3 := g.Row(i), g.Row(i+1), g.Row(i+2), g.Row(i+3)
		for p := 0; p < nb; p++ {
			bp := bot[p*nc : (p+1)*nc]
			var s0, s1, s2, s3 float64
			for c, v := range bp {
				s0 += g0[c] * v
				s1 += g1[c] * v
				s2 += g2[c] * v
				s3 += g3[c] * v
			}
			tp := top[p*m+i : p*m+i+4]
			tp[0] -= s0
			tp[1] -= s1
			tp[2] -= s2
			tp[3] -= s3
		}
	}
	for ; i < m; i++ {
		gi := g.Row(i)
		for p := 0; p < nb; p++ {
			top[p*m+i] -= mat.Dot(gi, bot[p*nc:(p+1)*nc])
		}
	}
}

// SolveKronC solves (G1⊕G̃2 − σI)·z = v for complex σ, the resolvent
// of the H̃3 realization in original coordinates, via the column
// recurrence over Schur(G1) with inner complex G̃2 solves. v has length
// n·(n+n²), stored as n column-stacked blocks. It serves the
// transfer-function evaluation, an oracle independent of h3Schur.
func (r *Realization) SolveKronC(sigma complex128, v []complex128) ([]complex128, error) {
	s, err := r.Schur()
	if err != nil {
		return nil, err
	}
	return kron.ColumnSylvesterC(r.gt2, s, sigma, v)
}

// BuildGt2Dense forms G̃2 explicitly. Exponential in memory (n+n²)²; test
// and diagnostic use only.
func BuildGt2Dense(sys *qldae.System) *mat.Dense {
	n := sys.N
	nn := n + n*n
	g := mat.NewDense(nn, nn)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, sys.G1.At(i, j))
		}
	}
	if sys.G2 != nil {
		d := sys.G2.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n*n; j++ {
				g.Set(i, n+j, d.At(i, j))
			}
		}
	}
	ks := kron.SumDense(sys.G1, sys.G1)
	for i := 0; i < n*n; i++ {
		for j := 0; j < n*n; j++ {
			g.Set(n+i, n+j, ks.At(i, j))
		}
	}
	return g
}

// errNotSISO flags H3 paths that are implemented for single-input systems.
var errNotSISO = errors.New("assoc: third-order associated transform requires a SISO system")
