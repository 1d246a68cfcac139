package kron

import (
	"context"
	"math"
	"math/cmplx"

	"avtmor/internal/mat"
	"avtmor/internal/schur"
)

func cmplxSqrt(z complex128) complex128 { return cmplx.Sqrt(z) }

// ShiftedSolver abstracts an operator L through its shifted resolvent:
// SolveShifted computes (L − τI)⁻¹·rhs. Implementations in this repo:
// SumSolver2 (L = ⊕²G1) and assoc's G̃2 solver (L = the block-triangular
// realization matrix of Eq. (17)).
type ShiftedSolver interface {
	// Dim is the dimension L acts on.
	Dim() int
	// SolveShifted computes (L − τI)⁻¹ rhs for real τ.
	SolveShifted(tau float64, rhs []float64) ([]float64, error)
	// SolveShiftedC computes (L − τI)⁻¹ rhs for complex τ.
	SolveShiftedC(tau complex128, rhs []complex128) ([]complex128, error)
}

// Solve and SolveC of SumSolver2 already have the right shape; expose the
// interface explicitly.
func (ss *SumSolver2) SolveShifted(tau float64, rhs []float64) ([]float64, error) {
	return ss.Solve(tau, rhs)
}

// SolveShiftedC implements ShiftedSolver.
func (ss *SumSolver2) SolveShiftedC(tau complex128, rhs []complex128) ([]complex128, error) {
	return ss.SolveC(tau, rhs)
}

// Dim implements ShiftedSolver: SumSolver2 acts on length-n² vectors.
func (ss *SumSolver2) Dim() int { return ss.n * ss.n }

// ColumnSylvester solves the operator Sylvester equation
//
//	L(X) + X·Aᵀ − σ·X = V,   X ∈ R^{N×n},
//
// given a ShiftedSolver for L and the real Schur form A = Q·R·Qᵀ. X and V
// are stored column-stacked (vec). It is the Q transform of the right
// factor wrapped around the shared column recurrence: X̃ = X·Q solves
// L(X̃) + X̃·Rᵀ − σ·X̃ = V·Q, one shifted L-solve per column block
// (complexified across 2×2 blocks). ctx is polled once per column block.
func ColumnSylvester(ctx context.Context, op ShiftedSolver, sa *schur.Schur, sigma float64, v []float64) ([]float64, error) {
	nn := op.Dim()
	n := sa.T.R
	if len(v) != nn*n {
		panic("kron: ColumnSylvester length mismatch")
	}
	xt := rightMulCols(v, sa.Q, nn)
	if err := recurrence(ctx, shiftedOp{op}, sa.T, sa.Blocks(), sigma, xt, nn); err != nil {
		return nil, err
	}
	return rightMulCols(xt, sa.Q.T(), nn), nil
}

// columnSolver supplies the in-place inner solves (L − τI)⁻¹ of the
// column recurrence, for real and for complex τ.
type columnSolver interface {
	solve(tau float64, w []float64) error
	solveC(tau complex128, w []complex128) error
}

// shiftedOp adapts a ShiftedSolver to columnSolver.
type shiftedOp struct{ op ShiftedSolver }

func (s shiftedOp) solve(tau float64, w []float64) error {
	x, err := s.op.SolveShifted(tau, w)
	if err != nil {
		return err
	}
	copy(w, x)
	return nil
}

func (s shiftedOp) solveC(tau complex128, w []complex128) error {
	x, err := s.op.SolveShiftedC(tau, w)
	if err != nil {
		return err
	}
	copy(w, x)
	return nil
}

// recurrence solves L(X) + X·Tᵀ − σ·X = V in place for T upper
// quasi-triangular with standardized 2×2 blocks blks: x holds V (nn-long
// column blocks, one per row of T) on entry and X on return. Column
// blocks are retired right to left; each takes the already-solved
// blocks off its right-hand side and then one inner solve — for a 2×2
// block [[α,β],[γ,α]], βγ<0, one complex solve
// (L − (σ−α−iμ)I)·(x_p + i·s·x_q) = w_p + i·s·w_q with μ = √(−βγ),
// s = −β/μ. ctx is polled once per column block.
func recurrence(ctx context.Context, op columnSolver, t *mat.Dense, blks [][2]int, sigma float64, x []float64, nn int) error {
	var wc []complex128
	for bi := len(blks) - 1; bi >= 0; bi-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		l0, ln := blks[bi][0], blks[bi][1]
		for p := 0; p < ln; p++ {
			subtractSolved(x[(l0+p)*nn:(l0+p+1)*nn], t.Row(l0 + p)[l0+ln:], x[(l0+ln)*nn:], nn)
		}
		if ln == 1 {
			if err := op.solve(sigma-t.At(l0, l0), x[l0*nn:(l0+1)*nn]); err != nil {
				return err
			}
			continue
		}
		alpha := t.At(l0, l0)
		beta := t.At(l0, l0+1)
		gamma := t.At(l0+1, l0)
		mu := math.Sqrt(-beta * gamma)
		sc := -beta / mu
		if wc == nil {
			wc = make([]complex128, nn)
		}
		xp := x[l0*nn : (l0+1)*nn]
		xq := x[(l0+1)*nn : (l0+2)*nn]
		for i := range wc {
			wc[i] = complex(xp[i], sc*xq[i])
		}
		if err := op.solveC(complex(sigma-alpha, -mu), wc); err != nil {
			return err
		}
		for i, zi := range wc {
			xp[i] = real(zi)
			xq[i] = imag(zi) / sc
		}
	}
	return nil
}

// subtractSolved computes w −= Σ_k r[k]·x_k over the solved column
// blocks x_k (x[k·nn:(k+1)·nn]), skipping zero coefficients. Every
// entry takes its subtractions in ascending k, four blocks per pass
// over w.
func subtractSolved(w, r, x []float64, nn int) {
	var ks [4]int
	var cs [4]float64
	m := 0
	flush := func() {
		switch m {
		case 1:
			x0 := x[ks[0]*nn : ks[0]*nn+nn]
			c0 := cs[0]
			for i := range w {
				w[i] -= c0 * x0[i]
			}
		case 2:
			x0, x1 := x[ks[0]*nn:ks[0]*nn+nn], x[ks[1]*nn:ks[1]*nn+nn]
			c0, c1 := cs[0], cs[1]
			for i := range w {
				w[i] = w[i] - c0*x0[i] - c1*x1[i]
			}
		case 3:
			x0, x1, x2 := x[ks[0]*nn:ks[0]*nn+nn], x[ks[1]*nn:ks[1]*nn+nn], x[ks[2]*nn:ks[2]*nn+nn]
			c0, c1, c2 := cs[0], cs[1], cs[2]
			for i := range w {
				w[i] = w[i] - c0*x0[i] - c1*x1[i] - c2*x2[i]
			}
		case 4:
			x0, x1, x2, x3 := x[ks[0]*nn:ks[0]*nn+nn], x[ks[1]*nn:ks[1]*nn+nn], x[ks[2]*nn:ks[2]*nn+nn], x[ks[3]*nn:ks[3]*nn+nn]
			c0, c1, c2, c3 := cs[0], cs[1], cs[2], cs[3]
			for i := range w {
				w[i] = w[i] - c0*x0[i] - c1*x1[i] - c2*x2[i] - c3*x3[i]
			}
		}
		m = 0
	}
	for k, rk := range r {
		if rk == 0 {
			continue
		}
		ks[m], cs[m] = k, rk
		m++
		if m == len(ks) {
			flush()
		}
	}
	flush()
}

// ColumnSylvesterC is the fully complex variant of ColumnSylvester
// (complex σ and V): 2×2 blocks are decoupled by diagonalizing the block
// coupling instead of conjugate complexification.
func ColumnSylvesterC(op ShiftedSolver, sa *schur.Schur, sigma complex128, v []complex128) ([]complex128, error) {
	nn := op.Dim()
	n := sa.T.R
	if len(v) != nn*n {
		panic("kron: ColumnSylvesterC length mismatch")
	}
	r := sa.T
	vt := rightMulColsC(v, sa.Q, nn)
	xt := make([]complex128, nn*n)
	blks := sa.Blocks()
	for bi := len(blks) - 1; bi >= 0; bi-- {
		l0, ln := blks[bi][0], blks[bi][1]
		rhs := make([][]complex128, ln)
		for p := 0; p < ln; p++ {
			w := make([]complex128, nn)
			copy(w, vt[(l0+p)*nn:(l0+p+1)*nn])
			for k := l0 + ln; k < n; k++ {
				rlk := complex(r.At(l0+p, k), 0)
				if rlk == 0 {
					continue
				}
				xk := xt[k*nn : (k+1)*nn]
				for i := range w {
					w[i] -= rlk * xk[i]
				}
			}
			rhs[p] = w
		}
		if ln == 1 {
			x, err := op.SolveShiftedC(sigma-complex(r.At(l0, l0), 0), rhs[0])
			if err != nil {
				return nil, err
			}
			copy(xt[l0*nn:(l0+1)*nn], x)
			continue
		}
		alpha := complex(r.At(l0, l0), 0)
		beta := complex(r.At(l0, l0+1), 0)
		gamma := complex(r.At(l0+1, l0), 0)
		m := cmplxSqrt(beta * gamma)
		w1 := make([]complex128, nn)
		w2 := make([]complex128, nn)
		for i := 0; i < nn; i++ {
			wp, wq := rhs[0][i], rhs[1][i]
			w1[i] = wp*gamma + wq*m
			w2[i] = wp*gamma - wq*m
		}
		y1, err := op.SolveShiftedC(sigma-(alpha+m), w1)
		if err != nil {
			return nil, err
		}
		y2, err := op.SolveShiftedC(sigma-(alpha-m), w2)
		if err != nil {
			return nil, err
		}
		det := -2 * gamma * m
		xp := xt[l0*nn : (l0+1)*nn]
		xq := xt[(l0+1)*nn : (l0+2)*nn]
		for i := 0; i < nn; i++ {
			xp[i] = (y1[i]*(-m) + y2[i]*(-m)) / det
			xq[i] = (y1[i]*(-gamma) + y2[i]*gamma) / det
		}
	}
	return rightMulColsC(xt, sa.Q.T(), nn), nil
}
