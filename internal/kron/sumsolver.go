package kron

import (
	"context"

	"avtmor/internal/mat"
	"avtmor/internal/schur"
	"avtmor/internal/sylv"
)

// SumSolver2 solves (⊕²A − σI)·z = v through the Sylvester equation
// A·X + X·Aᵀ − σ·X = V with one cached real Schur decomposition of A.
type SumSolver2 struct {
	n  int
	s  *schur.Schur
	qt *mat.Dense // Qᵀ cached
}

// NewSumSolver2 caches the Schur form of a.
func NewSumSolver2(a *mat.Dense) (*SumSolver2, error) {
	s, err := schur.Decompose(a)
	if err != nil {
		return nil, err
	}
	return &SumSolver2{n: a.R, s: s, qt: s.Q.T()}, nil
}

// FromSchur builds a solver around an existing decomposition.
func FromSchur(s *schur.Schur) *SumSolver2 {
	return &SumSolver2{n: s.T.R, s: s, qt: s.Q.T()}
}

// N returns the base dimension n (the solver acts on length-n² vectors).
func (ss *SumSolver2) N() int { return ss.n }

// Schur exposes the cached decomposition of A.
func (ss *SumSolver2) Schur() *schur.Schur { return ss.s }

// Solve computes z with (⊕²A − σI)·z = v for real σ.
func (ss *SumSolver2) Solve(sigma float64, v []float64) ([]float64, error) {
	n := ss.n
	vm := Unvec(v, n, n)
	// Y = Qᵀ V Q;  R·X̃ + X̃·Rᵀ − σ·X̃ = Y;  X = Q X̃ Qᵀ.
	y := ss.qt.Mul(vm).Mul(ss.s.Q)
	xt, err := sylv.TrSylvT(ss.s.T, ss.s.T, -sigma, y)
	if err != nil {
		return nil, err
	}
	x := ss.s.Q.Mul(xt).Mul(ss.qt)
	return Vec(x), nil
}

// SolveSchur solves (⊕²T − σI)·z̃ = ṽ in place in Schur coordinates,
// z̃ = (Qᵀ⊗Qᵀ)·z: the quasi-triangular Sylvester equation
// T·Y + Y·Tᵀ − σ·Y = Ṽ on z read as a row-major n×n Y (the operator
// commutes with transposition, so either reading of vec is valid).
func (ss *SumSolver2) SolveSchur(sigma float64, z []float64) error {
	t := ss.s.T
	return sylv.NewTriangular(t, t).SolveT(z, -sigma, z)
}

// SolveC computes z with (⊕²A − σI)·z = v for complex σ and v.
func (ss *SumSolver2) SolveC(sigma complex128, v []complex128) ([]complex128, error) {
	n := ss.n
	vm := UnvecC(v, n, n)
	y := mulRealLeft(ss.qt, mulRealRight(vm, ss.s.Q))
	xt, err := sylv.TrSylvTC(ss.s.T, ss.s.T, -sigma, y)
	if err != nil {
		return nil, err
	}
	x := mulRealLeft(ss.s.Q, mulRealRight(xt, ss.qt))
	return VecC(x), nil
}

// mulRealLeft returns A·X for real A, complex X.
func mulRealLeft(a *mat.Dense, x *mat.CDense) *mat.CDense {
	if a.C != x.R {
		panic("kron: mulRealLeft shape mismatch")
	}
	out := mat.NewCDense(a.R, x.C)
	for i := 0; i < a.R; i++ {
		for k := 0; k < a.C; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			ca := complex(aik, 0)
			xrow := x.A[k*x.C : (k+1)*x.C]
			orow := out.A[i*x.C : (i+1)*x.C]
			for j := range xrow {
				orow[j] += ca * xrow[j]
			}
		}
	}
	return out
}

// mulRealRight returns X·B for complex X, real B.
func mulRealRight(x *mat.CDense, b *mat.Dense) *mat.CDense {
	if x.C != b.R {
		panic("kron: mulRealRight shape mismatch")
	}
	out := mat.NewCDense(x.R, b.C)
	for i := 0; i < x.R; i++ {
		xrow := x.A[i*x.C : (i+1)*x.C]
		orow := out.A[i*b.C : (i+1)*b.C]
		for k, xik := range xrow {
			if xik == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bkj := range brow {
				if bkj != 0 {
					orow[j] += xik * complex(bkj, 0)
				}
			}
		}
	}
	return out
}

// SumSolver3 solves (⊕³A − σI)·z = v by a Bartels–Stewart recurrence over
// the Schur form of A on the right factor, with order-2 solves inside:
// viewing z = vec(X), X ∈ R^{n²×n},
//
//	(⊕²A)·X + X·Aᵀ − σ·X = V.
//
// In Schur coordinates z̃ = (Qᵀ⊗Qᵀ⊗Qᵀ)·z the whole recurrence is
// triangular (the ⊕³T recurrence of SolveSchur): every inner order-2
// solve is one quasi-triangular Sylvester equation, with one complex
// solve per 2×2 Schur block of the outer factor. SolveC, for complex
// shifts, keeps the original-coordinate column recurrence with inner
// order-2 solves.
type SumSolver3 struct {
	n  int
	s2 *SumSolver2
}

// NewSumSolver3 caches the Schur form of a.
func NewSumSolver3(a *mat.Dense) (*SumSolver3, error) {
	s2, err := NewSumSolver2(a)
	if err != nil {
		return nil, err
	}
	return &SumSolver3{n: a.R, s2: s2}, nil
}

// FromSchur3 builds an order-3 solver around an existing decomposition.
func FromSchur3(s *schur.Schur) *SumSolver3 {
	return &SumSolver3{n: s.T.R, s2: FromSchur(s)}
}

// N returns the base dimension n (the solver acts on length-n³ vectors).
func (ss *SumSolver3) N() int { return ss.n }

// Schur exposes the cached decomposition of A.
func (ss *SumSolver3) Schur() *schur.Schur { return ss.s2.s }

// Solve computes z with (⊕³A − σI)·z = v for real σ and v of length n³:
// the Q transform of all three modes around SolveSchur.
func (ss *SumSolver3) Solve(sigma float64, v []float64) ([]float64, error) {
	n := ss.n
	if len(v) != n*n*n {
		panic("kron: SumSolver3 length mismatch")
	}
	z := apply3(ss.s2.s.Q, v)
	if err := ss.SolveSchur(context.TODO(), sigma, z); err != nil {
		return nil, err
	}
	return apply3(ss.s2.qt, z), nil
}

// SolveSchur solves (⊕³T − σI)·z̃ = ṽ in place in Schur coordinates
// z̃ = (Qᵀ⊗Qᵀ⊗Qᵀ)·z, with no transform at all: z̃ is read as n column
// blocks of length n² (the first Kronecker factor indexes the blocks),
// and the column recurrence over T runs its inner ⊕²T solves as
// quasi-triangular Sylvester equations on each block read as a
// row-major n×n matrix. A chain of resolvent powers stays in these
// coordinates from its transformed seed to its last power. ctx is
// polled once per outer column block.
func (ss *SumSolver3) SolveSchur(ctx context.Context, sigma float64, z []float64) error {
	n := ss.n
	if len(z) != n*n*n {
		panic("kron: SumSolver3 SolveSchur length mismatch")
	}
	t := ss.s2.s.T
	return recurrence(ctx, triOp{sylv.NewTriangular(t, t)}, t, ss.s2.s.Blocks(), sigma, z, n*n)
}

// triOp runs the inner (⊕²T − τI) solves of the ⊕³T recurrence in place.
type triOp struct{ tr *sylv.Triangular }

func (o triOp) solve(tau float64, w []float64) error { return o.tr.SolveT(w, -tau, w) }

func (o triOp) solveC(tau complex128, w []complex128) error { return o.tr.SolveTC(w, -tau, w) }

// SolveC computes z with (⊕³A − σI)·z = v for complex σ, v.
func (ss *SumSolver3) SolveC(sigma complex128, v []complex128) ([]complex128, error) {
	n := ss.n
	if len(v) != n*n*n {
		panic("kron: SumSolver3 length mismatch")
	}
	return ColumnSylvesterC(ss.s2, ss.s2.s, sigma, v)
}

// apply3 returns (Mᵀ⊗Mᵀ⊗Mᵀ)·z for a length-n³ z, one mode at a time:
// with M = Q it maps into Schur coordinates, with M = Qᵀ back out.
func apply3(m *mat.Dense, z []float64) []float64 {
	n := m.R
	n2 := n * n
	t := rightMulCols(z, m, n2) // first factor: the n² blocks
	for a := 0; a < n; a++ {    // second factor: the length-n rows of each block
		slab := t[a*n2 : (a+1)*n2]
		copy(slab, rightMulCols(slab, m, n))
	}
	out := make([]float64, len(z)) // third factor: each contiguous fiber
	for r := 0; r < n2; r++ {
		orow := out[r*n : (r+1)*n]
		for d, v := range t[r*n : (r+1)*n] {
			if v == 0 {
				continue
			}
			for j, mdj := range m.Row(d) {
				orow[j] += v * mdj
			}
		}
	}
	return out
}

// rightMulCols computes the column-block product W = Z·M where Z is
// stored as cols columns of length rows (column-major), M is small.
func rightMulCols(z []float64, m *mat.Dense, rows int) []float64 {
	cols := m.R
	out := make([]float64, rows*m.C)
	for j := 0; j < m.C; j++ {
		oj := out[j*rows : (j+1)*rows]
		for k := 0; k < cols; k++ {
			mkj := m.At(k, j)
			if mkj == 0 {
				continue
			}
			zk := z[k*rows : (k+1)*rows]
			for i := range oj {
				oj[i] += mkj * zk[i]
			}
		}
	}
	return out
}

func rightMulColsC(z []complex128, m *mat.Dense, rows int) []complex128 {
	cols := m.R
	out := make([]complex128, rows*m.C)
	for j := 0; j < m.C; j++ {
		oj := out[j*rows : (j+1)*rows]
		for k := 0; k < cols; k++ {
			mkj := complex(m.At(k, j), 0)
			if mkj == 0 {
				continue
			}
			zk := z[k*rows : (k+1)*rows]
			for i := range oj {
				oj[i] += mkj * zk[i]
			}
		}
	}
	return out
}
