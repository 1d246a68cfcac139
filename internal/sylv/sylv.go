// Package sylv solves Sylvester equations
//
//	A·X + X·B  + σ·X = C      (variant N)
//	A·X + X·Bᵀ + σ·X = C      (variant T)
//
// for A, B upper quasi-triangular (real Schur factors), by the classic
// block back-substitution of Bartels & Stewart (the dtrsyl algorithm),
// plus full-matrix wrappers that compute the Schur forms first.
//
// This is the workhorse behind the paper's structured solves: the
// Kronecker-sum resolvents of Theorem 1, the Sylvester decoupling
// G1·Π + G2 = Π·(⊕²G1) of Eq. (18), and the quasi-triangular
// back-substitution advocated in §2.3 all reduce to these kernels.
package sylv

import (
	"errors"
	"fmt"

	"avtmor/internal/mat"
)

// ErrSingular indicates the equation is (numerically) singular: some
// eigenvalue pairing λi(A) + λj(B) + σ vanishes.
var ErrSingular = errors.New("sylv: singular Sylvester equation (λi(A)+λj(B)+σ ≈ 0)")

// blocks returns the quasi-triangular diagonal block partition of t.
func blocks(t *mat.Dense) [][2]int {
	var out [][2]int
	n := t.R
	for i := 0; i < n; {
		if i+1 < n && t.At(i+1, i) != 0 {
			out = append(out, [2]int{i, 2})
			i += 2
		} else {
			out = append(out, [2]int{i, 1})
			i++
		}
	}
	return out
}

// TrSylvN solves A·X + X·B + σ·X = C for upper quasi-triangular A (m×m)
// and B (n×n), real σ, dense C (m×n). C is not modified.
func TrSylvN(a, b *mat.Dense, sigma float64, c *mat.Dense) (*mat.Dense, error) {
	checkShapes(a, b, c.R, c.C)
	x := mat.NewDense(a.R, b.R)
	if err := NewTriangular(a, b).solveReal(x.A, sigma, c.A, false); err != nil {
		return nil, err
	}
	return x, nil
}

// TrSylvT solves A·X + X·Bᵀ + σ·X = C (same shapes as TrSylvN).
func TrSylvT(a, b *mat.Dense, sigma float64, c *mat.Dense) (*mat.Dense, error) {
	checkShapes(a, b, c.R, c.C)
	x := mat.NewDense(a.R, b.R)
	if err := NewTriangular(a, b).SolveT(x.A, sigma, c.A); err != nil {
		return nil, err
	}
	return x, nil
}

func checkShapes(a, b *mat.Dense, cr, cc int) {
	m, n := a.R, b.R
	if a.C != m || b.C != n || cr != m || cc != n {
		panic(fmt.Sprintf("sylv: shape mismatch A %d×%d B %d×%d C %d×%d", a.R, a.C, b.R, b.C, cr, cc))
	}
}

// Triangular solves the quasi-triangular equations against one fixed
// pair (A, B) repeatedly. It caches the diagonal block partitions, Bᵀ
// for variant N, and a transposed shadow of X, so that every inner
// product of the back-substitution runs over contiguous row slices:
// A's row against a shadow row (a column of X), and a row of X against
// a row of B (or of Bᵀ). Each entry's summation order is that of the
// textbook loop — the A terms by ascending column, then the B terms by
// ascending index — so results are bit-identical to it. A Triangular
// is not safe for concurrent use.
type Triangular struct {
	a, b   *mat.Dense
	ab, bb [][2]int
	bt     *mat.Dense   // Bᵀ, built on the first variant-N solve
	xt     []float64    // shadow: xt[j·m+i] = X[i][j]
	xtc    []complex128 // complex shadow
}

// NewTriangular prepares repeated solves with upper quasi-triangular A
// (m×m) and B (n×n).
func NewTriangular(a, b *mat.Dense) *Triangular {
	if a.R != a.C || b.R != b.C {
		panic(fmt.Sprintf("sylv: Triangular needs square factors, got %d×%d and %d×%d", a.R, a.C, b.R, b.C))
	}
	return &Triangular{a: a, b: b, ab: blocks(a), bb: blocks(b)}
}

// SolveT solves A·X + X·Bᵀ + σ·X = C. X and C are m×n row-major
// slices; x may alias c (the solve then runs in place).
func (t *Triangular) SolveT(x []float64, sigma float64, c []float64) error {
	return t.solveReal(x, sigma, c, true)
}

// SolveTC is SolveT for complex σ and C.
func (t *Triangular) SolveTC(x []complex128, sigma complex128, c []complex128) error {
	return t.solveCplx(x, sigma, c, true)
}

// bOp returns the matrix whose row l0+q holds the B-coupling terms of
// column l0+q of X: B itself for variant T, Bᵀ for variant N.
func (t *Triangular) bOp(transB bool) *mat.Dense {
	if transB {
		return t.b
	}
	if t.bt == nil {
		t.bt = t.b.T()
	}
	return t.bt
}

// order returns the column-block processing order: right to left for
// variant T, left to right for variant N.
func (t *Triangular) order(li int, transB bool) int {
	if transB {
		return len(t.bb) - 1 - li
	}
	return li
}

func (t *Triangular) solveReal(x []float64, sigma float64, c []float64, transB bool) error {
	a := t.a
	m, n := a.R, t.b.R
	if len(x) != m*n || len(c) != m*n {
		panic(fmt.Sprintf("sylv: Triangular solve on %d and %d entries, want %d×%d", len(x), len(c), m, n))
	}
	if len(t.xt) != m*n {
		t.xt = make([]float64, m*n)
	}
	xt := t.xt
	bop := t.bOp(transB)
	var f [4]float64
	for li := range t.bb {
		bl := t.bb[t.order(li, transB)]
		l0, ln := bl[0], bl[1]
		for ki := len(t.ab) - 1; ki >= 0; ki-- {
			k0, kn := t.ab[ki][0], t.ab[ki][1]
			// RHS block F = C_kl − Σ_{j>k} A_kj X_jl − (X·B or X·Bᵀ terms).
			for p := 0; p < kn; p++ {
				arow := a.A[(k0+p)*m+k0+kn : (k0+p+1)*m]
				xrow := x[(k0+p)*n : (k0+p+1)*n]
				for q := 0; q < ln; q++ {
					s := c[(k0+p)*n+l0+q]
					// Rows below the k block of A (A upper: columns j > k block).
					xcol := xt[(l0+q)*m+k0+kn : (l0+q+1)*m]
					xcol = xcol[:len(arow)]
					for j, ajv := range arow {
						s -= ajv * xcol[j]
					}
					brow := bop.A[(l0+q)*n : (l0+q+1)*n]
					if transB {
						// (X Bᵀ)_{k,l} = Σ_{i>l-block} X_ki·B_{l i} over processed cols.
						xs, bs := xrow[l0+ln:], brow[l0+ln:]
						bs = bs[:len(xs)]
						for i, xv := range xs {
							s -= xv * bs[i]
						}
					} else {
						// (X B)_{k,l} = Σ_{i<l-block} X_ki·B_{i l}.
						xs, bs := xrow[:l0], brow[:l0]
						for i, xv := range xs {
							s -= xv * bs[i]
						}
					}
					f[p*ln+q] = s
				}
			}
			var sol [4]float64
			if err := solveSmallReal(a, t.b, k0, kn, l0, ln, sigma, transB, f[:kn*ln], sol[:kn*ln]); err != nil {
				return err
			}
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					v := sol[p*ln+q]
					x[(k0+p)*n+l0+q] = v
					xt[(l0+q)*m+k0+p] = v
				}
			}
		}
	}
	return nil
}

// solveSmallReal solves the ≤2×2 by ≤2×2 block equation
// A_kk·Xb + Xb·Bop + σ·Xb = F, with Bop = B_ll or B_llᵀ, into sol
// (unknown x_{pq} at index p*ln+q).
func solveSmallReal(a, b *mat.Dense, k0, kn, l0, ln int, sigma float64, transB bool, f, sol []float64) error {
	sz := kn * ln
	var sys [16]float64
	// Unknown ordering: x_{pq} at index p*ln+q.
	for p := 0; p < kn; p++ {
		for q := 0; q < ln; q++ {
			row := (p*ln + q) * sz
			for r := 0; r < kn; r++ {
				for s := 0; s < ln; s++ {
					v := 0.0
					if s == q {
						v += a.At(k0+p, k0+r)
					}
					if r == p {
						if transB {
							v += b.At(l0+q, l0+s) // (Bᵀ)_{sq} = B_{qs}
						} else {
							v += b.At(l0+s, l0+q)
						}
					}
					if r == p && s == q {
						v += sigma
					}
					sys[row+r*ln+s] = v
				}
			}
		}
	}
	if !gauss(sys[:sz*sz], f, sol, sz) {
		return ErrSingular
	}
	return nil
}

// gauss solves an n×n (n ≤ 4) dense system in place with partial pivoting.
func gauss(a []float64, b []float64, x []float64, n int) bool {
	var aa [16]float64
	var bb [4]float64
	copy(aa[:], a[:n*n])
	copy(bb[:], b[:n])
	for k := 0; k < n; k++ {
		p, best := k, abs(aa[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := abs(aa[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return false
		}
		if p != k {
			for j := 0; j < n; j++ {
				aa[p*n+j], aa[k*n+j] = aa[k*n+j], aa[p*n+j]
			}
			bb[p], bb[k] = bb[k], bb[p]
		}
		inv := 1 / aa[k*n+k]
		for i := k + 1; i < n; i++ {
			l := aa[i*n+k] * inv
			if l == 0 {
				continue
			}
			for j := k; j < n; j++ {
				aa[i*n+j] -= l * aa[k*n+j]
			}
			bb[i] -= l * bb[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := bb[i]
		for j := i + 1; j < n; j++ {
			s -= aa[i*n+j] * x[j]
		}
		x[i] = s / aa[i*n+i]
	}
	return true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
