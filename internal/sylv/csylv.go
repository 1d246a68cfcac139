package sylv

import (
	"fmt"
	"math/cmplx"

	"avtmor/internal/mat"
)

// Complex-shift variants. A and B stay real quasi-triangular (they come
// from one cached real Schur decomposition); the shift σ and the
// right-hand side are complex. These appear whenever a 2×2 Schur block
// (complex eigenvalue pair) is complexified into a single shifted solve,
// and when evaluating transfer functions at s = jω.

// TrSylvNC solves A·X + X·B + σ·X = C with complex σ and C.
func TrSylvNC(a, b *mat.Dense, sigma complex128, c *mat.CDense) (*mat.CDense, error) {
	checkShapes(a, b, c.R, c.C)
	x := mat.NewCDense(a.R, b.R)
	if err := NewTriangular(a, b).solveCplx(x.A, sigma, c.A, false); err != nil {
		return nil, err
	}
	return x, nil
}

// TrSylvTC solves A·X + X·Bᵀ + σ·X = C with complex σ and C.
func TrSylvTC(a, b *mat.Dense, sigma complex128, c *mat.CDense) (*mat.CDense, error) {
	checkShapes(a, b, c.R, c.C)
	x := mat.NewCDense(a.R, b.R)
	if err := NewTriangular(a, b).SolveTC(x.A, sigma, c.A); err != nil {
		return nil, err
	}
	return x, nil
}

// solveCplx is solveReal over complex X and C; the real factor entries
// enter every product as complex(v, 0), as in the textbook loop.
func (t *Triangular) solveCplx(x []complex128, sigma complex128, c []complex128, transB bool) error {
	a := t.a
	m, n := a.R, t.b.R
	if len(x) != m*n || len(c) != m*n {
		panic(fmt.Sprintf("sylv: Triangular solve on %d and %d entries, want %d×%d", len(x), len(c), m, n))
	}
	if len(t.xtc) != m*n {
		t.xtc = make([]complex128, m*n)
	}
	xt := t.xtc
	bop := t.bOp(transB)
	var f [4]complex128
	for li := range t.bb {
		bl := t.bb[t.order(li, transB)]
		l0, ln := bl[0], bl[1]
		for ki := len(t.ab) - 1; ki >= 0; ki-- {
			k0, kn := t.ab[ki][0], t.ab[ki][1]
			for p := 0; p < kn; p++ {
				arow := a.A[(k0+p)*m+k0+kn : (k0+p+1)*m]
				xrow := x[(k0+p)*n : (k0+p+1)*n]
				for q := 0; q < ln; q++ {
					s := c[(k0+p)*n+l0+q]
					xcol := xt[(l0+q)*m+k0+kn : (l0+q+1)*m]
					for j, ajv := range arow {
						s -= complex(ajv, 0) * xcol[j]
					}
					brow := bop.A[(l0+q)*n : (l0+q+1)*n]
					if transB {
						xs, bs := xrow[l0+ln:], brow[l0+ln:]
						for i, xv := range xs {
							s -= xv * complex(bs[i], 0)
						}
					} else {
						xs, bs := xrow[:l0], brow[:l0]
						for i, xv := range xs {
							s -= xv * complex(bs[i], 0)
						}
					}
					f[p*ln+q] = s
				}
			}
			var sol [4]complex128
			if err := solveSmallCplx(a, t.b, k0, kn, l0, ln, sigma, transB, f[:kn*ln], sol[:kn*ln]); err != nil {
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

func solveSmallCplx(a, b *mat.Dense, k0, kn, l0, ln int, sigma complex128, transB bool, f, sol []complex128) error {
	sz := kn * ln
	var sys [16]complex128
	for p := 0; p < kn; p++ {
		for q := 0; q < ln; q++ {
			row := (p*ln + q) * sz
			for r := 0; r < kn; r++ {
				for s := 0; s < ln; s++ {
					var v complex128
					if s == q {
						v += complex(a.At(k0+p, k0+r), 0)
					}
					if r == p {
						if transB {
							v += complex(b.At(l0+q, l0+s), 0)
						} else {
							v += complex(b.At(l0+s, l0+q), 0)
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
	if !gaussC(sys[:sz*sz], f, sol, sz) {
		return ErrSingular
	}
	return nil
}

func gaussC(a []complex128, b []complex128, x []complex128, n int) bool {
	var aa [16]complex128
	var bb [4]complex128
	copy(aa[:], a[:n*n])
	copy(bb[:], b[:n])
	for k := 0; k < n; k++ {
		p, best := k, cmplx.Abs(aa[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(aa[i*n+k]); v > best {
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
