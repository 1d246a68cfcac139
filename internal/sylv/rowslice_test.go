package sylv

import (
	"math"
	"math/rand"
	"testing"

	"avtmor/internal/mat"
)

// refTrSylvReal is the textbook At()-based back-substitution the
// row-slice recurrence replaced; it is kept here as the bit-exact
// reference.
func refTrSylvReal(a, b *mat.Dense, sigma float64, c *mat.Dense, transB bool) (*mat.Dense, error) {
	m, n := a.R, b.R
	x := mat.NewDense(m, n)
	ab, bb := blocks(a), blocks(b)
	var f [4]float64
	for li := range bb {
		if transB {
			li = len(bb) - 1 - li
		}
		l0, ln := bb[li][0], bb[li][1]
		for ki := len(ab) - 1; ki >= 0; ki-- {
			k0, kn := ab[ki][0], ab[ki][1]
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					s := c.At(k0+p, l0+q)
					for j := k0 + kn; j < m; j++ {
						s -= a.At(k0+p, j) * x.At(j, l0+q)
					}
					if transB {
						for i := l0 + ln; i < n; i++ {
							s -= x.At(k0+p, i) * b.At(l0+q, i)
						}
					} else {
						for i := 0; i < l0; i++ {
							s -= x.At(k0+p, i) * b.At(i, l0+q)
						}
					}
					f[p*ln+q] = s
				}
			}
			var sol [4]float64
			if err := solveSmallReal(a, b, k0, kn, l0, ln, sigma, transB, f[:kn*ln], sol[:kn*ln]); err != nil {
				return nil, err
			}
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					x.Set(k0+p, l0+q, sol[p*ln+q])
				}
			}
		}
	}
	return x, nil
}

// refTrSylvCplx is the complex counterpart of refTrSylvReal.
func refTrSylvCplx(a, b *mat.Dense, sigma complex128, c *mat.CDense, transB bool) (*mat.CDense, error) {
	m, n := a.R, b.R
	x := mat.NewCDense(m, n)
	ab, bb := blocks(a), blocks(b)
	var f [4]complex128
	for li := range bb {
		if transB {
			li = len(bb) - 1 - li
		}
		l0, ln := bb[li][0], bb[li][1]
		for ki := len(ab) - 1; ki >= 0; ki-- {
			k0, kn := ab[ki][0], ab[ki][1]
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					s := c.At(k0+p, l0+q)
					for j := k0 + kn; j < m; j++ {
						s -= complex(a.At(k0+p, j), 0) * x.At(j, l0+q)
					}
					if transB {
						for i := l0 + ln; i < n; i++ {
							s -= x.At(k0+p, i) * complex(b.At(l0+q, i), 0)
						}
					} else {
						for i := 0; i < l0; i++ {
							s -= x.At(k0+p, i) * complex(b.At(i, l0+q), 0)
						}
					}
					f[p*ln+q] = s
				}
			}
			var sol [4]complex128
			if err := solveSmallCplx(a, b, k0, kn, l0, ln, sigma, transB, f[:kn*ln], sol[:kn*ln]); err != nil {
				return nil, err
			}
			for p := 0; p < kn; p++ {
				for q := 0; q < ln; q++ {
					x.Set(k0+p, l0+q, sol[p*ln+q])
				}
			}
		}
	}
	return x, nil
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

func sameBitsC(a, b []complex128) bool {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// hasBothBlocks reports whether t has at least one 1×1 and one 2×2
// diagonal block.
func hasBothBlocks(t *mat.Dense) bool {
	var one, two bool
	for _, bl := range blocks(t) {
		one = one || bl[1] == 1
		two = two || bl[1] == 2
	}
	return one && two
}

// TestRowSliceBitExact pins the row-slice recurrences of TrSylvN/T and
// TrSylvNC/TC, and the in-place reuse of one Triangular, to the
// textbook loops bit for bit, on quasi-triangular factors with both
// 1×1 and 2×2 diagonal blocks.
func TestRowSliceBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		m, n := 3+rng.Intn(12), 3+rng.Intn(12)
		a := randQuasiTri(rng, m)
		b := randQuasiTri(rng, n)
		if trial%2 == 0 {
			b = a // the Kronecker-sum case A = B
			n = m
		}
		if !hasBothBlocks(a) || !hasBothBlocks(b) {
			continue
		}
		checked++
		sigma := 0.4*rng.Float64() - 0.2
		c := mat.RandDense(rng, m, n)
		cc := mat.NewCDense(m, n)
		for i := range cc.A {
			cc.A[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		}
		csig := complex(sigma, 0.7*rng.Float64())
		tri := NewTriangular(a, b)
		for _, transB := range []bool{false, true} {
			want, err := refTrSylvReal(a, b, sigma, c, transB)
			if err != nil {
				t.Fatal(err)
			}
			var got *mat.Dense
			if transB {
				got, err = TrSylvT(a, b, sigma, c)
			} else {
				got, err = TrSylvN(a, b, sigma, c)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.A, want.A) {
				t.Fatalf("trial %d transB=%v: real row-slice solve differs from the reference", trial, transB)
			}
			// In place, through a reused Triangular (stale shadow).
			inPlace := append([]float64(nil), c.A...)
			if err := tri.solveReal(inPlace, sigma, inPlace, transB); err != nil {
				t.Fatal(err)
			}
			if !sameBits(inPlace, want.A) {
				t.Fatalf("trial %d transB=%v: in-place real solve differs from the reference", trial, transB)
			}

			wantC, err := refTrSylvCplx(a, b, csig, cc, transB)
			if err != nil {
				t.Fatal(err)
			}
			var gotC *mat.CDense
			if transB {
				gotC, err = TrSylvTC(a, b, csig, cc)
			} else {
				gotC, err = TrSylvNC(a, b, csig, cc)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameBitsC(gotC.A, wantC.A) {
				t.Fatalf("trial %d transB=%v: complex row-slice solve differs from the reference", trial, transB)
			}
			inPlaceC := append([]complex128(nil), cc.A...)
			if err := tri.solveCplx(inPlaceC, csig, inPlaceC, transB); err != nil {
				t.Fatal(err)
			}
			if !sameBitsC(inPlaceC, wantC.A) {
				t.Fatalf("trial %d transB=%v: in-place complex solve differs from the reference", trial, transB)
			}
		}
	}
	if checked < 30 {
		t.Fatalf("only %d of 60 trials had both block sizes", checked)
	}
}
