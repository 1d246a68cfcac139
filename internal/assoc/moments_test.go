package assoc

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"avtmor/internal/kron"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/qr"
	"avtmor/internal/sparse"
)

// taylorCoeffs extracts Taylor coefficients of an analytic vector function
// about s0 by trapezoidal contour sampling on a radius-ρ circle.
func taylorCoeffs(f func(complex128) ([]complex128, error), s0 complex128, rho float64, kmax, n int, t *testing.T) [][]complex128 {
	t.Helper()
	const m = 32
	samples := make([][]complex128, m)
	for l := 0; l < m; l++ {
		theta := 2 * math.Pi * float64(l) / m
		s := s0 + complex(rho*math.Cos(theta), rho*math.Sin(theta))
		v, err := f(s)
		if err != nil {
			t.Fatal(err)
		}
		samples[l] = v
	}
	coeffs := make([][]complex128, kmax)
	for k := 0; k < kmax; k++ {
		c := make([]complex128, n)
		for l := 0; l < m; l++ {
			theta := 2 * math.Pi * float64(l) / m
			w := cmplx.Exp(complex(0, -float64(k)*theta)) / complex(float64(m)*math.Pow(rho, float64(k)), 0)
			for i := range c {
				c[i] += w * samples[l][i]
			}
		}
		coeffs[k] = c
	}
	return coeffs
}

// inSpan reports the relative residual of (the real part of) v after
// projection onto the orthonormalized columns.
func inSpan(cols [][]float64, v []complex128) float64 {
	basis := qr.Orthonormalize(cols, 1e-12)
	if basis == nil {
		return 1
	}
	re := mat.RealPart(v)
	nrm := mat.Norm2(re)
	if nrm == 0 {
		return 0
	}
	coef := make([]float64, basis.C)
	basis.MulVecT(coef, re)
	rec := make([]float64, len(re))
	basis.MulVec(rec, coef)
	mat.Axpy(-1, re, rec)
	return mat.Norm2(rec) / nrm
}

func TestH1MomentsSpanTaylor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := testSystem(rng, 6, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	const k1 = 4
	ms, err := r.H1Moments(k1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != k1 {
		t.Fatalf("got %d H1 moments", len(ms))
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalH1(0, s)
	}, 0, 0.05, k1, sys.N, t)
	for k, c := range coeffs {
		if res := inSpan(ms[:k+1], c); res > 1e-6 {
			t.Fatalf("H1 Taylor coefficient %d not in moment span (residual %g)", k, res)
		}
	}
}

func TestH2CandidatesSpanTaylor(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sys := testSystem(rng, 5, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	const k2 = 3
	cand, err := r.H2Candidates(k2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cand) == 0 {
		t.Fatal("no H2 candidates")
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalAssocH2(0, 0, s)
	}, 0, 0.05, k2, sys.N, t)
	for k, c := range coeffs {
		if res := inSpan(cand, c); res > 1e-5 {
			t.Fatalf("A2(H2) Taylor coefficient %d not in candidate span (residual %g)", k, res)
		}
	}
}

func TestH3MomentsSpanTaylor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sys := testSystem(rng, 4, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	const k3 = 3
	ms, err := r.H3Moments(k3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != k3 {
		t.Fatalf("got %d H3 moments", len(ms))
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalAssocH3(s)
	}, 0, 0.05, k3, sys.N, t)
	for k, c := range coeffs {
		// m_k is the exact k-th moment (up to scale), so the span of
		// m_0..m_k must contain the k-th Taylor coefficient.
		if res := inSpan(ms[:k+1], c); res > 1e-5 {
			t.Fatalf("A3(H3) Taylor coefficient %d not in moment span (residual %g)", k, res)
		}
	}
}

// stableWithPairs returns a stable n×n matrix whose real Schur form has
// both 2×2 blocks (complex pairs) and, for odd n, a 1×1 block: rotation
// blocks with a mild random coupling, behind a random orthogonal
// similarity so that Q is dense.
func stableWithPairs(rng *rand.Rand, n int) *mat.Dense {
	a := mat.NewDense(n, n)
	i := 0
	for ; i+1 < n; i += 2 {
		re := -0.5 - rng.Float64()
		im := 0.3 + rng.Float64()
		a.Set(i, i, re)
		a.Set(i+1, i+1, re)
		a.Set(i, i+1, im)
		a.Set(i+1, i, -im)
	}
	if i < n {
		a.Set(i, i, -0.5-rng.Float64())
	}
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			a.Add(r, c, 0.05*(2*rng.Float64()-1))
		}
	}
	cols := make([][]float64, n)
	for c := range cols {
		cols[c] = mat.RandVec(rng, n)
	}
	v := qr.Orthonormalize(cols, 1e-12)
	return v.Mul(a).Mul(v.T())
}

// TestH3MomentsSpanTaylorRandomized is the property form of the two
// H3 span tests: over several seeds, n = 3…8 with forced complex Schur
// pairs, and expansion points 0 and 0.3, the moment vectors of the
// quadratic (with D1) and the cubic Schur-coordinate chains span the
// Taylor coefficients of A3(H3). EvalAssocH3 and EvalAssocH3Cubic run
// the complex original-coordinate column recurrence, so they are an
// oracle independent of the chains under test.
func TestH3MomentsSpanTaylorRandomized(t *testing.T) {
	const k3 = 3
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		for n := 3; n <= 8; n++ {
			g1 := stableWithPairs(rng, n)
			g2b := sparse.NewBuilder(n, n*n)
			for i := 0; i < 3*n; i++ {
				g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.4*(2*rng.Float64()-1))
			}
			g3b := sparse.NewBuilder(n, n*n*n)
			for i := 0; i < 2*n; i++ {
				g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.3*(2*rng.Float64()-1))
			}
			b, l := mat.RandDense(rng, n, 1), mat.RandDense(rng, 1, n)
			quad := &qldae.System{N: n, G1: g1, G2: g2b.Build(), B: b, L: l,
				D1: []*mat.Dense{mat.RandDense(rng, n, n).Scale(0.3)}}
			cubic := &qldae.System{N: n, G1: g1, G3: g3b.Build(), B: b, L: l}
			rq, err := New(quad)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := New(cubic)
			if err != nil {
				t.Fatal(err)
			}
			s, err := rc.Schur()
			if err != nil {
				t.Fatal(err)
			}
			pairs := 0
			for _, bl := range s.Blocks() {
				if bl[1] == 2 {
					pairs++
				}
			}
			if pairs == 0 {
				t.Fatalf("seed %d n=%d: no complex Schur pair", seed, n)
			}
			s3 := kron.FromSchur3(s)
			for _, s0 := range []float64{0, 0.3} {
				for _, tc := range []struct {
					name    string
					moments func() ([][]float64, error)
					eval    func(complex128) ([]complex128, error)
				}{
					{"quadratic", func() ([][]float64, error) { return rq.H3Moments(k3, s0) }, rq.EvalAssocH3},
					{"cubic", func() ([][]float64, error) { return rc.H3MomentsCubic(s3, k3, s0) },
						func(s complex128) ([]complex128, error) { return rc.EvalAssocH3Cubic(s3, s) }},
				} {
					ms, err := tc.moments()
					if err != nil {
						t.Fatal(err)
					}
					if len(ms) != k3 {
						t.Fatalf("seed %d n=%d s0=%g %s: %d moments, want %d", seed, n, s0, tc.name, len(ms), k3)
					}
					coeffs := taylorCoeffs(tc.eval, complex(s0, 0), 0.05, k3, n, t)
					for k, c := range coeffs {
						if res := inSpan(ms[:k+1], c); res > 1e-5 {
							t.Fatalf("seed %d n=%d s0=%g %s: Taylor coefficient %d not in moment span (residual %g)",
								seed, n, s0, tc.name, k, res)
						}
					}
				}
			}
		}
	}
}

func TestH3MomentsCubicSpanTaylor(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 4
	g3b := sparse.NewBuilder(n, n*n*n)
	for i := 0; i < 3*n; i++ {
		g3b.Add(rng.Intn(n), rng.Intn(n*n*n), 0.3*(2*rng.Float64()-1))
	}
	sys := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		G3: g3b.Build(),
		B:  mat.RandDense(rng, n, 1),
		L:  mat.RandDense(rng, 1, n),
	}
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := kron.NewSumSolver3(sys.G1)
	if err != nil {
		t.Fatal(err)
	}
	const k3 = 2
	ms, err := r.H3MomentsCubic(s3, k3, 0)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalAssocH3Cubic(s3, s)
	}, 0, 0.05, k3, sys.N, t)
	for k, c := range coeffs {
		if res := inSpan(ms[:k+1], c); res > 1e-5 {
			t.Fatalf("cubic A3(H3) Taylor coefficient %d not in span (residual %g)", k, res)
		}
	}
}

func TestH2CandidatesMISO(t *testing.T) {
	// Two inputs: candidates must cover all three input pairs.
	rng := rand.New(rand.NewSource(15))
	n := 5
	g2b := sparse.NewBuilder(n, n*n)
	for i := 0; i < 3*n; i++ {
		g2b.Add(rng.Intn(n), rng.Intn(n*n), 0.3*(2*rng.Float64()-1))
	}
	sys := &qldae.System{
		N:  n,
		G1: mat.RandStable(rng, n, 0.4),
		G2: g2b.Build(),
		B:  mat.RandDense(rng, n, 2),
		L:  mat.RandDense(rng, 1, n),
	}
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := r.H2Candidates(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cand) < 3 {
		t.Fatalf("MISO H2 candidates too few: %d", len(cand))
	}
	// Zeroth Taylor coefficients of all pairs must be in span.
	for i := 0; i <= 1; i++ {
		for j := i; j <= 1; j++ {
			v, err := r.EvalAssocH2(i, j, 1e-4)
			if err != nil {
				t.Fatal(err)
			}
			if res := inSpan(cand, v); res > 1e-4 {
				t.Fatalf("pair (%d,%d) moment not covered (residual %g)", i, j, res)
			}
		}
	}
}

func TestMomentsAtNonzeroExpansionPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sys := testSystem(rng, 4, true)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	s0 := -0.5 // expansion about s = −0.5 (multipoint support, §4 bullet 3)
	ms, err := r.H3Moments(2, s0)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := taylorCoeffs(func(s complex128) ([]complex128, error) {
		return r.EvalAssocH3(s)
	}, complex(s0, 0), 0.04, 2, sys.N, t)
	for k, c := range coeffs {
		if res := inSpan(ms[:k+1], c); res > 1e-5 {
			t.Fatalf("s0=%v coefficient %d residual %g", s0, k, res)
		}
	}
}

func TestH3MomentsRejectsMIMO(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sys := testSystem(rng, 4, false)
	sys.B = mat.RandDense(rng, 4, 2)
	r, err := New(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.H3Moments(2, 0); err == nil {
		t.Fatal("expected SISO-only error")
	}
}
