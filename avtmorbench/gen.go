package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"avtmor"
	"avtmor/internal/mat"
	"avtmor/internal/qldae"
	"avtmor/internal/solver"
	"avtmor/internal/sparse"
)

// Input generators. Every input is a pure function of the workload
// seed; the program under test only ever sees the generated systems,
// netlists and request schedules.

// newRand returns the generator of one named input stream of a seed,
// so adding a stream never shifts the draws of another.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// jitter scales v by a factor drawn uniformly from [1-a, 1+a). Seed 0
// is the unjittered reference, so its draws are skipped entirely.
func jitter(rng *rand.Rand, seed uint64, v, a float64) float64 {
	if seed == 0 {
		return v
	}
	return v * (1 + a*(2*rng.Float64()-1))
}

// intJitter returns n shifted by a uniform integer in [-d, d] (n itself
// for seed 0).
func intJitter(rng *rand.Rand, seed uint64, n, d int) int {
	if seed == 0 {
		return n
	}
	return n + rng.IntN(2*d+1) - d
}

// entry is one matrix coefficient.
type entry struct {
	i, j int
	v    float64
}

// rlcLine is a linear RLC transmission line given as coefficient
// lists, so the same numbers build both the public System (through the
// CSR SystemBuilder) and the internal QLDAE the traced replay needs.
// States are the section node voltages followed by the series branch
// currents, as in avtmor.RLCLine.
type rlcLine struct {
	n   int
	g1  []entry
	b0  float64 // input gain into node 0
	out int     // observed node
}

// denseMirrorLimit mirrors the SystemBuilder rule: up to this many
// states the System also carries its dense G1.
const denseMirrorLimit = 2500

// newRLCLine draws a line of about the given number of sections with
// element values jittered by a few percent around avtmor.RLCLine's.
func newRLCLine(rng *rand.Rand, seed uint64, sections int) rlcLine {
	m := intJitter(rng, seed, sections, 3)
	n := 2*m - 1
	l := rlcLine{n: n, b0: 1, out: m - 1}
	ib := func(k int) int { return m + k }
	for k := 0; k < m; k++ {
		c := jitter(rng, seed, 1.0, 0.02)
		diag := -jitter(rng, seed, 0.02, 0.02)
		if k == m-1 {
			diag -= 1.0
		}
		l.g1 = append(l.g1, entry{k, k, diag / c})
		if k > 0 {
			l.g1 = append(l.g1, entry{k, ib(k - 1), 1 / c})
		}
		if k < m-1 {
			l.g1 = append(l.g1, entry{k, ib(k), -1 / c})
		}
		if k == 0 {
			l.b0 = 1 / c
		}
	}
	for k := 0; k < m-1; k++ {
		ind := jitter(rng, seed, 1.0, 0.02)
		r := jitter(rng, seed, 0.1, 0.02)
		l.g1 = append(l.g1, entry{ib(k), k, 1 / ind}, entry{ib(k), k + 1, -1 / ind}, entry{ib(k), ib(k), -r / ind})
	}
	return l
}

// public builds the line through the CSR SystemBuilder.
func (l rlcLine) public() (*avtmor.System, error) {
	sb := avtmor.NewSystemBuilder(l.n, 1, 1)
	for _, e := range l.g1 {
		sb.G1(e.i, e.j, e.v)
	}
	sb.B(0, 0, l.b0)
	sb.L(0, l.out, 1)
	return sb.Build()
}

// internal builds the identical QLDAE the SystemBuilder assembles.
func (l rlcLine) internal() *qldae.System {
	g := sparse.NewBuilder(l.n, l.n)
	for _, e := range l.g1 {
		g.Add(e.i, e.j, e.v)
	}
	b := mat.NewDense(l.n, 1)
	b.Add(0, 0, l.b0)
	out := mat.NewDense(1, l.n)
	out.Add(0, l.out, 1)
	sys := &qldae.System{N: l.n, G1S: g.Build(), B: b, L: out}
	if l.n <= denseMirrorLimit {
		sys.G1 = sys.G1S.Dense()
	}
	return sys
}

// fullH1 evaluates the full line's H1(jω) = L·(jωI − G1)⁻¹·B through a
// real sparse LU of the 2n-state block form
// [G1 ωI; −ωI G1]·[xr; xi] = [−b; 0], so CSR-only lines need no dense
// complex factorization.
func (l rlcLine) fullH1(omega float64) (complex128, error) {
	n := l.n
	bld := sparse.NewBuilder(2*n, 2*n)
	for _, e := range l.g1 {
		bld.Add(e.i, e.j, e.v)
		bld.Add(n+e.i, n+e.j, e.v)
	}
	for i := 0; i < n; i++ {
		bld.Add(i, n+i, omega)
		bld.Add(n+i, i, -omega)
	}
	f, err := solver.Sparse{}.Factor(solver.FromCSR(bld.Build()))
	if err != nil {
		return 0, fmt.Errorf("full-model H1 at ω=%g: %w", omega, err)
	}
	rhs := make([]float64, 2*n)
	rhs[0] = -l.b0
	x := make([]float64, 2*n)
	f.Solve(x, rhs)
	return complex(x[l.out], x[n+l.out]), nil
}

// ladderNetlist renders the i-th quadratic G-ladder of a stream with
// the given number of nodes: a current-driven chain of polynomial
// conductances (i = g·w + γ·w²) with a capacitor at every node, so the
// QLDAE has a G2 term and the H2 path runs. i is folded into the load
// resistor, which makes every body a distinct request key.
func ladderNetlist(rng *rand.Rand, i, nodes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* quadratic G-ladder %d\nI1 0 n1 IN0 1\nR0 n1 0 %.17g\n", i, 1+0.2*rng.Float64())
	for k := 1; k <= nodes; k++ {
		fmt.Fprintf(&b, "C%d n%d 0 %.17g\n", k, k, 0.8+0.4*rng.Float64())
		if k < nodes {
			fmt.Fprintf(&b, "G%d n%d n%d %.17g %.17g\n", k, k, k+1, 0.8+0.4*rng.Float64(), 0.05+0.1*rng.Float64())
		}
	}
	fmt.Fprintf(&b, "RL n%d 0 %.17g\n.out n%d\n", nodes, 1+1e-6*float64(i+1)+0.1*rng.Float64(), nodes)
	return b.String()
}

// rlcNetlist renders the i-th linear RLC-ladder netlist of about 1500
// states (2·sections − 1): node capacitors with shunt loss, series
// inductors between nodes, a resistive far-end load.
func rlcNetlist(rng *rand.Rand, i, sections int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* RLC ladder %d\nI1 0 n1 IN0 1\n", i)
	for k := 1; k <= sections; k++ {
		fmt.Fprintf(&b, "C%d n%d 0 %.17g\nRS%d n%d 0 %.17g\n", k, k, 1+0.04*(rng.Float64()-0.5), k, k, 50*(1+0.04*(rng.Float64()-0.5)))
		if k < sections {
			fmt.Fprintf(&b, "L%d n%d n%d %.17g\n", k, k, k+1, 1+0.04*(rng.Float64()-0.5))
		}
	}
	fmt.Fprintf(&b, "RL n%d 0 %.17g\n.out n%d\n", sections, 1+1e-6*float64(i+1), sections)
	return b.String()
}

// Sizes of the generated netlists: ladders of 30 to 60 nodes and RLC
// ladders of 740 to 760 sections, dealt round-robin so every run sees
// the same size mix.
func ladderNodes(i int) int { return 30 + i%31 }
func rlcSections(i int) int { return 740 + i%21 }

// ladderParams and rlcParams are the reduce query strings of the two
// cold request kinds.
const (
	ladderParams = "k1=4&k2=2&s0=0"
	rlcParams    = "k1=6&s0=0&xp=0.4,0.9"
)

// relErr is |a−b|/|b| with a zero reference treated as absolute error.
func relErr(a, b complex128) float64 {
	d := cmplxAbs(a - b)
	if r := cmplxAbs(b); r > 0 {
		return d / r
	}
	return d
}

func cmplxAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
