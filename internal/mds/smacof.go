package mds

import (
	"fmt"
	"math"
	"math/rand"
)

// Options configures a SMACOF run. The zero value is not usable; use
// DefaultOptions.
type Options struct {
	// MaxIter bounds the number of Guttman-transform iterations.
	MaxIter int
	// Epsilon is the relative raw-stress improvement below which the
	// iteration is considered converged.
	Epsilon float64
	// Init provides the starting configuration. If nil, Torgerson
	// (classical scaling) initialization is used, falling back to a random
	// configuration drawn from RNG when classical scaling degenerates.
	Init []Coord
	// RNG seeds random initialization. Required when Init is nil.
	RNG *rand.Rand
}

// DefaultOptions returns options matching the prototype's behaviour:
// at most 300 iterations, converging at a relative improvement of 1e-6.
func DefaultOptions(rng *rand.Rand) Options {
	return Options{MaxIter: 300, Epsilon: 1e-6, RNG: rng}
}

// Result carries the output of a SMACOF run.
type Result struct {
	// Config is the embedded 2-D configuration, centered at the origin.
	Config []Coord
	// Stress is the final normalized stress-1 value.
	Stress float64
	// RawStress is the final un-normalized loss σ(X) = Σ_{i<j} (δ_ij −
	// d_ij(X))², the loss function quoted verbatim in §2.2 of the paper.
	RawStress float64
	// Iterations is how many Guttman transforms were applied.
	Iterations int
	// Converged reports whether the epsilon criterion was met before
	// MaxIter.
	Converged bool
}

// SMACOF minimizes the stress of a 2-D embedding of the dissimilarity
// matrix delta by iterated Guttman transforms ("Scaling by MAjorizing a
// COnvex Function", §2.2). Each iteration is guaranteed not to increase
// the raw stress.
func SMACOF(delta *Matrix, opts Options) (*Result, error) {
	n := delta.Size()
	if n == 0 {
		return nil, fmt.Errorf("mds: empty dissimilarity matrix")
	}
	if opts.MaxIter <= 0 {
		return nil, fmt.Errorf("mds: MaxIter must be positive, got %d", opts.MaxIter)
	}
	if opts.Epsilon < 0 || math.IsNaN(opts.Epsilon) {
		return nil, fmt.Errorf("mds: invalid Epsilon %v", opts.Epsilon)
	}

	var x []Coord
	switch {
	case opts.Init != nil:
		if len(opts.Init) != n {
			return nil, fmt.Errorf("mds: init has %d points, want %d", len(opts.Init), n)
		}
		x = append([]Coord(nil), opts.Init...)
	default:
		if opts.RNG == nil {
			return nil, fmt.Errorf("mds: RNG required when Init is nil")
		}
		x = Torgerson(delta, opts.RNG)
	}

	if n == 1 {
		return &Result{Config: []Coord{{}}, Converged: true}, nil
	}

	// A configuration's pairwise distances feed both its stress and its
	// Guttman transform, so guttmanStep computes them once for the two and
	// the buffers swap roles every iteration. The price is one transform
	// that goes unused: the one written beside the final stress.
	next := make([]Coord, n)
	diag := make([]float64, n)
	prev := guttmanStep(delta, x, next, diag)
	res := &Result{}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		x, next = next, x
		cur := guttmanStep(delta, x, next, diag)
		res.Iterations = iter
		if prev > 0 && (prev-cur)/prev < opts.Epsilon {
			res.Converged = true
			prev = cur
			break
		}
		if cur == 0 {
			res.Converged = true
			prev = cur
			break
		}
		prev = cur
	}
	centerConfig(x)
	res.Config = x
	res.RawStress = prev
	res.Stress = Stress1(delta, x)
	return res, nil
}

// guttmanStep writes the (unweighted) Guttman transform of x into out —
// X' = n⁻¹ B(X) X with b_ij = −δ_ij/d_ij for i≠j (0 when d_ij = 0) and
// b_ii = −Σ_{j≠i} b_ij — and returns the raw stress σ(x), computing each
// pair distance once for both. diag is scratch of length n. Every row
// accumulates its terms in ascending j and the stress sums in (i, j)
// order, so both results carry the same bits as summing them separately.
// A distance is math.Sqrt(dx²+dy²), not Coord.Dist: math.Hypot's scaling
// divide makes it the dearer half of the pair's cost, and the two differ
// only in the last bits (oracle_test.go bounds the drift).
func guttmanStep(delta *Matrix, x, out []Coord, diag []float64) float64 {
	n := len(x)
	for i := range out {
		out[i] = Coord{}
		diag[i] = 0
	}
	var stress float64
	for i := 0; i < n; i++ {
		xi := x[i]
		for j := i + 1; j < n; j++ {
			xj := x[j]
			dx, dy := xi.X-xj.X, xi.Y-xj.Y
			d := math.Sqrt(dx*dx + dy*dy)
			dij := delta.At(i, j)
			diff := dij - d
			stress += diff * diff
			var b float64
			if d > 0 {
				b = -dij / d
			}
			out[i].X += b * xj.X
			out[i].Y += b * xj.Y
			diag[i] -= b
			out[j].X += b * xi.X
			out[j].Y += b * xi.Y
			diag[j] -= b
		}
	}
	invN := 1 / float64(n)
	for i := range out {
		out[i].X = (diag[i]*x[i].X + out[i].X) * invN
		out[i].Y = (diag[i]*x[i].Y + out[i].Y) * invN
	}
	return stress
}

// Torgerson computes a classical-scaling starting configuration: double
// center the squared dissimilarities, extract the top two eigenpairs by
// deflated power iteration, and scale eigenvectors by the square roots of
// their eigenvalues. When the spectrum degenerates (e.g. all points
// coincide) it falls back to a small random configuration.
func Torgerson(delta *Matrix, rng *rand.Rand) []Coord {
	n := delta.Size()
	if n == 1 {
		return []Coord{{}}
	}
	// B = −½ J D² J with J = I − 11ᵀ/n.
	b := make([]float64, n*n)
	rowMean := make([]float64, n)
	var grand float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := delta.At(i, j)
			sq := d * d
			b[i*n+j] = sq
			rowMean[i] += sq
		}
		rowMean[i] /= float64(n)
		grand += rowMean[i]
	}
	grand /= float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i*n+j] = -0.5 * (b[i*n+j] - rowMean[i] - rowMean[j] + grand)
		}
	}

	v1, l1 := powerIteration(b, n, rng)
	if l1 <= 1e-12 {
		return randomConfig(n, rng)
	}
	// Deflate: B ← B − λ₁ v₁v₁ᵀ.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i*n+j] -= l1 * v1[i] * v1[j]
		}
	}
	v2, l2 := powerIteration(b, n, rng)

	x := make([]Coord, n)
	s1 := math.Sqrt(l1)
	var s2 float64
	if l2 > 1e-12 {
		s2 = math.Sqrt(l2)
	}
	for i := range x {
		x[i].X = v1[i] * s1
		if s2 > 0 {
			x[i].Y = v2[i] * s2
		}
	}
	// Break exact collinearity so SMACOF can explore both dimensions.
	if s2 == 0 {
		for i := range x {
			x[i].Y = (rng.Float64() - 0.5) * 1e-6
		}
	}
	return x
}

// powerIteration returns the dominant eigenvector (unit norm) and
// eigenvalue of the symmetric n×n matrix m (row-major). The product m·v
// takes four rows per pass over v: four independent add chains instead of
// one latency-bound chain, each row still summed in ascending j, so every
// entry has the bits of the plain row loop.
func powerIteration(m []float64, n int, rng *rand.Rand) ([]float64, float64) {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	normalize(v)
	tmp := make([]float64, n)
	var lambda float64
	for iter := 0; iter < 200; iter++ {
		i := 0
		for ; i+4 <= n; i += 4 {
			r0 := m[i*n : i*n+n]
			r1 := m[(i+1)*n : (i+1)*n+n]
			r2 := m[(i+2)*n : (i+2)*n+n]
			r3 := m[(i+3)*n : (i+3)*n+n]
			var s0, s1, s2, s3 float64
			for j, vj := range v {
				s0 += r0[j] * vj
				s1 += r1[j] * vj
				s2 += r2[j] * vj
				s3 += r3[j] * vj
			}
			tmp[i], tmp[i+1], tmp[i+2], tmp[i+3] = s0, s1, s2, s3
		}
		for ; i < n; i++ {
			tmp[i] = dot(m[i*n:i*n+n], v)
		}
		newLambda := dot(v, tmp)
		nrm := norm(tmp)
		if nrm < 1e-15 {
			return v, 0
		}
		for i := range v {
			v[i] = tmp[i] / nrm
		}
		if math.Abs(newLambda-lambda) < 1e-12*(1+math.Abs(newLambda)) {
			lambda = newLambda
			break
		}
		lambda = newLambda
	}
	return v, lambda
}

func randomConfig(n int, rng *rand.Rand) []Coord {
	x := make([]Coord, n)
	for i := range x {
		x[i] = Coord{rng.Float64() - 0.5, rng.Float64() - 0.5}
	}
	return x
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func normalize(a []float64) {
	n := norm(a)
	if n == 0 {
		return
	}
	for i := range a {
		a[i] /= n
	}
}
