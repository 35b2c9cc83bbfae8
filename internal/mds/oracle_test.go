package mds

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Differential oracles for the embedding kernels. referenceSMACOF is the
// implementation SMACOF replaced: one pass over the pair distances for the
// Guttman transform, another for the stress, a fresh configuration per
// iteration. Given the kernel's distance, SMACOF must reproduce it bit for
// bit — the claim is "same arithmetic, fewer square roots", so no
// tolerance is accepted. Given Coord.Dist (math.Hypot), the distance the
// kernel used before, it bounds how far the cheaper distance drifts.
// referencePowerIteration and referenceLandmarkMDS (landmark_test.go) are
// the plain forms of powerIteration and LandmarkMDSVectors, matched bit for
// bit. referencePlace is the plain single-point majorizer: Place must
// reproduce it bit for bit on flat anchor sets, and elsewhere land where it
// lands when run to convergence.

// kernelDist is the pair distance guttmanStep computes.
func kernelDist(a, b Coord) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// guttman applies one (unweighted) Guttman transform: X' = n⁻¹ B(X) X with
// b_ij = −δ_ij/d_ij for i≠j (0 when d_ij = 0) and b_ii = −Σ_{j≠i} b_ij.
func guttman(delta *Matrix, x []Coord, dist func(a, b Coord) float64) []Coord {
	n := len(x)
	out := make([]Coord, n)
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		var sx, sy, diag float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := dist(x[i], x[j])
			var b float64
			if d > 0 {
				b = -delta.At(i, j) / d
			}
			sx += b * x[j].X
			sy += b * x[j].Y
			diag -= b
		}
		out[i].X = (diag*x[i].X + sx) * invN
		out[i].Y = (diag*x[i].Y + sy) * invN
	}
	return out
}

// rawStress is the un-normalized SMACOF loss σ(X) = Σ_{i<j} (δ_ij − d_ij(X))².
func rawStress(delta *Matrix, x []Coord, dist func(a, b Coord) float64) float64 {
	var s float64
	n := delta.Size()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			diff := delta.At(i, j) - dist(x[i], x[j])
			s += diff * diff
		}
	}
	return s
}

func referenceSMACOF(delta *Matrix, opts Options, dist func(a, b Coord) float64) *Result {
	n := delta.Size()
	var x []Coord
	if opts.Init != nil {
		x = append([]Coord(nil), opts.Init...)
	} else {
		x = Torgerson(delta, opts.RNG)
	}
	if n == 1 {
		return &Result{Config: []Coord{{}}, Converged: true}
	}
	prev := rawStress(delta, x, dist)
	res := &Result{}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		x = guttman(delta, x, dist)
		cur := rawStress(delta, x, dist)
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
	return res
}

// referencePowerIteration is powerIteration with one dot product per row.
func referencePowerIteration(m []float64, n int, rng *rand.Rand) ([]float64, float64) {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	normalize(v)
	tmp := make([]float64, n)
	var lambda float64
	for iter := 0; iter < 200; iter++ {
		for i := 0; i < n; i++ {
			var s float64
			row := m[i*n : (i+1)*n]
			for j, vj := range v {
				s += row[j] * vj
			}
			tmp[i] = s
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

func referencePointStress(x []Coord, delta []float64, y Coord) float64 {
	var s float64
	for i, p := range x {
		diff := delta[i] - y.Dist(p)
		s += diff * diff
	}
	return s
}

func referencePlace(x []Coord, delta []float64, opts PlaceOptions) (Coord, float64) {
	if len(x) == 0 {
		return Coord{}, 0
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 1e-9
	}
	best := 0
	for i, d := range delta {
		if d < delta[best] {
			best = i
		}
	}
	var centroid Coord
	for _, p := range x {
		centroid = centroid.Add(p)
	}
	centroid = centroid.Scale(1 / float64(len(x)))
	y := x[best].Scale(0.9).Add(centroid.Scale(0.1))
	if len(x) == 1 {
		return Coord{X: x[0].X + delta[0], Y: x[0].Y}, 0
	}
	var spread float64
	for _, p := range x {
		d := p.Sub(centroid)
		if s := math.Abs(d.X) + math.Abs(d.Y); s > spread {
			spread = s
		}
	}
	y.Y += 1e-3*spread + 1e-9

	prev := referencePointStress(x, delta, y)
	invN := 1 / float64(len(x))
	for iter := 0; iter < maxIter; iter++ {
		var sx, sy float64
		for i, p := range x {
			d := y.Dist(p)
			if d > 0 {
				r := delta[i] / d
				sx += p.X + r*(y.X-p.X)
				sy += p.Y + r*(y.Y-p.Y)
			} else {
				sx += p.X
				sy += p.Y
			}
		}
		y = Coord{sx * invN, sy * invN}
		cur := referencePointStress(x, delta, y)
		if prev > 0 && (prev-cur)/prev < eps {
			prev = cur
			break
		}
		prev = cur
	}
	return y, prev
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCoordBits(a, b Coord) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

// oracleConfigs are the point sets the oracles run over: random clouds
// across the sizes that matter, exactly collinear points, coincident
// points, duplicates inside a cloud, and the degenerate sizes 1–3.
// flatOracleConfigs names the ones Place treats as flat.
func oracleConfigs(rng *rand.Rand) map[string][]Coord {
	random := func(n int) []Coord {
		out := make([]Coord, n)
		for i := range out {
			out[i] = Coord{rng.NormFloat64() * 3, rng.NormFloat64()}
		}
		return out
	}
	collinear := make([]Coord, 12)
	for i := range collinear {
		collinear[i] = Coord{float64(i) * 0.5, 0}
	}
	diagonal := make([]Coord, 9)
	for i := range diagonal {
		diagonal[i] = Coord{float64(i), 2 * float64(i)}
	}
	withDuplicates := random(20)
	copy(withDuplicates[10:], withDuplicates[:10])
	return map[string][]Coord{
		"n=1":            random(1),
		"n=2":            random(2),
		"n=3":            random(3),
		"random-10":      random(10),
		"random-64":      random(64),
		"random-300":     random(300),
		"collinear":      collinear,
		"diagonal":       diagonal,
		"coincident":     make([]Coord, 7),
		"two-coincident": {{1, 1}, {1, 1}},
		"duplicates":     withDuplicates,
	}
}

var flatOracleConfigs = map[string]bool{
	"n=1": true, "n=2": true, "collinear": true, "diagonal": true, "coincident": true, "two-coincident": true,
}

// smacofCase is one SMACOF oracle run: a dissimilarity matrix, a start
// (nil for Torgerson's) and the seed of the run's RNG.
type smacofCase struct {
	name  string
	delta *Matrix
	init  []Coord
	seed  int64
}

// smacofCases are the SMACOF oracle runs: every oracle configuration seen
// exactly and through noisy dissimilarities, each from Torgerson's start,
// a random one and a coincident one. Configurations draw from rng in
// sorted-name order, so every run builds the same cases.
func smacofCases(rng *rand.Rand) []smacofCase {
	configs := oracleConfigs(rng)
	var cases []smacofCase
	for _, name := range sortedNames(configs) {
		truth := configs[name]
		n := len(truth)
		exact := planted2D(truth)
		// The same points seen through noisy dissimilarities never reach
		// zero stress, so the iteration runs long.
		noisy, _ := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				noisy.Set(i, j, exact.At(i, j)*(0.7+0.6*rng.Float64()))
			}
		}
		for _, kind := range []struct {
			name  string
			delta *Matrix
		}{{"exact", exact}, {"noisy", noisy}} {
			starts := []struct {
				name string
				init []Coord
			}{{"torgerson", nil}, {"random", randomConfig(n, rng)}, {"coincident", make([]Coord, n)}}
			for _, s := range starts {
				label := fmt.Sprintf("%s/%s/%s", name, kind.name, s.name)
				cases = append(cases, smacofCase{label, kind.delta, s.init, rng.Int63()})
			}
		}
	}
	return cases
}

// run solves c with SMACOF and with referenceSMACOF over dist, each from a
// fresh RNG on c's seed.
func (c smacofCase) run(t *testing.T, dist func(a, b Coord) float64) (got, want *Result) {
	t.Helper()
	opts := DefaultOptions(rand.New(rand.NewSource(c.seed)))
	opts.Init = c.init
	got, err := SMACOF(c.delta, opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	opts.RNG = rand.New(rand.NewSource(c.seed))
	return got, referenceSMACOF(c.delta, opts, dist)
}

func TestSMACOFMatchesReferenceBitForBit(t *testing.T) {
	for _, c := range smacofCases(rand.New(rand.NewSource(20140801))) {
		got, want := c.run(t, kernelDist)
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("%s: %d iterations (converged %v), reference %d (%v)",
				c.name, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
		if !sameBits(got.Stress, want.Stress) || !sameBits(got.RawStress, want.RawStress) {
			t.Errorf("%s: stress %v raw %v, reference %v raw %v",
				c.name, got.Stress, got.RawStress, want.Stress, want.RawStress)
		}
		for i := range want.Config {
			if !sameCoordBits(got.Config[i], want.Config[i]) {
				t.Errorf("%s: point %d at %v, reference %v", c.name, i, got.Config[i], want.Config[i])
				break
			}
		}
	}
}

// TestSMACOFDriftFromHypotReference bounds what the kernel's square root
// changed against the math.Hypot distance it replaced: stress-1 and every
// coordinate within 1e-12, and the same iteration count wherever the fit
// is not exact. An exact fit converges on rounding noise (stress-1 ≈
// 1e-16), where the two distances may stop an iteration apart.
func TestSMACOFDriftFromHypotReference(t *testing.T) {
	const tol = 1e-12
	var worst float64
	var exactFitCounts int
	for _, c := range smacofCases(rand.New(rand.NewSource(20140801))) {
		got, want := c.run(t, Coord.Dist)
		drift := math.Abs(got.Stress - want.Stress)
		for i, p := range want.Config {
			drift = math.Max(drift, math.Max(math.Abs(got.Config[i].X-p.X), math.Abs(got.Config[i].Y-p.Y)))
		}
		worst = math.Max(worst, drift)
		if drift > tol {
			t.Errorf("%s: drifted %g from the Hypot reference (stress %v, reference %v)", c.name, drift, got.Stress, want.Stress)
		}
		switch {
		case got.Iterations == want.Iterations:
		case want.Stress < 1e-9:
			exactFitCounts++
		default:
			t.Errorf("%s: %d iterations, Hypot reference %d at stress %v", c.name, got.Iterations, want.Iterations, want.Stress)
		}
	}
	t.Logf("largest drift from the Hypot reference %g; iteration counts differ on %d exact fits", worst, exactFitCounts)
}

func TestPowerIterationMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20140804))
	check := func(label string, m []float64, n int) {
		t.Helper()
		seed := rng.Int63()
		got, gotL := powerIteration(m, n, rand.New(rand.NewSource(seed)))
		want, wantL := referencePowerIteration(m, n, rand.New(rand.NewSource(seed)))
		if !sameBits(gotL, wantL) {
			t.Errorf("%s: eigenvalue %v, row loop %v", label, gotL, wantL)
		}
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Errorf("%s: v[%d] = %v, row loop %v", label, i, got[i], want[i])
				break
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 128, 131} {
		m := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				m[i*n+j] = rng.NormFloat64()
				m[j*n+i] = m[i*n+j]
			}
		}
		check(fmt.Sprintf("n=%d", n), m, n)
	}
	check("zero", make([]float64, 36), 6)
}

func TestSMACOFLeavesInitUntouched(t *testing.T) {
	// The buffers swap every iteration; the caller's Init must not be one
	// of them.
	rng := rand.New(rand.NewSource(3))
	truth := []Coord{{0, 0}, {1, 0}, {0, 1}, {2, 2}, {3, 1}}
	init := randomConfig(len(truth), rng)
	keep := append([]Coord(nil), init...)
	opts := DefaultOptions(rng)
	opts.Init = init
	if _, err := SMACOF(planted2D(truth), opts); err != nil {
		t.Fatal(err)
	}
	for i := range init {
		if init[i] != keep[i] {
			t.Fatalf("Init[%d] changed from %v to %v", i, keep[i], init[i])
		}
	}
}

// sortedNames lists m's keys in order, so fixtures draw from the RNG in
// the same order on every run.
func sortedNames(m map[string][]Coord) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// placeTargets are the points placed against each oracle anchor set: one
// near the cloud, one far outside it, and two at zero dissimilarity to an
// anchor.
func placeTargets(anchors []Coord, rng *rand.Rand) []Coord {
	return []Coord{{rng.NormFloat64(), rng.NormFloat64()}, {50, -50}, anchors[0], anchors[len(anchors)-1]}
}

// TestPlaceFlatMatchesReferenceBitForBit: on a flat anchor set Place is
// the plain majorizer — every two-anchor set, exact lines, coincident
// anchors, and the near-line a Torgerson start jitters off a collinear
// configuration.
func TestPlaceFlatMatchesReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(20140802))
	flat := map[string][]Coord{
		"pair-far":      {{-40, 3}, {25, 17}},
		"pair-close":    {{1, 1}, {1 + 1e-7, 1}},
		"pair-vertical": {{0, 0}, {0, 5}},
	}
	configs := oracleConfigs(rng)
	for name := range flatOracleConfigs {
		flat[name] = configs[name]
	}
	line := make([]Coord, 10)
	for i := range line {
		line[i] = Coord{float64(i), 0.5 * float64(i)}
	}
	jittered := Torgerson(planted2D(line), rng)
	for _, p := range jittered {
		if p.Y == 0 || math.Abs(p.Y) > 5e-7 {
			t.Fatalf("Torgerson start of a line is not the jittered line: %v", jittered)
		}
	}
	flat["torgerson-line"] = jittered
	for i := 0; i < 8; i++ {
		flat[fmt.Sprintf("pair-%d", i)] = randomConfig(2, rng)
	}

	for _, name := range sortedNames(flat) {
		anchors := flat[name]
		for ti, target := range placeTargets(anchors, rng) {
			for _, noise := range []float64{0, 0.4} {
				delta := make([]float64, len(anchors))
				for i, a := range anchors {
					delta[i] = target.Dist(a) * (1 + noise*rng.Float64())
				}
				for _, opts := range []PlaceOptions{{}, {MaxIter: 3}, {MaxIter: 500, Epsilon: 1e-15}} {
					got, gotStress, err := Place(anchors, delta, opts)
					if err != nil {
						t.Fatalf("%s target %d: %v", name, ti, err)
					}
					want, wantStress := referencePlace(anchors, delta, opts)
					if !sameCoordBits(got, want) || !sameBits(gotStress, wantStress) {
						t.Errorf("%s target %d noise %v opts %+v: placed %v stress %v, reference %v stress %v",
							name, ti, noise, opts, got, gotStress, want, wantStress)
					}
				}
			}
		}
	}
	// All dissimilarities zero against coincident anchors: every distance
	// is zero and the majorizer sits on its singular branch throughout.
	anchors := make([]Coord, 4)
	got, gotStress, err := Place(anchors, make([]float64, 4), PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantStress := referencePlace(anchors, make([]float64, 4), PlaceOptions{})
	if !sameCoordBits(got, want) || !sameBits(gotStress, wantStress) {
		t.Errorf("coincident anchors: placed %v stress %v, reference %v stress %v", got, gotStress, want, wantStress)
	}
}

// landmarkFixture is a k-landmark configuration as the landmark solve
// produces it — SMACOF over k random 8-D vectors — and the
// dissimilarities of further random vectors to its landmarks.
func landmarkFixture(t *testing.T, k, targets int, rng *rand.Rand) ([]Coord, [][]float64) {
	vec := func() []float64 {
		v := make([]float64, 8)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	landmarks := make([][]float64, k)
	for i := range landmarks {
		landmarks[i] = vec()
	}
	res, err := LandmarkMDSVectors(landmarks, k, DefaultOptions(rng))
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([][]float64, targets)
	for j := range deltas {
		v := vec()
		deltas[j] = make([]float64, k)
		for i, l := range landmarks {
			deltas[j][i] = Euclidean(v, l)
		}
	}
	return res.Config, deltas
}

// TestPlaceConvergesToReference: on 2-D anchor sets Place lands where the
// majorizer lands when run to convergence from the same start, at no more
// stress than the majorizer's default 50 iterations reach, within
// MaxIter+1 evaluation passes. Newton may find a different basin than the
// majorizer, so the first two are shares, not every fixture.
func TestPlaceConvergesToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20140803))
	type fixture struct {
		name    string
		anchors []Coord
		delta   []float64
	}
	var fixtures []fixture
	configs := oracleConfigs(rng)
	for _, name := range sortedNames(configs) {
		if flatOracleConfigs[name] {
			continue
		}
		anchors := configs[name]
		for ti, target := range placeTargets(anchors, rng) {
			for _, noise := range []float64{0, 0.4} {
				delta := make([]float64, len(anchors))
				for i, a := range anchors {
					delta[i] = target.Dist(a) * (1 + noise*rng.Float64())
				}
				fixtures = append(fixtures, fixture{fmt.Sprintf("%s target %d noise %v", name, ti, noise), anchors, delta})
			}
		}
	}
	for _, k := range []int{16, 64, 128, 200} {
		anchors, deltas := landmarkFixture(t, k, 100, rng)
		for ti, delta := range deltas {
			fixtures = append(fixtures, fixture{fmt.Sprintf("landmarks k=%d target %d", k, ti), anchors, delta})
		}
	}

	converged := PlaceOptions{MaxIter: 1e5, Epsilon: 1e-16}
	var near, notWorse int
	for _, f := range fixtures {
		got, stress, _, err := place(f.anchors, f.delta, PlaceOptions{})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if s := referencePointStress(f.anchors, f.delta, got); !sameBits(s, stress) {
			t.Errorf("%s: reported stress %v, stress at the placed point %v", f.name, stress, s)
		}
		if want, _ := referencePlace(f.anchors, f.delta, converged); got.Dist(want) <= 1e-3 {
			near++
		}
		if _, today := referencePlace(f.anchors, f.delta, PlaceOptions{}); stress <= today*(1+1e-9) {
			notWorse++
		}
		for _, opts := range []PlaceOptions{{}, {MaxIter: 1}, {MaxIter: 2}, {MaxIter: 7}, {MaxIter: 500, Epsilon: 1e-15}} {
			_, _, passes, err := place(f.anchors, f.delta, opts)
			if err != nil {
				t.Fatal(err)
			}
			budget := opts.MaxIter
			if budget == 0 {
				budget = 50
			}
			if passes > budget+1 {
				t.Errorf("%s opts %+v: %d evaluation passes, budget %d", f.name, opts, passes, budget+1)
			}
		}
	}
	n := len(fixtures)
	t.Logf("%d fixtures: %d within 1e-3 of the converged majorizer, %d at or below its 50-iteration stress", n, near, notWorse)
	if 100*near < 90*n {
		t.Errorf("%d of %d placements within 1e-3 of the converged majorizer, want ≥ 90%%", near, n)
	}
	if 100*notWorse < 97*n {
		t.Errorf("%d of %d placements at or below the majorizer's 50-iteration stress, want ≥ 97%%", notWorse, n)
	}
}
