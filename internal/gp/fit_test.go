package gp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomFitProblem draws n points in [0,1]^dim (with a few exact duplicates,
// which make the noise-free Gram singular) and targets from a smooth
// function plus noise.
func randomFitProblem(rng *rand.Rand, n, dim int) (xs [][]float64, ys []float64) {
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		if i > 0 && rng.Intn(6) == 0 {
			xs[i] = append([]float64(nil), xs[rng.Intn(i)]...)
		} else {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = rng.Float64()
			}
		}
		ys[i] = math.Sin(3*xs[i][0]) + 0.1*rng.NormFloat64()
	}
	return xs, ys
}

// TestGramFromFactorsMatchesGramLowerInto pins the Gram-factor reuse of the
// hyperparameter search: the lower triangle built from cached factors at any
// variance, noise and jitter is bit-identical to gramLowerInto's, for the
// Matérn-5/2 and the RBF kernel, at random lengthscales.
func TestGramFromFactorsMatchesGramLowerInto(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n, dim := 2+rng.Intn(40), 1+rng.Intn(4)
		xs, _ := randomFitProblem(rng, n, dim)
		ls := make([]float64, dim)
		for d := range ls {
			ls[d] = math.Exp(math.Log(0.03) + rng.Float64()*(math.Log(10)-math.Log(0.03)))
		}
		for _, rbf := range []bool{false, true} {
			f := make([]gramFactor, n*(n-1)/2)
			gramFactorsInto(ls, rbf, xs, f)
			for probe := 0; probe < 4; probe++ {
				v := math.Exp(math.Log(1e-2) + rng.Float64()*math.Log(1e4))
				noise := math.Exp(math.Log(1e-4) + rng.Float64()*(math.Log(0.5)-math.Log(1e-4)))
				jitter := 0.0
				if probe > 0 {
					jitter = 1.11111e-10 * math.Pow(10, float64(rng.Intn(7)))
				}
				var k Kernel = &Matern52{Variance: v, Lengthscales: ls}
				if rbf {
					k = &RBF{Variance: v, Lengthscales: ls}
				}
				want, got := NewMatrix(n, n), NewMatrix(n, n)
				gramLowerInto(k, xs, noise, want)
				gramFromFactors(f, v, noise, n, got)
				for i := 0; i < n; i++ {
					want.Set(i, i, want.At(i, i)+jitter)
					got.Set(i, i, got.At(i, i)+jitter)
					for j := 0; j <= i; j++ {
						if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
							t.Fatalf("trial %d rbf=%v: entry (%d,%d) = %v from factors, %v from gramLowerInto",
								trial, rbf, i, j, got.At(i, j), want.At(i, j))
						}
					}
				}
			}
		}
	}
}

// TestFitLLMatchesFit: a likelihood probe on cached Gram factors equals Fit
// followed by LogMarginalLikelihood bit for bit, jitter ladder included
// (duplicated inputs without noise force it), and fails exactly where Fit
// fails.
func TestFitLLMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	jittered := 0
	for trial := 0; trial < 100; trial++ {
		n, dim := 2+rng.Intn(30), 1+rng.Intn(3)
		xs, ys := randomFitProblem(rng, n, dim)
		ls := make([]float64, dim)
		for d := range ls {
			ls[d] = math.Exp(math.Log(0.03) + rng.Float64()*(math.Log(10)-math.Log(0.03)))
		}
		v := math.Exp(math.Log(1e-2) + rng.Float64()*math.Log(1e4))
		noise := 0.0 // duplicated inputs make the Gram singular
		if trial%2 == 1 {
			noise = math.Exp(math.Log(1e-4) + rng.Float64()*(math.Log(0.5)-math.Log(1e-4)))
		}
		for _, rbf := range []bool{false, true} {
			name := fmt.Sprintf("trial %d rbf=%v", trial, rbf)
			ws := getFitWS(n, dim, dim+2)
			gramFactorsInto(ls, rbf, xs, ws.acc)
			got := fitLL(ws.acc, v, noise, ys, ws)
			putFitWS(ws)

			var k Kernel = &Matern52{Variance: v, Lengthscales: ls}
			if rbf {
				k = &RBF{Variance: v, Lengthscales: ls}
			}
			if CholeskyInPlace(GramMatrix(k, xs, noise)) != nil {
				jittered++
			}
			r, err := Fit(k, noise, xs, ys)
			if err != nil {
				if !math.IsInf(got, -1) {
					t.Fatalf("%s: Fit failed (%v) but fitLL = %v", name, err, got)
				}
				continue
			}
			if want := r.LogMarginalLikelihood(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: fitLL = %v, Fit's likelihood = %v", name, got, want)
			}
		}
	}
	if jittered == 0 {
		t.Fatal("no trial exercised the jitter ladder")
	}
}

// TestFitHyperProbesZeroAlloc pins the search's per-probe cost at zero
// allocations: a variance probe on the accepted factors, and a lengthscale
// probe that refills the probe slab, both reuse the pooled workspace.
func TestFitHyperProbesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's sync.Pool drops Puts; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(33))
	const n, dim = 40, 3
	xs, ys := randomFitProblem(rng, n, dim)
	ls := []float64{0.3, 0.5, 0.7}
	ws := getFitWS(n, dim, dim+2)
	defer putFitWS(ws)
	gramFactorsInto(ls, false, xs, ws.acc)
	allocs := testing.AllocsPerRun(50, func() {
		_ = fitLL(ws.acc, 1.3, 0.05, ys, ws)
		gramFactorsInto(ls, false, xs, ws.probe)
		_ = fitLL(ws.probe, 1.3, 0.05, ys, ws)
	})
	if allocs != 0 {
		t.Errorf("likelihood probes allocated %v times per run, want 0", allocs)
	}
}

// fitHyperReference is FitHyper's search run serially with every probe
// evaluated by a full Fit and its LogMarginalLikelihood (−Inf where Fit
// fails): the fit-per-probe search that the pooled, factor-reusing search
// must reproduce bit for bit.
func fitHyperReference(xs [][]float64, ys []float64, opts HyperOptions) (*Regressor, error) {
	restarts, iters := opts.Restarts, opts.Iters
	if restarts <= 0 {
		restarts = 8
	}
	if iters <= 0 {
		iters = 20
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	nparams := opts.Dim + 2
	lower, upper := make([]float64, nparams), make([]float64, nparams)
	lower[0], upper[0] = math.Log(1e-2), math.Log(1e2)
	for i := 1; i <= opts.Dim; i++ {
		lower[i], upper[i] = math.Log(0.03), math.Log(10)
	}
	lower[nparams-1], upper[nparams-1] = math.Log(1e-4), math.Log(0.5)
	model := func(p []float64) (Kernel, float64) {
		ls := make([]float64, opts.Dim)
		for i := range ls {
			ls[i] = math.Exp(p[1+i])
		}
		noise := math.Exp(p[nparams-1])
		if opts.FixedNoise > 0 {
			noise = opts.FixedNoise
		}
		if opts.UseRBF {
			return &RBF{Variance: math.Exp(p[0]), Lengthscales: ls}, noise
		}
		return &Matern52{Variance: math.Exp(p[0]), Lengthscales: ls}, noise
	}
	logLik := func(p []float64) float64 {
		k, noise := model(p)
		r, err := Fit(k, noise, xs, ys)
		if err != nil {
			return math.Inf(-1)
		}
		return r.LogMarginalLikelihood()
	}
	var bestP []float64
	bestLL := math.Inf(-1)
	for restart := 0; restart < restarts; restart++ {
		p := make([]float64, nparams)
		if restart == 0 {
			for i := 1; i <= opts.Dim; i++ {
				p[i] = math.Log(0.5)
			}
			p[nparams-1] = math.Log(0.05)
		} else {
			for i := range p {
				p[i] = lower[i] + rng.Float64()*(upper[i]-lower[i])
			}
		}
		ll := logLik(p)
		step := 1.0
		for it := 0; it < iters; it++ {
			improved := false
			for i := range p {
				if opts.FixedNoise > 0 && i == nparams-1 {
					continue
				}
				for _, dir := range [2]float64{1, -1} {
					cand := append([]float64(nil), p...)
					cand[i] = clamp(cand[i]+dir*step, lower[i], upper[i])
					if cand[i] == p[i] {
						continue
					}
					if ll2 := logLik(cand); ll2 > ll {
						p, ll, improved = cand, ll2, true
					}
				}
			}
			if !improved {
				if step /= 2; step < 1e-3 {
					break
				}
			}
		}
		if !math.IsInf(ll, -1) && ll > bestLL {
			bestP, bestLL = p, ll
		}
	}
	if bestP == nil {
		return nil, fmt.Errorf("no valid model")
	}
	k, noise := model(bestP)
	return Fit(k, noise, xs, ys)
}

// TestFitHyperMatchesFitPerProbeSearch: FitHyper — likelihood-only probes,
// Gram factors reused across variance and noise probes, restarts on the
// worker pool — selects exactly the model of the fit-per-probe reference
// search, for both kernels, with and without fixed noise.
func TestFitHyperMatchesFitPerProbeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 24; trial++ {
		dim := 1 + trial%3
		xs, ys := randomFitProblem(rng, 4+rng.Intn(20), dim)
		opts := HyperOptions{Dim: dim, Restarts: 3, Iters: 6, Seed: int64(trial), UseRBF: trial%2 == 1}
		if trial%4 == 3 {
			opts.FixedNoise = 0.02
		}
		want, werr := fitHyperReference(xs, ys, opts)
		got, gerr := FitHyper(xs, ys, opts)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: FitHyper error %v, reference error %v", trial, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%+v): FitHyper selected %+v, the reference search %+v", trial, opts, got.kernel, want.kernel)
		}
	}
}

// BenchmarkFitHyper times one hyperparameter search at the shape of a BoFL
// surrogate fit late in Pareto construction: 40 observations over 3 DVFS
// axes, 4 restarts of 10 sweeps.
func BenchmarkFitHyper(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	xs, ys := randomFitProblem(rng, 40, 3)
	opts := HyperOptions{Dim: 3, Restarts: 4, Iters: 10, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitHyper(xs, ys, opts); err != nil {
			b.Fatal(err)
		}
	}
}
