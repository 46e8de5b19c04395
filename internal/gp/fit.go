package gp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"bofl/internal/parallel"
)

// HyperOptions controls marginal-likelihood hyperparameter fitting.
type HyperOptions struct {
	// Dim is the input dimensionality. Required.
	Dim int
	// Restarts is the number of random restarts (default 8).
	Restarts int
	// Iters is the number of coordinate-descent sweeps per restart
	// (default 20).
	Iters int
	// Seed makes the random restarts deterministic.
	Seed int64
	// FixedNoise, when > 0, pins the observation-noise standard deviation
	// instead of optimizing it.
	FixedNoise float64
	// UseRBF selects the squared-exponential kernel instead of the default
	// Matérn-5/2 (ablation).
	UseRBF bool
}

// fitWS is the per-restart hyperparameter-search workspace: every
// log-marginal-likelihood probe reuses the same Gram/factor matrix, solve
// vectors, lengthscale and parameter buffers, so a full coordinate descent
// allocates nothing per probe. Pooled across restarts and calls.
//
// acc holds the Gram factors (gramFactor) of the accepted lengthscales, so a
// variance or noise probe, and every jitter retry, rebuilds the Gram without
// one exp. A lengthscale probe fills probe instead; the two slabs swap when
// the probe is accepted.
type fitWS struct {
	chol       *Matrix
	sy         []float64
	alpha      []float64
	ls         []float64
	p          []float64
	cand       []float64
	acc, probe []gramFactor
}

var fitWSPool sync.Pool

func getFitWS(n, dim, nparams int) *fitWS {
	ws, _ := fitWSPool.Get().(*fitWS)
	if ws == nil {
		ws = &fitWS{}
	}
	if ws.chol == nil || cap(ws.chol.Data) < n*n {
		ws.chol = &Matrix{Data: make([]float64, n*n)}
	}
	ws.chol.Rows, ws.chol.Cols = n, n
	ws.chol.Data = ws.chol.Data[:n*n]
	if cap(ws.sy) < n {
		ws.sy = make([]float64, n)
		ws.alpha = make([]float64, n)
	}
	npairs := n * (n - 1) / 2
	if cap(ws.acc) < npairs {
		ws.acc = make([]gramFactor, npairs)
		ws.probe = make([]gramFactor, npairs)
	}
	ws.acc, ws.probe = ws.acc[:npairs], ws.probe[:npairs]
	if cap(ws.ls) < dim {
		ws.ls = make([]float64, dim)
	}
	ws.ls = ws.ls[:dim]
	if cap(ws.p) < nparams {
		ws.p = make([]float64, nparams)
		ws.cand = make([]float64, nparams)
	}
	ws.p = ws.p[:nparams]
	ws.cand = ws.cand[:nparams]
	return ws
}

func putFitWS(ws *fitWS) { fitWSPool.Put(ws) }

// fitLL evaluates the log marginal likelihood of ys under the kernel whose
// Gram factors over the inputs are f, at signal variance v and noise,
// without constructing a Regressor: the same standardization, Gram values,
// jitter ladder and triangular solves as Fit, into the workspace's reused
// buffers. Returns −Inf when the Gram matrix is not positive definite even
// after jittering — exactly the cases where Fit would fail. Bit-identical to
// Fit followed by LogMarginalLikelihood.
func fitLL(f []gramFactor, v, noise float64, ys []float64, ws *fitWS) float64 {
	n := len(ys)
	mean, std := standardizeParams(ys)
	sy := ws.sy[:n]
	for i, y := range ys {
		sy[i] = (y - mean) / std
	}

	chol := ws.chol
	gramFromFactors(f, v, noise, n, chol)
	err := CholeskyInPlace(chol)
	jitter, cumJitter := 1e-10, 0.0
	for attempt := 0; err != nil && attempt < 7; attempt++ {
		cumJitter += jitter
		jitter *= 10
		gramFromFactors(f, v, noise, n, chol)
		for i := 0; i < n; i++ {
			chol.Set(i, i, chol.At(i, i)+cumJitter)
		}
		err = CholeskyInPlace(chol)
	}
	if err != nil {
		return math.Inf(-1)
	}
	alpha := ws.alpha[:n]
	CholeskySolveInto(chol, sy, alpha, alpha)
	return -0.5*Dot(sy, alpha) - 0.5*LogDetFromCholesky(chol) - 0.5*float64(n)*math.Log(2*math.Pi)
}

// FitHyper fits a GP to (xs, ys) with kernel hyperparameters chosen by
// maximizing the log marginal likelihood. Optimization is a multi-start
// coordinate descent in log-space over signal variance, per-dimension
// lengthscales and (optionally) observation noise — simple, dependency-free,
// and reliable for the ≤ 4-D, ≤ 100-point problems BoFL encounters.
//
// Search probes evaluate the likelihood only (fitLL, allocation-free through
// the pooled per-restart workspace); the winning parameter vector is refit
// once at the end, producing a model bit-identical to the historical
// fit-per-probe search at a fraction of the allocator traffic.
func FitHyper(xs [][]float64, ys []float64, opts HyperOptions) (*Regressor, error) {
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("gp: FitHyper requires positive Dim, got %d", opts.Dim)
	}
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("gp: %d inputs but %d targets", len(xs), len(ys))
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 8
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = 20
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Parameter vector layout in log-space:
	// [log σ², log ℓ_1..log ℓ_d, log σₙ].
	nparams := 1 + opts.Dim + 1
	lower := make([]float64, nparams)
	upper := make([]float64, nparams)
	lower[0], upper[0] = math.Log(1e-2), math.Log(1e2) // variance
	for i := 0; i < opts.Dim; i++ {
		lower[1+i], upper[1+i] = math.Log(0.03), math.Log(10) // lengthscales (inputs in [0,1])
	}
	lower[nparams-1], upper[nparams-1] = math.Log(1e-4), math.Log(0.5) // noise

	// lengthscalesInto decodes the lengthscales of a log-space parameter
	// vector into ls; noiseOf decodes its noise. Clamped log-space values
	// are always strictly positive, so no validation is needed.
	lengthscalesInto := func(p, ls []float64) {
		for i := range ls {
			ls[i] = math.Exp(p[1+i])
		}
	}
	noiseOf := func(p []float64) float64 {
		if opts.FixedNoise > 0 {
			return opts.FixedNoise
		}
		return math.Exp(p[nparams-1])
	}

	// Starting points are drawn serially up front (restart 0 keeps the
	// deterministic default start), so the restarts become independent and
	// can fan out across the worker pool while consuming the exact RNG
	// stream the serial loop did.
	starts := make([][]float64, restarts)
	for restart := range starts {
		p := make([]float64, nparams)
		if restart == 0 {
			// Sensible default start: unit variance, medium
			// lengthscales, moderate noise.
			p[0] = 0
			for i := 0; i < opts.Dim; i++ {
				p[1+i] = math.Log(0.5)
			}
			p[nparams-1] = math.Log(0.05)
		} else {
			for i := range p {
				p[i] = lower[i] + rng.Float64()*(upper[i]-lower[i])
			}
		}
		starts[restart] = p
	}

	// Each restart runs its coordinate descent independently; the reduction
	// below is serial with lowest-restart-index tie-breaking on equal log
	// marginal likelihood, so parallel and serial searches select the same
	// model.
	lls := make([]float64, restarts)
	parallel.For(restarts, func(restart int) {
		ws := getFitWS(len(xs), opts.Dim, nparams)
		defer putFitWS(ws)
		acc, probe := ws.acc, ws.probe
		p := ws.p
		copy(p, starts[restart])
		cand := ws.cand
		lengthscalesInto(p, ws.ls)
		gramFactorsInto(ws.ls, opts.UseRBF, xs, acc)
		ll := fitLL(acc, math.Exp(p[0]), noiseOf(p), ys, ws)
		// Coordinate descent with shrinking step size. Only a lengthscale
		// probe changes the Gram factors; variance and noise probes reuse
		// the accepted ones.
		step := 1.0
		for it := 0; it < iters; it++ {
			improved := false
			for i := range p {
				if opts.FixedNoise > 0 && i == nparams-1 {
					continue
				}
				lengthscale := i >= 1 && i <= opts.Dim
				for _, dir := range [2]float64{1, -1} {
					copy(cand, p)
					cand[i] = clamp(cand[i]+dir*step, lower[i], upper[i])
					if cand[i] == p[i] {
						continue
					}
					f := acc
					if lengthscale {
						lengthscalesInto(cand, ws.ls)
						gramFactorsInto(ws.ls, opts.UseRBF, xs, probe)
						f = probe
					}
					if ll2 := fitLL(f, math.Exp(cand[0]), noiseOf(cand), ys, ws); ll2 > ll {
						p, cand = cand, p
						ll = ll2
						improved = true
						if lengthscale {
							acc, probe = probe, acc
						}
					}
				}
			}
			if !improved {
				step /= 2
				if step < 1e-3 {
					break
				}
			}
		}
		// Publish the winning parameters by overwriting the start vector
		// (consumed above, dead afterwards).
		copy(starts[restart], p)
		lls[restart] = ll
	})

	bestRestart := -1
	bestLL := math.Inf(-1)
	for restart, ll := range lls {
		if !math.IsInf(ll, -1) && ll > bestLL {
			bestRestart, bestLL = restart, ll
		}
	}
	if bestRestart == -1 {
		return nil, fmt.Errorf("gp: hyperparameter search found no valid model")
	}
	// One final Fit of the winning parameters; Fit is deterministic, so
	// this is the exact model the winning probe evaluated.
	best := starts[bestRestart]
	ls := make([]float64, opts.Dim)
	lengthscalesInto(best, ls)
	variance, noise := math.Exp(best[0]), noiseOf(best)
	var k Kernel
	if opts.UseRBF {
		k = &RBF{Variance: variance, Lengthscales: ls}
	} else {
		k = &Matern52{Variance: variance, Lengthscales: ls}
	}
	r, err := Fit(k, noise, xs, ys)
	if err != nil {
		return nil, fmt.Errorf("gp: refit of selected hyperparameters: %w", err)
	}
	return r, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
