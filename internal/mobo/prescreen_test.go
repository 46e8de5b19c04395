package mobo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bofl/internal/device"
	"bofl/internal/gp"
	"bofl/internal/parallel"
)

// scanFloat64 is the pure float64 reference scan: every live candidate is
// scored with exact float64 arithmetic. SuggestBatch must select exactly
// what a batch selection under this scan selects.
func scanFloat64(sc *scanScratch, strips *EHVIStrips, cacheE, cacheT *gp.KStarCache) {
	parallel.ForChunk(len(sc.vals), func(lo, hi int) {
		scanEHVI(strips, cacheE, cacheT, sc.live, sc.vals, sc.gs, lo, hi)
	})
}

// assertMatchesReference runs one k-pick batch selection under the
// pre-screened scan (SuggestBatch) and under the float64 reference scan on
// the same fitted optimizer, and fails unless both pick the same indices
// and coordinates with bit-identical EHVI values. It returns the
// reference's suggestions.
func assertMatchesReference(t *testing.T, name string, opt *Optimizer, k int) []Suggestion {
	t.Helper()
	want, err := opt.suggestBatch(k, scanFloat64)
	if err != nil {
		t.Fatalf("%s: reference scan: %v", name, err)
	}
	got, err := opt.SuggestBatch(k)
	if err != nil {
		t.Fatalf("%s: SuggestBatch: %v", name, err)
	}
	if len(want) == 0 {
		t.Fatalf("%s: no suggestions produced", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d suggestions, reference has %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || !reflect.DeepEqual(got[i].X, want[i].X) ||
			math.Float64bits(got[i].EHVI) != math.Float64bits(want[i].EHVI) {
			t.Fatalf("%s: pick %d diverged from the float64 reference:\nreference: %+v\nscreened:  %+v",
				name, i, want[i], got[i])
		}
	}
	return want
}

// nearDuplicate points c at src plus a 1e-7 perturbation per coordinate.
func nearDuplicate(rng *rand.Rand, c, src []float64) {
	for d := range c {
		c[d] = src[d] + 1e-7*rng.NormFloat64()
	}
}

// TestSuggestBatchMatchesFloat64Reference pins the pre-screen's soundness
// contract: SuggestBatch returns exactly the suggestions of the pure float64
// scan — same indices, same coordinates, same EHVI bits.
//
// The device cases run the controller's loop on the real Jetson AGX and TX2
// ViT spaces: a Halton starting design, then batches whose picks are
// measured and observed, into the exploitation regime. The random cases
// span 1–4 dimensions and five shapes:
//
//   - plain noisy observations;
//   - noise-free observations with near-duplicate candidates next to them:
//     nearly certain posteriors, deep in ψ's tails or below minLogSigma32;
//   - fronts whose strip bounds differ in the 13th digit (equal in float32);
//   - an exhausted pool — every live candidate sits on a clearly dominated
//     noise-free observation — where the float32 maximum is below
//     prescreenMin and the scan falls back to float64;
//   - objectives in units that make them ~3e18, where float32 moments
//     overflow unless the pass measures objectives in reference units.
func TestSuggestBatchMatchesFloat64Reference(t *testing.T) {
	t.Run("device", func(t *testing.T) {
		for _, dev := range []*device.Device{device.JetsonAGX(), device.JetsonTX2()} {
			space := dev.Space()
			candidates := make([][]float64, space.Size())
			for i := range candidates {
				cfg, err := space.Config(i)
				if err != nil {
					t.Fatal(err)
				}
				if candidates[i], err = space.Normalize(cfg); err != nil {
					t.Fatal(err)
				}
			}
			observe := func(opt *Optimizer, idx int) {
				cfg, err := space.Config(idx)
				if err != nil {
					t.Fatal(err)
				}
				lat, energy, err := dev.Perf(device.ViT, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := opt.Observe(Observation{Index: idx, Energy: energy, Latency: lat}); err != nil {
					t.Fatal(err)
				}
			}
			for seed := int64(1); seed <= 2; seed++ {
				opt, err := NewOptimizer(candidates, Options{Seed: seed, Restarts: 2, Iters: 5})
				if err != nil {
					t.Fatal(err)
				}
				start, err := HaltonIndices(8+13*int(seed), space.Dims())
				if err != nil {
					t.Fatal(err)
				}
				for _, idx := range start {
					observe(opt, idx)
				}
				for batch := 0; batch < 3; batch++ {
					name := fmt.Sprintf("%s/seed%d/batch%d", dev.Name(), seed, batch)
					for _, s := range assertMatchesReference(t, name, opt, 10) {
						observe(opt, s.Index)
					}
				}
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		const problems = 60
		exhausted := 0
		for seed := int64(0); seed < problems; seed++ {
			shape := int(seed % 5)
			rng := rand.New(rand.NewSource(7000 + seed))
			dim := 1 + int(seed/5)%4
			nc := 40 + rng.Intn(260)
			nobs := 3 + rng.Intn(16)
			k := 1 + rng.Intn(10)
			candidates := make([][]float64, nc)
			for i := range candidates {
				c := make([]float64, dim)
				for d := range c {
					c[d] = rng.Float64()
				}
				candidates[i] = c
			}
			// Smooth positive objectives with multiplicative structure, like
			// the energy/latency pair the optimizer models.
			we, wt := make([]float64, dim), make([]float64, dim)
			for d := range we {
				we[d], wt[d] = 2*rng.Float64()-1, 2*rng.Float64()-1
			}
			obj := func(w, x []float64) float64 {
				s := 0.0
				for d := range x {
					s += w[d]*x[d] + 0.3*x[d]*x[d]
				}
				return math.Exp(s)
			}
			scale, noise := 1.0, 0.05
			switch shape {
			case 1, 3:
				noise = 0
			case 4:
				scale = 3e18
			}

			observed := rng.Perm(nc)[:nobs]
			isObserved := make(map[int]bool, nobs)
			es, ls := make([]float64, nobs), make([]float64, nobs)
			for i, idx := range observed {
				isObserved[idx] = true
				x := candidates[idx]
				es[i] = obj(we, x) * (1 + noise*rng.NormFloat64())
				ls[i] = obj(wt, x) * (1 + noise*rng.NormFloat64())
				if shape == 2 {
					// Quantize energies so front points share values, then
					// split the ties in the 13th digit.
					es[i] = (1 + float64(rng.Intn(3))*1e-13) * math.Round(4*es[i]) / 4
				}
			}
			// Re-point part of the unobserved pool at near-duplicates of
			// observed points: a third of it at any observation for the
			// tiny-σ shape; all of it, for the exhausted one, at
			// observations that another observation beats by 20 % in both
			// objectives.
			switch shape {
			case 1:
				for i := 0; i < nc/3; i++ {
					if j := rng.Intn(nc); !isObserved[j] {
						nearDuplicate(rng, candidates[j], candidates[observed[rng.Intn(nobs)]])
					}
				}
			case 3:
				var dominated []int
				for i := range observed {
					for j := range observed {
						if es[j] < 0.8*es[i] && ls[j] < 0.8*ls[i] {
							dominated = append(dominated, observed[i])
							break
						}
					}
				}
				if len(dominated) == 0 {
					continue
				}
				for j := range candidates {
					if !isObserved[j] {
						nearDuplicate(rng, candidates[j], candidates[dominated[rng.Intn(len(dominated))]])
					}
				}
			}
			opt, err := NewOptimizer(candidates, Options{Seed: seed, Restarts: 2, Iters: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i, idx := range observed {
				if err := opt.Observe(Observation{Index: idx, Energy: scale * es[i], Latency: scale * ls[i]}); err != nil {
					t.Fatal(err)
				}
			}

			name := fmt.Sprintf("problem%d/shape%d/dim%d", seed, shape, dim)
			got := assertMatchesReference(t, name, opt, k)
			if shape == 3 {
				ref, err := opt.Reference()
				if err != nil {
					t.Fatal(err)
				}
				if got[0].EHVI >= prescreenMin/2*ref.X*ref.Y {
					t.Fatalf("%s: best EHVI %g does not exercise the prescreenMin fallback", name, got[0].EHVI)
				}
				exhausted++
			}
		}
		if exhausted == 0 {
			t.Fatal("no problem exercised the prescreenMin fallback")
		}
	})
}
