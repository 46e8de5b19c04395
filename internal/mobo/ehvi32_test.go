package mobo

import (
	"math"
	"testing"

	"bofl/internal/pareto"
)

// TestPsi32Accuracy pins psi32 within 1e-3 relative of psi from the deep
// lower tail (where ψ underflows float32) to far above the bound, at three
// posterior widths.
func TestPsi32Accuracy(t *testing.T) {
	const mu = 0.5
	for _, sigma := range []float64{0.01, 1, 30} {
		for tt := -13.0; tt <= 8; tt += 0.005 {
			c := mu + tt*sigma
			want := psi(c, mu, sigma)
			if want < 1e-30 {
				continue
			}
			got := float64(psi32(float32(c), float32(mu), float32(sigma)))
			if rel := math.Abs(got-want) / want; rel > 1e-3 {
				t.Fatalf("σ=%g t=%.3f: psi32 = %g, psi = %g (relative error %.2g)", sigma, tt, got, want, rel)
			}
		}
	}
}

// TestLognormalMoments32Accuracy pins the float32 moments within 1e-5
// relative of the float64 ones over the trusted region's log-space σ,
// including the nearly certain posteriors where exp(σ²) − 1 cancels.
func TestLognormalMoments32Accuracy(t *testing.T) {
	for mu := -3.0; mu <= 3; mu += 0.25 {
		for s := minLogSigma32; s <= 3; s *= 1.5 {
			g := lognormalMoments(mu, s, -mu, s)
			mx, sx, my, sy := lognormalMoments32(float32(mu), float32(s), float32(-mu), float32(s))
			for _, c := range []struct{ got, want float64 }{
				{float64(mx), g.MuX}, {float64(sx), g.SigmaX}, {float64(my), g.MuY}, {float64(sy), g.SigmaY},
			} {
				if rel := math.Abs(c.got-c.want) / c.want; rel > 1e-5 {
					t.Fatalf("μ=%g σ=%g: float32 moment %g, float64 %g (relative error %.2g)", mu, s, c.got, c.want, rel)
				}
			}
		}
	}
}

// TestScore32TrustedRegionAndUnits: a float32 score does not depend on the
// units the objectives carry (the pass works in reference units), and it is
// NaN — re-scored exactly — for posteriors outside the trusted region.
func TestScore32TrustedRegionAndUnits(t *testing.T) {
	front := []pareto.Point{{X: 0.4, Y: 0.9}, {X: 0.6, Y: 0.5}, {X: 0.9, Y: 0.3}}
	scoreAt := func(unit, muE, sE, muT, sT float64) float32 {
		scaled := make([]pareto.Point, len(front))
		for i, p := range front {
			scaled[i] = pareto.Point{X: unit * p.X, Y: unit * p.Y}
		}
		var s32 ehviStrips32
		s32.fill(NewEHVIStrips(scaled, pareto.Point{X: unit, Y: unit}))
		lu := math.Log(unit)
		return s32.score(muE+lu, sE, muT+lu, sT)
	}
	for _, p := range [][4]float64{
		{math.Log(0.5), 0.2, math.Log(0.6), 0.3},
		{math.Log(0.8), 0.05, math.Log(0.4), 0.01},
		{math.Log(1.5), 0.5, math.Log(1.2), 0.4},
	} {
		want := scoreAt(1, p[0], p[1], p[2], p[3])
		if !(want > 0) {
			t.Fatalf("posterior %v: score %g, want a positive score", p, want)
		}
		for _, unit := range []float64{1e-9, 3e18} {
			got := scoreAt(unit, p[0], p[1], p[2], p[3])
			if rel := math.Abs(float64(got-want)) / float64(want); !(rel <= 1e-6) {
				t.Errorf("posterior %v in units of %g: score %g, %g in units of 1", p, unit, got, want)
			}
		}
	}
	for name, p := range map[string][4]float64{
		"energy σ below minLogSigma32":  {0, minLogSigma32 / 2, 0, 0.1},
		"latency σ below minLogSigma32": {0, 0.1, 0, minLogSigma32 / 2},
		"energy mean past maxUnits32":   {math.Log(1000), 0.1, 0, 0.1},
		"latency σ past maxUnits32":     {0, 0.1, 0, 3},
	} {
		if got := scoreAt(1, p[0], p[1], p[2], p[3]); !math.IsNaN(float64(got)) {
			t.Errorf("%s: score %g, want NaN", name, got)
		}
	}
}

// TestPrescreenScanRescoresHalfSlice pins the pre-screen's margin: every
// live candidate whose exact EHVI is at least 0.6 of the exact maximum comes
// out of prescreenScan with exactly the float64 reference scan's value and
// posterior, not the sentinel.
func TestPrescreenScanRescoresHalfSlice(t *testing.T) {
	const nc = 256
	fx := newScanFixture(t, nc)
	run := func(scan scanFunc) *scanScratch {
		sc := &scanScratch{
			vals: make([]float64, nc), gs: make([]Gaussian2, nc),
			live: make([]bool, nc), vals32: make([]float32, nc),
		}
		for i := range sc.live {
			sc.live[i] = i%7 != 0
		}
		scan(sc, fx.strips, fx.cacheE, fx.cacheT)
		return sc
	}
	want, got := run(scanFloat64), run(prescreenScan)
	best := 0.0
	for i, v := range want.vals {
		if want.live[i] {
			best = math.Max(best, v)
		}
	}
	kept := 0
	for i, v := range want.vals {
		if !want.live[i] || v < 0.6*best {
			continue
		}
		kept++
		if math.Float64bits(got.vals[i]) != math.Float64bits(v) || got.gs[i] != want.gs[i] {
			t.Errorf("candidate %d (EHVI %g of max %g): pre-screened value %g, posterior %+v; want %+v",
				i, v, best, got.vals[i], got.gs[i], want.gs[i])
		}
	}
	if kept < 2 {
		t.Fatalf("only %d candidates within 0.6 of the maximum — fixture degenerate", kept)
	}
}
