package mobo

import "math"

// Float32 pre-screen of the EHVI candidate scan (prescreenScan).
//
// The pre-screen scores every live candidate with float32 arithmetic and
// polynomial approximations of exp/erfc (ψ within 5.5e-4 relative, several
// times cheaper than the exact float64 library calls), keeps the
// slice of candidates whose approximate score is within a factor of two of
// the approximate maximum, and re-scores only that slice with the exact
// float64 path. Selection then runs on exact float64 values with the usual
// lowest-index-wins rule, so the picked candidates are bit-identical to a
// pure-float64 scan — the approximation only decides how much of the
// candidate set can be skipped, never which candidate wins. A factor-of-two
// margin is orders of magnitude wider than the approximation error.
//
// The float32 pass works in units of the reference point (each objective
// divided by its reference coordinate), so its scores are fractions of the
// reference box whatever units the objectives carry: nothing overflows at
// large magnitudes, and prescreenMin is a fraction of the box. A candidate
// outside the region where float32 is trusted (see score) is always scored
// exactly, and the scan falls back to the full float64 path whenever the
// float32 maximum is too small to trust (float32 resolution near zero,
// where acquisition is effectively exhausted).
// TestSuggestBatchMatchesFloat64Reference replays whole batch selections
// under both scans, on the real device spaces and on random problems.

const (
	invSqrt2f   float32 = 0.70710678118654752
	invSqrt2Pif float32 = 0.39894228040143268
)

// exp32 is a range-reduced polynomial e^x: x = k·ln2 + r with |r| ≤ ln2/2,
// e^x = 2^k · e^r, e^r by a degree-5 Taylor polynomial (absolute error
// ≲ 3e-6 over the reduced interval, relative error ~1e-7 after scaling).
func exp32(x float32) float32 {
	const (
		log2e float32 = 1.4426950408889634
		ln2hi float32 = 6.9314575195e-01
		ln2lo float32 = 1.4286067653e-06
	)
	if x > 88 {
		return float32(math.Inf(1))
	}
	if x < -87 {
		return 0
	}
	kf := x * log2e
	var k int32
	if kf >= 0 {
		k = int32(kf + 0.5)
	} else {
		k = int32(kf - 0.5)
	}
	fk := float32(k)
	r := (x - fk*ln2hi) - fk*ln2lo
	p := 1 + r*(1+r*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120)))))
	return p * math.Float32frombits(uint32(127+k)<<23)
}

// erfc32 approximates the complementary error function with the
// Abramowitz–Stegun 7.1.26 rational polynomial (|ε| ≤ 1.5e-7 absolute),
// given ez = e^{−z²} from the caller.
func erfc32(z, ez float32) float32 {
	neg := z < 0
	if neg {
		z = -z
	}
	t := 1 / (1 + 0.3275911*z)
	poly := t * (0.254829592 + t*(-0.284496736+t*(1.421413741+t*(-1.453152027+t*1.061405429))))
	e := poly * ez
	if neg {
		return 2 - e
	}
	return e
}

// psi32 is psi (expected one-dimensional improvement below c) in float32.
// The normal density's e^{−t²/2} is also erfc's e^{−z²} at z = −t/√2, so one
// exp32 serves both.
//
// Below t = −3, t·Φ(t) + φ(t) cancels: the erfc approximation's absolute
// error turns into a relative error in ψ that grows past 10 % by t = −6. The
// tail therefore uses ψ/σ = φ(t)·u·h(u) with u = 1/t², where h is a degree-6
// least-squares fit to the Mills-ratio form of ψ (asymptotically
// 1 − 3u + 15u² − …; relative error ≤ 1.2e-6 for t ≤ −3).
func psi32(c, mu, sigma float32) float32 {
	if sigma <= 0 {
		if d := c - mu; d > 0 {
			return d
		}
		return 0
	}
	t := (c - mu) / sigma
	e := exp32(-0.5 * t * t)
	pdf := e * invSqrt2Pif
	if t < -3 {
		u := 1 / (t * t)
		h := 0.9999987785 + u*(-2.99887548+u*(14.8232727+u*(-93.88831123+u*(572.8885446+u*(-2452.930354+u*4933.200549)))))
		return sigma * pdf * u * h
	}
	cdf := 0.5 * erfc32(-t*invSqrt2f, e)
	return sigma * (t*cdf + pdf)
}

// expm1_32 is e^x − 1 without the cancellation of exp32(x) − 1 near zero,
// where a nearly certain posterior would otherwise get a zero variance.
func expm1_32(x float32) float32 {
	if x > -0.25 && x < 0.25 {
		return x * (1 + x*(0.5+x*(1.0/6+x*(1.0/24+x*(1.0/120+x*(1.0/720))))))
	}
	return exp32(x) - 1
}

// lognormalMoments32 is lognormalMoments in float32.
func lognormalMoments32(muE, sE, muT, sT float32) (mx, sx, my, sy float32) {
	mx = exp32(muE + sE*sE/2)
	vx := expm1_32(sE*sE) * exp32(2*muE+sE*sE)
	my = exp32(muT + sT*sT/2)
	vy := expm1_32(sT*sT) * exp32(2*muT+sT*sT)
	return mx, float32(math.Sqrt(float64(vx))), my, float32(math.Sqrt(float64(vy)))
}

// ehviStrips32 is the float32 mirror of an EHVIStrips decomposition in
// reference units, laid out as flat bound arrays for the pre-screen's tight
// scan loop. The value buffers are owned by the caller's scratch arena and
// reused across picks.
type ehviStrips32 struct {
	empty      bool
	refX, refY float32
	b0         float32
	a, b, c    []float32
	// lnUnitX and lnUnitY are the logs of the units: subtracted from a
	// log-space posterior mean, they put its lognormal moments in the same
	// units as the bounds.
	lnUnitX, lnUnitY float64
}

// refUnit is the unit the float32 pass measures an objective in: its
// reference coordinate, or 1 when that is not a positive finite number.
func refUnit(ref float64) float64 {
	if ref > 0 && ref <= math.MaxFloat64 {
		return ref
	}
	return 1
}

// fill mirrors s into the float32 decomposition, reusing the receiver's
// bound slices.
func (s32 *ehviStrips32) fill(s *EHVIStrips) {
	ux, uy := refUnit(s.ref.X), refUnit(s.ref.Y)
	s32.lnUnitX, s32.lnUnitY = math.Log(ux), math.Log(uy)
	s32.empty = s.empty
	s32.refX, s32.refY = float32(s.ref.X/ux), float32(s.ref.Y/uy)
	s32.b0 = float32(s.b0 / ux)
	s32.a, s32.b, s32.c = s32.a[:0], s32.b[:0], s32.c[:0]
	for _, st := range s.strips {
		s32.a = append(s32.a, float32(st.a/ux))
		s32.b = append(s32.b, float32(st.b/ux))
		s32.c = append(s32.c, float32(st.c/uy))
	}
}

// Bounds of the region where a float32 score is trusted: log-space
// posterior σ of at least minLogSigma32 (below it, rounding the mean to
// float32 moves t = (c − μ)/σ by a visible fraction), and lognormal moments
// of at most maxUnits32 reference units (beyond it, ψ values dwarf the strip
// widths they are differenced over).
const (
	minLogSigma32         = 3e-5
	maxUnits32    float32 = 256
)

// score is the float32 EHVI of a candidate whose log-space posteriors are
// (muE, sE) and (muT, sT), or NaN outside the trusted region. NaN is never
// below the re-scoring threshold, so such a candidate is always scored
// exactly.
func (s32 *ehviStrips32) score(muE, sE, muT, sT float64) float32 {
	if sE < minLogSigma32 || sT < minLogSigma32 {
		return float32(math.NaN())
	}
	mx, sx, my, sy := lognormalMoments32(float32(muE-s32.lnUnitX), float32(sE), float32(muT-s32.lnUnitY), float32(sT))
	if !(mx <= maxUnits32 && sx <= maxUnits32 && my <= maxUnits32 && sy <= maxUnits32) {
		return float32(math.NaN())
	}
	return s32.value(mx, sx, my, sy)
}

// value is EHVIStrips.Value in float32, with the same boundary-sharing
// memoization.
func (s32 *ehviStrips32) value(muX, sgX, muY, sgY float32) float32 {
	if s32.empty {
		return psi32(s32.refX, muX, sgX) * psi32(s32.refY, muY, sgY)
	}
	prevB := s32.b0
	prevPsi1 := psi32(s32.b0, muX, sgX)
	total := prevPsi1 * psi32(s32.refY, muY, sgY)
	for i := range s32.a {
		pa := prevPsi1
		if s32.a[i] != prevB {
			pa = psi32(s32.a[i], muX, sgX)
		}
		pb := psi32(s32.b[i], muX, sgX)
		total += (pb - pa) * psi32(s32.c[i], muY, sgY)
		prevB, prevPsi1 = s32.b[i], pb
	}
	if total < 0 {
		total = 0
	}
	return total
}
