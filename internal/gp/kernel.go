package gp

import (
	"fmt"
	"math"
)

// Kernel is a positive-definite covariance function over real vectors.
type Kernel interface {
	// Eval returns k(x, y). x and y must have the dimensionality the
	// kernel was constructed with.
	Eval(x, y []float64) float64
	// Dim returns the expected input dimensionality.
	Dim() int
}

// Matern52 is the Matérn-5/2 kernel with ARD (per-dimension) lengthscales and
// a signal variance:
//
//	k(x,y) = σ² · (1 + √5 r + 5r²/3) · exp(−√5 r),  r² = Σ ((x_i−y_i)/ℓ_i)²
//
// This is the prior the BoFL paper uses for both objective surrogates (§4.3);
// it yields twice-differentiable sample paths, which captures a large variety
// of function properties without the over-smoothness of the RBF kernel.
type Matern52 struct {
	Variance     float64   // σ², must be > 0
	Lengthscales []float64 // ℓ, one per input dimension, each > 0
}

var _ Kernel = (*Matern52)(nil)

// NewMatern52 constructs a Matérn-5/2 kernel with the given signal variance
// and per-dimension lengthscales.
func NewMatern52(variance float64, lengthscales []float64) (*Matern52, error) {
	if variance <= 0 {
		return nil, fmt.Errorf("gp: matern52 variance %v must be positive", variance)
	}
	if len(lengthscales) == 0 {
		return nil, fmt.Errorf("gp: matern52 needs at least one lengthscale")
	}
	for i, l := range lengthscales {
		if l <= 0 {
			return nil, fmt.Errorf("gp: matern52 lengthscale[%d]=%v must be positive", i, l)
		}
	}
	ls := make([]float64, len(lengthscales))
	copy(ls, lengthscales)
	return &Matern52{Variance: variance, Lengthscales: ls}, nil
}

// Dim returns the input dimensionality.
func (k *Matern52) Dim() int { return len(k.Lengthscales) }

// Eval returns the Matérn-5/2 covariance between x and y.
func (k *Matern52) Eval(x, y []float64) float64 {
	r2 := 0.0
	for i := range k.Lengthscales {
		d := (x[i] - y[i]) / k.Lengthscales[i]
		r2 += d * d
	}
	r := math.Sqrt(r2)
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
}

// RBF is the squared-exponential kernel with ARD lengthscales:
//
//	k(x,y) = σ² · exp(−½ Σ ((x_i−y_i)/ℓ_i)²)
//
// Provided as an alternative prior for ablation experiments.
type RBF struct {
	Variance     float64
	Lengthscales []float64
}

var _ Kernel = (*RBF)(nil)

// NewRBF constructs a squared-exponential kernel.
func NewRBF(variance float64, lengthscales []float64) (*RBF, error) {
	if variance <= 0 {
		return nil, fmt.Errorf("gp: rbf variance %v must be positive", variance)
	}
	if len(lengthscales) == 0 {
		return nil, fmt.Errorf("gp: rbf needs at least one lengthscale")
	}
	for i, l := range lengthscales {
		if l <= 0 {
			return nil, fmt.Errorf("gp: rbf lengthscale[%d]=%v must be positive", i, l)
		}
	}
	ls := make([]float64, len(lengthscales))
	copy(ls, lengthscales)
	return &RBF{Variance: variance, Lengthscales: ls}, nil
}

// Dim returns the input dimensionality.
func (k *RBF) Dim() int { return len(k.Lengthscales) }

// Eval returns the squared-exponential covariance between x and y.
func (k *RBF) Eval(x, y []float64) float64 {
	r2 := 0.0
	for i := range k.Lengthscales {
		d := (x[i] - y[i]) / k.Lengthscales[i]
		r2 += d * d
	}
	return k.Variance * math.Exp(-0.5*r2)
}

// The devirtualized sweeps below are the numeric hot paths: they strength-
// reduce the per-dimension division to a multiplication by a precomputed
// reciprocal lengthscale. That shifts individual covariance values by at most
// an ulp per dimension relative to Eval, so every internal consumer (the Gram
// build, predict rows, Cholesky row extension, candidate caches) goes through
// these sweeps — they are all mutually bit-consistent, which is what the
// exact-equivalence tests (rank-1 update vs refit) rely on. Eval remains the
// division-based reference for external callers and the generic fallback.

// maxStackDim bounds the reciprocal-lengthscale scratch that lives on the
// stack; larger dimensionalities fall back to a heap allocation.
const maxStackDim = 24

func reciprocalsInto(ls []float64, buf []float64) []float64 {
	var ils []float64
	if len(ls) <= len(buf) {
		ils = buf[:len(ls)]
	} else {
		ils = make([]float64, len(ls))
	}
	for d, l := range ls {
		ils[d] = 1 / l
	}
	return ils
}

// priorVariance returns k(x, x). For the stationary kernels this is exactly
// the signal variance (r = 0 makes every remaining factor exactly 1), so the
// kernel sweep is skipped entirely.
func priorVariance(k Kernel, x []float64) float64 {
	switch kk := k.(type) {
	case *Matern52:
		return kk.Variance
	case *RBF:
		return kk.Variance
	default:
		return k.Eval(x, x)
	}
}

// GramMatrix builds the n×n covariance matrix K with K_ij = k(xs[i], xs[j])
// plus noise² on the diagonal.
func GramMatrix(k Kernel, xs [][]float64, noise float64) *Matrix {
	m := NewMatrix(len(xs), len(xs))
	GramInto(k, xs, noise, m)
	return m
}

// GramInto is GramMatrix into a caller-provided n×n matrix.
func GramInto(k Kernel, xs [][]float64, noise float64, m *Matrix) {
	gramLowerInto(k, xs, noise, m)
	// Mirror the strictly-lower triangle into the upper one.
	n := len(xs)
	d, stride := m.Data, m.Cols
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			d[j*stride+i] = d[i*stride+j]
		}
	}
}

// gramLowerInto fills the lower triangle (diagonal included, with noise²
// added) of m with the covariance of xs against itself, leaving the strictly
// upper triangle untouched. This is all the in-place Cholesky factorization
// reads, so Fit skips the mirror pass.
func gramLowerInto(k Kernel, xs [][]float64, noise float64, m *Matrix) {
	n := len(xs)
	data, stride := m.Data, m.Cols
	diag := noise * noise
	var ilsBuf [maxStackDim]float64
	switch kk := k.(type) {
	case *Matern52:
		v := kk.Variance
		ils := reciprocalsInto(kk.Lengthscales, ilsBuf[:])
		for i := 0; i < n; i++ {
			xi := xs[i]
			row := data[i*stride : i*stride+i+1]
			for j := 0; j < i; j++ {
				xj := xs[j]
				r2 := 0.0
				for d := range ils {
					dd := (xi[d] - xj[d]) * ils[d]
					r2 += dd * dd
				}
				r := math.Sqrt(r2)
				s5r := math.Sqrt(5) * r
				row[j] = v * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
			}
			row[i] = v + diag
		}
	case *RBF:
		v := kk.Variance
		ils := reciprocalsInto(kk.Lengthscales, ilsBuf[:])
		for i := 0; i < n; i++ {
			xi := xs[i]
			row := data[i*stride : i*stride+i+1]
			for j := 0; j < i; j++ {
				xj := xs[j]
				r2 := 0.0
				for d := range ils {
					dd := (xi[d] - xj[d]) * ils[d]
					r2 += dd * dd
				}
				row[j] = v * math.Exp(-0.5*r2)
			}
			row[i] = v + diag
		}
	default:
		for i := 0; i < n; i++ {
			row := data[i*stride : i*stride+i+1]
			for j := 0; j < i; j++ {
				row[j] = k.Eval(xs[i], xs[j])
			}
			row[i] = k.Eval(xs[i], xs[i]) + diag
		}
	}
}

// gramFactor is one strictly-lower Gram entry k(x_i, x_j) = v·poly·e split
// into its lengthscale-only factors: poly = 1 + √5r + 5r²/3 and e = e^{−√5r}
// for Matérn-5/2, poly = 1 and e = e^{−r²/2} for RBF.
type gramFactor struct{ poly, e float64 }

// gramFactorsInto fills f[i(i−1)/2+j] (j < i) with the factors of the
// Matérn-5/2 (or, with rbf set, RBF) Gram of xs at lengthscales ls, using
// gramLowerInto's reciprocal-lengthscale arithmetic. f must have length
// ≥ n(n−1)/2.
func gramFactorsInto(ls []float64, rbf bool, xs [][]float64, f []gramFactor) {
	var ilsBuf [maxStackDim]float64
	ils := reciprocalsInto(ls, ilsBuf[:])
	idx := 0
	for i := 1; i < len(xs); i++ {
		xi := xs[i]
		for j := 0; j < i; j++ {
			xj := xs[j]
			r2 := 0.0
			for d := range ils {
				dd := (xi[d] - xj[d]) * ils[d]
				r2 += dd * dd
			}
			if rbf {
				f[idx] = gramFactor{poly: 1, e: math.Exp(-0.5 * r2)}
			} else {
				r := math.Sqrt(r2)
				s5r := math.Sqrt(5) * r
				f[idx] = gramFactor{poly: 1 + s5r + 5*r2/3, e: math.Exp(-s5r)}
			}
			idx++
		}
	}
}

// gramFromFactors is gramLowerInto for the n points whose factors f holds,
// at signal variance v: it fills the lower triangle of m with (v·poly)·e —
// gramLowerInto's evaluation order, and v·1 = v exactly for RBF — so the
// matrix is bit-identical to gramLowerInto's with no exp at all.
func gramFromFactors(f []gramFactor, v, noise float64, n int, m *Matrix) {
	data, stride := m.Data, m.Cols
	diag := noise * noise
	idx := 0
	for i := 0; i < n; i++ {
		row := data[i*stride : i*stride+i+1]
		for j, fj := range f[idx : idx+i] {
			row[j] = v * fj.poly * fj.e
		}
		idx += i
		row[i] = v + diag
	}
}

// kernel1 evaluates a single covariance k(x, y) with the same reciprocal-
// lengthscale arithmetic as the sweeps, so mixing single evaluations with row
// sweeps stays bit-consistent.
func kernel1(k Kernel, x, y []float64) float64 {
	switch kk := k.(type) {
	case *Matern52:
		r2 := 0.0
		for d, l := range kk.Lengthscales {
			dd := (x[d] - y[d]) * (1 / l)
			r2 += dd * dd
		}
		r := math.Sqrt(r2)
		s5r := math.Sqrt(5) * r
		return kk.Variance * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
	case *RBF:
		r2 := 0.0
		for d, l := range kk.Lengthscales {
			dd := (x[d] - y[d]) * (1 / l)
			r2 += dd * dd
		}
		return kk.Variance * math.Exp(-0.5*r2)
	default:
		return k.Eval(x, y)
	}
}

// kernelRow fills ks[i] = k(x, xs[i]) with the same devirtualized arithmetic
// as gramLowerInto (reciprocal lengthscales), so a row computed here matches
// the corresponding Gram row bit-for-bit. ks must have len ≥ len(xs).
func kernelRow(k Kernel, x []float64, xs [][]float64, ks []float64) {
	var ilsBuf [maxStackDim]float64
	switch kk := k.(type) {
	case *Matern52:
		v := kk.Variance
		ils := reciprocalsInto(kk.Lengthscales, ilsBuf[:])
		for i, xi := range xs {
			r2 := 0.0
			for d := range ils {
				dd := (x[d] - xi[d]) * ils[d]
				r2 += dd * dd
			}
			r := math.Sqrt(r2)
			s5r := math.Sqrt(5) * r
			ks[i] = v * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
		}
	case *RBF:
		v := kk.Variance
		ils := reciprocalsInto(kk.Lengthscales, ilsBuf[:])
		for i, xi := range xs {
			r2 := 0.0
			for d := range ils {
				dd := (x[d] - xi[d]) * ils[d]
				r2 += dd * dd
			}
			ks[i] = v * math.Exp(-0.5*r2)
		}
	default:
		for i, xi := range xs {
			ks[i] = k.Eval(x, xi)
		}
	}
}

// kernelRowMu is kernelRow fused with the posterior-mean dot product: it
// returns Σ ks[i]·alpha[i] accumulated in the same ascending order
// Dot(ks, alpha) uses, while filling ks — one pass instead of two,
// bit-identical to the separate sweep.
func kernelRowMu(k Kernel, x []float64, xs [][]float64, ks, alpha []float64) float64 {
	mu := 0.0
	var ilsBuf [maxStackDim]float64
	switch kk := k.(type) {
	case *Matern52:
		v := kk.Variance
		ils := reciprocalsInto(kk.Lengthscales, ilsBuf[:])
		for i, xi := range xs {
			r2 := 0.0
			for d := range ils {
				dd := (x[d] - xi[d]) * ils[d]
				r2 += dd * dd
			}
			r := math.Sqrt(r2)
			s5r := math.Sqrt(5) * r
			kv := v * (1 + s5r + 5*r2/3) * math.Exp(-s5r)
			ks[i] = kv
			mu += kv * alpha[i]
		}
	case *RBF:
		v := kk.Variance
		ils := reciprocalsInto(kk.Lengthscales, ilsBuf[:])
		for i, xi := range xs {
			r2 := 0.0
			for d := range ils {
				dd := (x[d] - xi[d]) * ils[d]
				r2 += dd * dd
			}
			kv := v * math.Exp(-0.5*r2)
			ks[i] = kv
			mu += kv * alpha[i]
		}
	default:
		for i, xi := range xs {
			kv := k.Eval(x, xi)
			ks[i] = kv
			mu += kv * alpha[i]
		}
	}
	return mu
}
