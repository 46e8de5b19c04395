// Package exact provides an error-free weighted-sum accumulator for float64
// vectors — the numeric foundation of hierarchical FedAvg aggregation.
//
// Floating-point addition is not associative, so a tree of partial sums is in
// general *not* bit-identical to a flat left-to-right fold: the two paths
// round at different points. BoFL's aggregation tree needs the opposite
// guarantee — the root commit must be byte-identical to the flat streaming
// fold for any tree shape — so the fold is built on a fixed-point
// superaccumulator instead: every product w·v (rounded once, by the ordinary
// float64 multiply, identically on every path) is added *exactly* into a
// 2112-bit two's-complement accumulator. Exact addition is associative and
// commutative, so any grouping of the leaves — flat, binary tree, fanout-64
// tree with ragged tails, arrival-order folds inside a discrete-event
// simulator, concurrent subtree folds merged in completion order — produces
// the same accumulator state bit for bit. Rounding back to float64 happens
// exactly once, at the root commit.
//
// Representation: per accumulated scalar, 66 little-endian limbs of radix
// 2^32 held in int64 words, so each limb keeps 31 bits of carry slack. Limb k
// carries bit positions [32k, 32k+32) of the fixed-point value, with bit 0
// pinned at 2^-1074 (the smallest subnormal): the full double range
// [2^-1074, 2^1024) spans bits 0..2097, and the top limb's slack absorbs
// sums beyond the float range (they round to ±Inf). A float64 contributes its
// 53-bit significand across at most three adjacent limbs, so an Add is a
// handful of shifts and three integer adds — no branches on data magnitude.
// The slack supports ≥ 2^29 additions between carry normalizations; the
// accumulator renormalizes itself (an exact, value-preserving operation)
// long before that bound.
//
// Storage is plane-major: limb plane k of every scalar is contiguous
// (limbs[k·dim+i] holds scalar i's limb k). Well-scaled workloads touch a
// narrow limb window, so the planes an Add writes, a Reset clears, and a
// Serialize/Absorb/AddVec walks are a handful of contiguous runs — the
// layout that lets the fleet simulator's fold hot path stream instead of
// striding 528 bytes between scalars.
//
// The columns are split into stripes of StripeWidth scalars. Each stripe
// keeps its own limb window, carry budget and special flags, so folds into
// distinct stripes touch disjoint state and may run concurrently: a serving
// plane folds one update per worker, each worker walking the stripes under
// per-stripe locks. Exact addition makes the order in which rows reach a
// stripe irrelevant to the rounded sum.
//
// Specials (±Inf, NaN) cannot live in fixed point; they are tracked as
// per-scalar sticky flags with IEEE-like semantics: NaN poisons, +Inf and
// -Inf together make NaN, a lone infinity wins over any finite sum.
package exact

import (
	"fmt"
	"math"
	"math/bits"
)

// limbBits is the radix width; limbsPerAcc covers bit positions 0..2111 with
// bit 0 = 2^-1074, enough for any sum of finite float64 products plus carry
// headroom above 2^1023.
const (
	limbBits    = 32
	limbMask    = (1 << limbBits) - 1
	limbsPerAcc = 66

	// bias maps a float64's bit position onto the accumulator: a value's
	// least significant bit sits at accumulator bit (unbiasedExp + 1074).
	bias = 1074

	// renormAfter bounds unnormalized additions: each Add changes a limb by
	// < 2^33, so 2^29 adds stay well inside the int64 range (2^62).
	renormAfter = 1 << 29
)

// pow2[s] = 2^s for s in [0, 32): the multiplier table that turns AddScaled's
// variable significand shift into one widening multiply.
var pow2 = func() (t [32]uint64) {
	for s := range t {
		t[s] = 1 << s
	}
	return
}()

// StripeWidth is the column width of one stripe. A well-scaled fold touches
// about five limb planes, so one stripe's working set is ~5 × 64 KiB: it
// fits a core's L2 while another core folds a different stripe, and it is
// wide enough that the per-stripe bookkeeping of a fold (a lock, the budget
// check, the window flush) is noise next to the 8,192-scalar kernel run.
const StripeWidth = 8192

// special flags, per scalar.
const (
	flagNaN = 1 << iota
	flagPosInf
	flagNegInf
)

// Vec is a vector of exact accumulators, one per scalar of a parameter
// vector. The zero Vec is not usable; construct with NewVec.
type Vec struct {
	dim     int
	limbs   []int64 // limbsPerAcc × dim, plane-major: limbs[k·dim+i]
	stripes []stripe
}

// stripe is the bookkeeping of the columns [lo, hi). Limbs outside a
// stripe's window are zero, so the union of the stripe windows is the
// vector's window.
type stripe struct {
	lo, hi int
	// loLimb/hiLimb bound the limb window any scalar of the stripe has
	// touched: [loLimb, hiLimb). Serialization, merging and rounding only
	// walk the window, so a well-scaled workload pays for the limbs it uses,
	// not the full range.
	loLimb, hiLimb int
	// adds counts magnitude-bearing additions since the stripe's last carry
	// normalization (AddVec transfers the counter of the absorbed side).
	adds int64
	// specials holds the stripe's per-scalar sticky flags (index i−lo); nil
	// until a special arrives.
	specials []uint8
	// carry is normalizeStripe's per-scalar carry scratch, allocated on first
	// use.
	carry []int64
}

// NewVec builds an exact accumulator for dim-scalar vectors.
func NewVec(dim int) *Vec {
	if dim < 0 {
		dim = 0
	}
	v := &Vec{
		dim:     dim,
		limbs:   make([]int64, dim*limbsPerAcc),
		stripes: make([]stripe, max(1, (dim+StripeWidth-1)/StripeWidth)),
	}
	for k := range v.stripes {
		v.stripes[k] = stripe{
			lo: k * StripeWidth, hi: min((k+1)*StripeWidth, dim),
			loLimb: limbsPerAcc,
		}
	}
	return v
}

// Dim returns the vector width.
func (v *Vec) Dim() int { return v.dim }

// Stripes returns the number of column stripes: ⌈Dim/StripeWidth⌉, and at
// least one.
func (v *Vec) Stripes() int { return len(v.stripes) }

// Reset zeroes the accumulator for reuse. Only each stripe's touched window
// is cleared, so resetting a fresh or well-scaled accumulator is cheap.
func (v *Vec) Reset() {
	for k := range v.stripes {
		st := &v.stripes[k]
		for p := st.loLimb; p < st.hiLimb; p++ {
			clear(v.limbs[p*v.dim+st.lo : p*v.dim+st.hi])
		}
		st.loLimb, st.hiLimb = limbsPerAcc, 0
		st.adds = 0
		st.specials = nil
	}
}

// Window returns the touched limb window [lo, hi), the union of the stripe
// windows; lo ≥ hi means untouched.
func (v *Vec) Window() (lo, hi int) {
	lo, hi = limbsPerAcc, 0
	for k := range v.stripes {
		lo = min(lo, v.stripes[k].loLimb)
		hi = max(hi, v.stripes[k].hiLimb)
	}
	return lo, hi
}

// stripeOf returns the stripe holding scalar i.
func (v *Vec) stripeOf(i int) *stripe { return &v.stripes[i/StripeWidth] }

// special returns the flag byte for scalar i.
func (v *Vec) special(i int) uint8 {
	st := v.stripeOf(i)
	if st.specials == nil {
		return 0
	}
	return st.specials[i-st.lo]
}

// orSpecial merges flags into scalar i's sticky byte.
func (st *stripe) orSpecial(i int, f uint8) {
	if f == 0 {
		return
	}
	if st.specials == nil {
		st.specials = make([]uint8, st.hi-st.lo)
	}
	st.specials[i-st.lo] |= f
}

// growWindow widens the touched window to include limbs [lo, hi).
func (st *stripe) growWindow(lo, hi int) {
	st.loLimb = min(st.loLimb, lo)
	st.hiLimb = max(st.hiLimb, hi)
}

// addSlow handles the shapes the fold kernel punts on: specials and
// subnormals. b is the raw float64 bit pattern of scalar i's product, known
// nonzero.
func (v *Vec) addSlow(st *stripe, i int, b uint64) {
	exp := int(b>>52) & 0x7FF
	frac := b & (1<<52 - 1)
	if exp == 0x7FF {
		switch {
		case frac != 0:
			st.orSpecial(i, flagNaN)
		case b>>63 != 0:
			st.orSpecial(i, flagNegInf)
		default:
			st.orSpecial(i, flagPosInf)
		}
		return
	}
	// Subnormal: same scale as exponent 1, no implicit bit — the significand
	// lands at bit 0, spanning limb planes 0 and 1.
	dim := v.dim
	if b>>63 != 0 {
		v.limbs[i] -= int64(frac & limbMask)
		v.limbs[dim+i] -= int64(frac >> limbBits)
	} else {
		v.limbs[i] += int64(frac & limbMask)
		v.limbs[dim+i] += int64(frac >> limbBits)
	}
	st.growWindow(0, 3)
}

// bumpAdds charges n additions against the stripe's carry slack,
// renormalizing it first when the budget would run out. Renormalization is
// exact, so *when* it runs never affects the rounded result.
func (v *Vec) bumpAdds(st *stripe, n int64) {
	if st.adds+n >= renormAfter {
		v.normalizeStripe(st, st.hiLimb)
	}
	st.adds += n
}

// Add adds x[i] exactly into scalar i for every i. len(x) must equal Dim.
func (v *Vec) Add(x []float64) {
	// 1·x is exact for every float64 (including ±0, subnormals and specials),
	// so Add shares AddScaled's kernel.
	v.AddScaled(1, x)
}

// AddScaled adds w·x[i] into scalar i for every i. The product is rounded
// once by the ordinary float64 multiply — the same rounding every aggregation
// path performs — and then accumulated exactly.
func (v *Vec) AddScaled(w float64, x []float64) {
	v.checkDim(len(x))
	for k := range v.stripes {
		v.addStripe(&v.stripes[k], w, x)
	}
}

// AddScaledStripe is AddScaled restricted to the columns of stripe k: x is a
// full Dim-wide row, and only its stripe-k scalars are added. Calls on
// distinct stripes may run concurrently; a row folded into every stripe once,
// in any order and from any goroutines, leaves the accumulator exactly as
// AddScaled would.
func (v *Vec) AddScaledStripe(k int, w float64, x []float64) {
	v.checkDim(len(x))
	v.addStripe(&v.stripes[k], w, x)
}

// addStripe folds w·x into one stripe: the kernel runs until a subnormal or
// special product, addSlow takes that one scalar, and the kernel resumes
// after it.
func (v *Vec) addStripe(st *stripe, w float64, x []float64) {
	v.bumpAdds(st, 1)
	for i := st.lo; i < st.hi; i++ {
		n, touched := addKernel(v.limbs[i:], v.dim, w, x[i:st.hi])
		if touched != 0 {
			st.growWindow(bits.TrailingZeros64(touched), 64-bits.LeadingZeros64(touched)+2)
		}
		if i += n; i == st.hi {
			break
		}
		v.addSlow(st, i, math.Float64bits(w*x[i]))
	}
}

// addKernel is the fold hot path: it adds w·x[j] into column j of the
// plane-major limbs (plane stride dim) for every j up to the first subnormal
// or special product, skipping zeros. It returns how many scalars it passed
// and a bit set of the limb planes their lowest limbs landed in (a normal
// product's lowest limb is in [0, 64)). It makes no
// calls, so the loop keeps its state in registers; addStripe handles the
// scalar it stops at.
func addKernel(limbs []int64, dim int, w float64, x []float64) (n int, touched uint64) {
	for j, xj := range x {
		b := math.Float64bits(w * xj)
		exp := int(b>>52) & 0x7FF
		if uint(exp-1) >= 0x7FE { // zero, subnormal or special
			if b<<1 == 0 {
				continue // ±0 contributes nothing
			}
			return j, touched
		}
		frac := b&(1<<52-1) | 1<<52
		// Value = frac · 2^(exp-1075); its least significant bit sits at
		// accumulator bit pos = (exp-1075) + bias = exp - 1. The widening
		// multiply by 2^(pos mod 32) is the 85-bit shift-and-split in one
		// µop — no variable shifts, no shift-amount branches.
		pos := exp - 1
		limb := pos >> 5
		high, low := bits.Mul64(frac, pow2[pos&31])
		base := limb*dim + j
		// The sign is a mask, not a branch: s is 0 or −1, and (d^s)−s is d or
		// −d. Signs of trained weights are a coin flip, so a branch here
		// mispredicts half the time.
		s := int64(b) >> 63
		// All three loads issue before any store: with power-of-two dims the
		// first store and the plane+2 load sit exactly 2·8·dim bytes apart,
		// and store-before-load ordering would trip 4K-aliasing false
		// dependences that serialize the loop.
		d0, d1, d2 := limbs[base], limbs[base+dim], limbs[base+2*dim]
		limbs[base] = d0 + (int64(low&limbMask) ^ s) - s
		limbs[base+dim] = d1 + (int64(low>>limbBits) ^ s) - s
		limbs[base+2*dim] = d2 + (int64(high) ^ s) - s
		touched |= 1 << (limb & 63) // a no-op mask that spares the shift's range check
	}
	return len(x), touched
}

func (v *Vec) checkDim(n int) {
	if n != v.dim {
		panic(fmt.Sprintf("exact: vector length %d, accumulator dim %d", n, v.dim))
	}
}

// AddVec merges o into v exactly: afterwards v holds the sum of everything
// either accumulator had absorbed. This is the tree-aggregation merge; it is
// associative by construction. o is left unchanged.
func (v *Vec) AddVec(o *Vec) error {
	if o.dim != v.dim {
		return fmt.Errorf("exact: merge dim %d into dim %d", o.dim, v.dim)
	}
	for k := range o.stripes {
		src, dst := &o.stripes[k], &v.stripes[k]
		if src.loLimb < src.hiLimb {
			// Each merged limb may carry up to src.adds' worth of magnitude.
			v.bumpAdds(dst, max(src.adds, 1))
			for p := src.loLimb; p < src.hiLimb; p++ {
				row := o.limbs[p*o.dim+src.lo : p*o.dim+src.hi]
				out := v.limbs[p*v.dim+dst.lo : p*v.dim+dst.hi]
				for j, d := range row {
					out[j] += d
				}
			}
			dst.growWindow(src.loLimb, src.hiLimb)
		}
		for j, f := range src.specials {
			dst.orSpecial(src.lo+j, f)
		}
	}
	return nil
}

// normalize canonicalizes every stripe to the vector's top plane, the state
// RoundTo reads.
func (v *Vec) normalize() {
	_, top := v.Window()
	for k := range v.stripes {
		v.normalizeStripe(&v.stripes[k], top)
	}
}

// normalizeStripe propagates the stripe's carries to canonical two's-complement
// form up to plane top (≥ hiLimb): every limb of planes [loLimb, top) is in
// [0, 2^32), and plane top takes the residual carry and the sign. Exact: the
// represented value is unchanged. Called only at rounding time and for
// carry-slack relief, never on the serialization path, so snapshots keep
// their compact windows. Carry-slack relief passes the stripe's own
// hiLimb, touching nothing outside the stripe; normalize passes the
// vector's, so every stripe canonicalizes to the same top plane, and a
// stripe's window widens to that plane.
//
// The plane-major layout turns the per-scalar carry chains into a batched
// sweep: one pass per limb plane with a stripe-wide carry row, so the stripe
// normalizes in contiguous memory instead of separate strided chains. For a
// negative sum the top plane replaces the old sign-extension walk to the
// array top, and the vector's window grows by at most one plane.
func (v *Vec) normalizeStripe(st *stripe, top int) {
	if st.loLimb >= st.hiLimb {
		st.adds = 0
		return
	}
	dim, w := v.dim, st.hi-st.lo
	if cap(st.carry) < w {
		st.carry = make([]int64, w)
	}
	carry := st.carry[:w]
	clear(carry)
	top = min(top, limbsPerAcc-1) // the last plane stays signed; never canonicalized
	for k := st.loLimb; k < top; k++ {
		plane := v.limbs[k*dim+st.lo : k*dim+st.hi]
		for i, d := range plane {
			t := d + carry[i]
			carry[i] = t >> limbBits // arithmetic shift: floor division
			plane[i] = t & limbMask
		}
	}
	plane := v.limbs[top*dim+st.lo : top*dim+st.hi]
	grew := false
	for i, c := range carry {
		if c != 0 {
			plane[i] += c
			grew = true
		}
	}
	// The sweep may have carried into planes above the stripe's own window,
	// so the window widens to every plane it wrote: Reset and AddVec walk
	// only the stripe's window and must see them.
	st.hiLimb = max(st.hiLimb, top)
	if grew {
		st.hiLimb = max(st.hiLimb, top+1)
	}
	st.adds = 1
	// The bottom of the window cannot move down, and zero limbs at the
	// bottom are harmless; leave loLimb as-is.
}

// RoundTo writes the correctly rounded (nearest-even) float64 value of every
// scalar into dst, which must have length Dim. The accumulator is left
// normalized but intact — rounding is read-only with respect to the sum.
func (v *Vec) RoundTo(dst []float64) {
	v.checkDim(len(dst))
	v.normalize()
	lo, hi := v.Window()
	var mag [limbsPerAcc]uint64
	for i := range dst {
		dst[i] = v.roundScalar(i, lo, hi, &mag)
	}
}

// roundScalar rounds scalar i of a normalized accumulator whose window is
// [lo, hi). mag is caller scratch for the magnitude limbs.
func (v *Vec) roundScalar(i, lo, hi int, mag *[limbsPerAcc]uint64) float64 {
	if f := v.special(i); f != 0 {
		switch {
		case f&flagNaN != 0, f&(flagPosInf|flagNegInf) == flagPosInf|flagNegInf:
			return math.NaN()
		case f&flagPosInf != 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	dim := v.dim
	if lo >= hi {
		return 0
	}
	// After normalize, limbs below hi-1 are in [0, 2^32); the top limb is
	// signed and dominates the sign.
	neg := v.limbs[(hi-1)*dim+i] < 0
	if !neg {
		for k := lo; k < hi; k++ {
			mag[k] = uint64(v.limbs[k*dim+i])
		}
	} else {
		// Negate the two's-complement digit string to get the magnitude:
		// m_k = (2^32 - d_k - borrow) mod 2^32, with the signed top limb
		// absorbing the final borrow.
		var borrow uint64
		for k := lo; k < hi-1; k++ {
			d := uint64(v.limbs[k*dim+i]) // in [0, 2^32) after normalize
			mag[k] = (0 - d - borrow) & limbMask
			if d != 0 || borrow != 0 {
				borrow = 1
			}
		}
		mag[hi-1] = uint64(-(v.limbs[(hi-1)*dim+i] + int64(borrow)))
	}
	// Locate the most significant set bit.
	msLimb := -1
	for k := hi - 1; k >= lo; k-- {
		if mag[k] != 0 {
			msLimb = k
			break
		}
	}
	if msLimb < 0 {
		return 0 // exact zero keeps the +0 sign, like a float64 sum reset to 0
	}
	msBit := msLimb*limbBits + 63 - bits.LeadingZeros64(mag[msLimb])
	// Unbiased exponent of the leading bit.
	e := msBit - bias
	if e > 1023 {
		if neg {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	if e < -1022 {
		// Entirely within subnormal range: every bit position ≥ 0 is
		// representable, so the value is exact. msBit ≤ 51 here.
		frac := v.gatherBits(mag, lo, 0, msBit)
		b := frac
		if neg {
			b |= 1 << 63
		}
		return math.Float64frombits(b)
	}
	// Normal: significand bits msBit..msBit-52, guard at msBit-53, sticky
	// below.
	sig := v.gatherBits(mag, lo, msBit-52, msBit)
	guard := uint64(0)
	if g := msBit - 53; g >= 0 {
		guard = v.gatherBits(mag, lo, g, g)
	}
	sticky := false
	if s := msBit - 54; s >= 0 {
		sticky = v.anyBitsBelow(mag, lo, s)
	}
	if guard == 1 && (sticky || sig&1 == 1) {
		sig++
		if sig == 1<<53 {
			sig >>= 1
			e++
			if e > 1023 {
				if neg {
					return math.Inf(-1)
				}
				return math.Inf(1)
			}
		}
	}
	b := uint64(e+1023)<<52 | (sig &^ (1 << 52))
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b)
}

// gatherBits extracts bit positions [from, to] (inclusive, to ≥ from) of the
// magnitude digit string as a uint64; positions below limb lo (or 0) read 0.
func (v *Vec) gatherBits(mag *[limbsPerAcc]uint64, loLimb, from, to int) uint64 {
	if from < 0 {
		from = 0
	}
	var out uint64
	for k := from >> 5; k <= to>>5 && k < limbsPerAcc; k++ {
		if k < loLimb {
			continue
		}
		d := mag[k]
		limbBase := k * limbBits
		shift := from - limbBase
		if shift > 0 {
			d >>= uint(shift)
			limbBase = from
		}
		out |= d << uint(limbBase-from)
	}
	width := uint(to - from + 1)
	if width < 64 {
		out &= 1<<width - 1
	}
	return out
}

// anyBitsBelow reports whether any bit at position ≤ to is set.
func (v *Vec) anyBitsBelow(mag *[limbsPerAcc]uint64, loLimb, to int) bool {
	if to < 0 {
		return false
	}
	full := to >> 5
	for k := loLimb; k < full && k < limbsPerAcc; k++ {
		if mag[k] != 0 {
			return true
		}
	}
	if full >= limbsPerAcc || full < loLimb {
		return false
	}
	rem := uint(to - full*limbBits + 1)
	return mag[full]&(1<<rem-1) != 0
}

// --- serialization ------------------------------------------------------

// Serialized is the compact snapshot of a Vec: the touched limb window of
// every scalar plus the sticky special flags — what a fleet shard hands the
// merge spine in place of a full accumulator. Limbs are plane-major,
// matching Vec storage: limb plane k ∈ [Lo, Hi) occupies
// Limbs[(k-Lo)·Dim : (k-Lo+1)·Dim], scalar i at offset i.
type Serialized struct {
	Dim      int
	Lo, Hi   int      // limb window [Lo, Hi)
	Adds     int64    // carry-slack charge carried by the window
	Limbs    []uint64 // int64 limbs bit-cast; len = Dim·(Hi-Lo)
	Specials []uint8  // nil when no scalar holds a special
}

// SerializeInto snapshots the accumulator into s, reusing s.Limbs when it has
// capacity — the zero-allocation path for per-shard snapshots. The snapshot
// shares no storage with v.
func (v *Vec) SerializeInto(s *Serialized) {
	s.Dim = v.dim
	s.Adds = 0
	s.Specials = nil
	for k := range v.stripes {
		st := &v.stripes[k]
		// Every stripe's limbs are bounded by its own charge, so the largest
		// one bounds the snapshot.
		s.Adds = max(s.Adds, st.adds)
		if st.specials != nil {
			if s.Specials == nil {
				s.Specials = make([]uint8, v.dim)
			}
			copy(s.Specials[st.lo:st.hi], st.specials)
		}
	}
	lo, hi := v.Window()
	if lo >= hi {
		s.Lo, s.Hi = 0, 0
		s.Limbs = s.Limbs[:0]
	} else {
		s.Lo, s.Hi = lo, hi
		n := v.dim * (s.Hi - s.Lo)
		if cap(s.Limbs) < n {
			s.Limbs = make([]uint64, n)
		}
		s.Limbs = s.Limbs[:n]
		src := v.limbs[s.Lo*v.dim : s.Hi*v.dim]
		for j, d := range src {
			s.Limbs[j] = uint64(d)
		}
	}
}

// Serialize snapshots the accumulator. The snapshot shares no storage with v.
func (v *Vec) Serialize() Serialized {
	var s Serialized
	v.SerializeInto(&s)
	if len(s.Limbs) == 0 {
		s.Limbs = nil
	}
	return s
}

// Absorb merges a serialized accumulator into v exactly — the receiving half
// of a shard merge; it equals AddVec of the source accumulator. It validates
// the window, length and limb bounds, so a corrupt snapshot cannot write out
// of bounds or overflow a limb.
func (v *Vec) Absorb(s Serialized) error {
	if s.Dim != v.dim {
		return fmt.Errorf("exact: absorb dim %d into dim %d", s.Dim, v.dim)
	}
	if s.Lo > s.Hi || s.Lo < 0 || s.Hi > limbsPerAcc {
		return fmt.Errorf("exact: absorb window [%d, %d)", s.Lo, s.Hi)
	}
	w := s.Hi - s.Lo
	if len(s.Limbs) != s.Dim*w {
		return fmt.Errorf("exact: absorb %d limbs, want %d", len(s.Limbs), s.Dim*w)
	}
	if s.Specials != nil && len(s.Specials) != s.Dim {
		return fmt.Errorf("exact: absorb %d special flags, want %d", len(s.Specials), s.Dim)
	}
	if w > 0 {
		// An honest snapshot's limbs are bounded by its carry-slack charge;
		// one claiming more is corrupt and must not be able to overflow the
		// int64 limbs on merge.
		const maxLimbMag = int64(1) << 62
		for _, l := range s.Limbs {
			if sl := int64(l); sl > maxLimbMag || sl < -maxLimbMag {
				return fmt.Errorf("exact: absorb limb magnitude %d exceeds bound", sl)
			}
		}
		charge := max(s.Adds, 1)
		for k := range v.stripes {
			st := &v.stripes[k]
			if charge > renormAfter {
				// A hostile Adds cannot force overflow: renormalize now and
				// treat the incoming window as fully charged.
				v.normalizeStripe(st, st.hiLimb)
				v.bumpAdds(st, renormAfter-1)
			} else {
				v.bumpAdds(st, charge)
			}
			st.growWindow(s.Lo, s.Hi)
		}
		dst := v.limbs[s.Lo*v.dim : s.Hi*v.dim]
		for j, l := range s.Limbs {
			dst[j] += int64(l)
		}
	}
	for i, f := range s.Specials {
		v.stripeOf(i).orSpecial(i, f)
	}
	return nil
}

// MemoryBytes reports the accumulator's limb storage footprint — the quantity
// the fleet simulator's per-node memory accounting sums.
func (v *Vec) MemoryBytes() int64 { return int64(len(v.limbs)) * 8 }

// VecBytes is NewVec(dim).MemoryBytes() as a formula — the per-accumulator
// footprint, for memory accounting that must not allocate an accumulator to
// measure one.
func VecBytes(dim int) int64 {
	if dim < 0 {
		dim = 0
	}
	return int64(dim) * limbsPerAcc * 8
}
