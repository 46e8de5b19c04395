package exact

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// stripeRows draws n rows of width dim with example weights: well-scaled
// values, exact zeros, subnormal products confined to stripe 0 and ±Inf
// confined to the last stripe, so the specials and the slow path land in
// different stripes.
func stripeRows(rng *rand.Rand, n, dim int) (rows [][]float64, weights []float64) {
	last := (dim - 1) / StripeWidth * StripeWidth
	for r := 0; r < n; r++ {
		row := make([]float64, dim)
		for j := range row {
			switch u := rng.Intn(16); {
			case u == 0:
				row[j] = 0
			case u == 1 && j < StripeWidth:
				row[j] = math.Ldexp(float64(1+rng.Intn(1<<20)), -1074) // subnormal product
			case u == 2 && j >= last && r%5 == 2:
				row[j] = math.Inf(1 - 2*rng.Intn(2))
			default:
				row[j] = float64(float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)))
			}
		}
		rows = append(rows, row)
		weights = append(weights, float64(1+rng.Intn(29)))
	}
	return rows, weights
}

// foldConcurrently folds every row into v from g goroutines, each owning a
// disjoint set of stripes dealt from a shuffled order. Every stripe sees the
// rows in row order, as AddScaled feeds them.
func foldConcurrently(v *Vec, rows [][]float64, weights []float64, g int, rng *rand.Rand) {
	order := rng.Perm(v.Stripes())
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := w; o < len(order); o += g {
				for r, row := range rows {
					v.AddScaledStripe(order[o], weights[r], row)
				}
			}
		}()
	}
	wg.Wait()
}

// assertSameState compares two accumulators the way every consumer sees
// them: the window, the serialized frame (limbs, Adds, specials) and the
// rounded values, then the frame again after rounding's normalization.
func assertSameState(t *testing.T, label string, got, want *Vec) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		gl, gh := got.Window()
		wl, wh := want.Window()
		if gl != wl || gh != wh {
			t.Fatalf("%s pass %d: window [%d, %d), want [%d, %d)", label, pass, gl, gh, wl, wh)
		}
		gs, ws := got.Serialize(), want.Serialize()
		if gs.Lo != ws.Lo || gs.Hi != ws.Hi || gs.Adds != ws.Adds {
			t.Fatalf("%s pass %d: frame [%d, %d) adds %d, want [%d, %d) adds %d",
				label, pass, gs.Lo, gs.Hi, gs.Adds, ws.Lo, ws.Hi, ws.Adds)
		}
		if !slices.Equal(gs.Limbs, ws.Limbs) {
			t.Fatalf("%s pass %d: serialized limbs differ", label, pass)
		}
		if !slices.Equal(gs.Specials, ws.Specials) {
			t.Fatalf("%s pass %d: specials differ", label, pass)
		}
		gr, wr := make([]float64, got.Dim()), make([]float64, want.Dim())
		got.RoundTo(gr)
		want.RoundTo(wr)
		for j := range wr {
			if !bitsEq(gr[j], wr[j]) {
				t.Fatalf("%s pass %d: scalar %d rounds to %x, want %x", label, pass, j,
					math.Float64bits(gr[j]), math.Float64bits(wr[j]))
			}
		}
	}
}

// TestConcurrentStripeFoldsMatchSerial is the stripe property: folding rows
// into disjoint stripes from several goroutines, stripes in shuffled order,
// leaves the accumulator bit-identical to serial AddScaled — window, frame
// bytes, carry charge, specials and rounded values — across single-stripe,
// exactly-one-stripe and ragged multi-stripe widths, with a renormalization
// forced partway through every stripe.
func TestConcurrentStripeFoldsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for _, dim := range []int{1, StripeWidth - 1, StripeWidth, 3*StripeWidth + 5} {
		for _, renorm := range []bool{false, true} {
			rows, weights := stripeRows(rng, 12, dim)
			serial, conc := NewVec(dim), NewVec(dim)
			if renorm {
				// Leave room for five adds: the sixth row's fold in every
				// stripe runs the carry-slack renormalization.
				for _, v := range []*Vec{serial, conc} {
					for k := range v.stripes {
						v.stripes[k].adds = renormAfter - 6
					}
				}
			}
			for r, row := range rows {
				serial.AddScaled(weights[r], row)
			}
			foldConcurrently(conc, rows, weights, 3, rng)
			label := "dim " + strconv.Itoa(dim)
			if renorm {
				label += " renorm"
				if adds := serial.Serialize().Adds; adds >= int64(len(rows)) {
					t.Fatalf("%s: carry charge %d, the renormalization never ran", label, adds)
				}
			}
			assertSameState(t, label, conc, serial)
		}
	}
}

// TestStripedRoundingMatchesOracle checks a multi-stripe vector column by
// column against one-scalar accumulators, at the stripe edges and a sample
// of interior columns, so the per-stripe windows cannot change a value.
func TestStripedRoundingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 3*StripeWidth + 5
	rows, weights := stripeRows(rng, 9, dim)
	v := NewVec(dim)
	for r, row := range rows {
		v.AddScaled(weights[r], row)
	}
	got := make([]float64, dim)
	v.RoundTo(got)
	for j := 0; j < dim; j++ {
		if j%StripeWidth > 1 && j%StripeWidth < StripeWidth-1 && j%97 != 0 && j != dim-1 {
			continue
		}
		xs := make([]float64, len(rows))
		for r, row := range rows {
			xs[r] = weights[r] * row[j]
		}
		if want := addAll(t, xs); !bitsEq(got[j], want) {
			t.Fatalf("column %d: %x, want %x", j, math.Float64bits(got[j]), math.Float64bits(want))
		}
	}
}

// TestRoundingKeepsCarriesInsideStripeWindows covers a stripe whose window
// sits below the vector's top plane. Rounding canonicalizes every stripe to
// that top, so a positive carry out of the narrow stripe's top plane lands in
// a plane above its own window; the window must widen to cover it, or Reset
// leaves the carry behind for the next fold and AddVec drops it.
func TestRoundingKeepsCarriesInsideStripeWindows(t *testing.T) {
	const dim = StripeWidth + 1
	// Stripe 0 folds products below 4 (top plane 33 of window [31, 34)),
	// enough of them that the sum carries into plane 34; stripe 1 folds one
	// product of 4, whose window [32, 35) sets the vector's top plane.
	narrow, wide := make([]float64, dim), make([]float64, dim)
	wide[StripeWidth] = 4
	const adds = 7000 // 7000 · 2.5 ≥ 2^14, one unit of plane 34
	for _, sign := range []float64{1, -1} {
		narrow[0] = 2.5 * sign
		fold := func(v *Vec) {
			for r := 0; r < adds; r++ {
				v.AddScaledStripe(0, 1, narrow)
			}
			v.AddScaledStripe(1, 1, wide)
		}
		v := NewVec(dim)
		fold(v)
		first := make([]float64, dim)
		v.RoundTo(first)
		if want := float64(adds) * narrow[0]; first[0] != want || first[StripeWidth] != 4 {
			t.Fatalf("sign %v: rounded [%v … %v], want [%v … 4]", sign, first[0], first[StripeWidth], want)
		}

		merged := NewVec(dim)
		if err := merged.AddVec(v); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, "merged after rounding", merged, v)

		v.Reset()
		for p, l := range v.limbs {
			if l != 0 {
				t.Fatalf("sign %v: limb plane %d column %d is %d after Reset", sign, p/dim, p%dim, l)
			}
		}
		fold(v)
		fresh := NewVec(dim)
		fold(fresh)
		assertSameState(t, "refold after Reset", v, fresh)
	}
}
