package fl

import (
	"fmt"
	"testing"

	"bofl/internal/faultinject"
)

func mkStubPool(n int) []Participant {
	pool := make([]Participant, n)
	for i := range pool {
		pool[i] = &stubParticipant{id: fmt.Sprintf("c%02d", i)}
	}
	return pool
}

// TestRandomSelectorDeterministicPerSeed pins selection reproducibility: two
// selectors with the same seed pick identical sequences round after round —
// the property chaos replays rely on — while a different seed diverges.
func TestRandomSelectorDeterministicPerSeed(t *testing.T) {
	pool := mkStubPool(20)
	a, b := NewRandomSelector(13), NewRandomSelector(13)
	other := NewRandomSelector(14)
	diverged := false
	for round := 1; round <= 50; round++ {
		sa, sb := a.Select(round, pool, 7), b.Select(round, pool, 7)
		so := other.Select(round, pool, 7)
		if len(sa) != 7 {
			t.Fatalf("round %d: selected %d, want 7", round, len(sa))
		}
		for i := range sa {
			if sa[i].ID() != sb[i].ID() {
				t.Fatalf("round %d: same seed diverged at slot %d: %s vs %s",
					round, i, sa[i].ID(), sb[i].ID())
			}
			if i < len(so) && sa[i].ID() != so[i].ID() {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("seeds 13 and 14 produced identical selection streams")
	}
}

// TestRandomSelectorSamplesWithoutReplacement checks every selection is
// duplicate-free and clamped to the pool size, across shrinking pools.
func TestRandomSelectorSamplesWithoutReplacement(t *testing.T) {
	s := NewRandomSelector(3)
	for n := 12; n >= 1; n-- {
		pool := mkStubPool(n)
		for _, k := range []int{1, n / 2, n, n + 5} {
			if k < 1 {
				k = 1
			}
			sel := s.Select(1, pool, k)
			want := k
			if want > n {
				want = n
			}
			if len(sel) != want {
				t.Fatalf("pool %d k %d: selected %d, want %d", n, k, len(sel), want)
			}
			seen := map[string]bool{}
			for _, p := range sel {
				if seen[p.ID()] {
					t.Fatalf("pool %d k %d: %s selected twice", n, k, p.ID())
				}
				seen[p.ID()] = true
			}
		}
	}
}

// TestServerNeverSelectsQuarantined is the property test for quarantine under
// a shrinking healthy pool: one client is corrupted (and quarantined) per
// round, and no quarantined client must ever appear in a later round's
// responses or dropped list — across both selector implementations.
func TestServerNeverSelectsQuarantined(t *testing.T) {
	for name, mk := range map[string]func() Selector{
		"random": func() Selector { return NewRandomSelector(5) },
		"all":    func() Selector { return AllSelector{} },
	} {
		t.Run(name, func(t *testing.T) {
			const n = 10
			// Round r corrupts client c(r-1)'s first attempt, quarantining
			// one more client each round.
			script := faultinject.Scripted{}
			for r := 1; r < n; r++ {
				script[faultinject.Point{
					Layer:  faultinject.LayerParticipant,
					Client: fmt.Sprintf("c%02d", r-1),
					Round:  r,
				}] = faultinject.Decision{Corrupt: true}
			}
			srv, err := NewServer(ServerConfig{
				InitialParams:        []float64{0, 0, 0},
				Jobs:                 5,
				DeadlineRatio:        2,
				Selector:             mk(),
				ParticipantsPerRound: n, // ask for everyone still eligible
				Quorum:               0.5,
				FaultPolicy:          script,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range mkStubPool(n) {
				srv.Register(p)
			}

			quarantined := map[string]bool{}
			for r := 1; r < n; r++ {
				res, err := srv.RunRound()
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				for _, id := range append(res.Dropped, responseIDs(res)...) {
					if quarantined[id] {
						t.Fatalf("round %d: previously quarantined %s was selected", r, id)
					}
				}
				for _, id := range res.Quarantined {
					quarantined[id] = true
				}
			}
			if got := len(srv.QuarantinedIDs()); got != n-1 {
				t.Errorf("quarantined %d clients, want %d", got, n-1)
			}
		})
	}
}

func responseIDs(res RoundResult) []string {
	out := make([]string, 0, len(res.Responses))
	for _, r := range res.Responses {
		out = append(out, r.ClientID)
	}
	return out
}

// BenchmarkSelector100k is the satellite perf bar: selecting 1k of a
// 100k-client pool must be O(k) per round — persistent index scratch, no
// full-pool permutation, no per-round reallocation beyond the result slice.
func BenchmarkSelector100k(b *testing.B) {
	const pool, k = 100_000, 1_000
	participants := make([]Participant, pool)
	for i := range participants {
		participants[i] = &stubParticipant{id: fmt.Sprintf("c%06d", i)}
	}
	b.Run("random", func(b *testing.B) {
		sel := NewRandomSelector(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := sel.Select(i+1, participants, k); len(got) != k {
				b.Fatalf("selected %d", len(got))
			}
		}
	})
	b.Run("random-full-pool", func(b *testing.B) {
		// Selecting the entire pool: the scratch still amortizes, the cost is
		// the unavoidable O(n) result copy.
		sel := NewRandomSelector(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := sel.Select(i+1, participants, pool); len(got) != pool {
				b.Fatalf("selected %d", len(got))
			}
		}
	})
}

// biasWeights is a test weigh function backed by a mutable map.
func biasWeights(w map[string]float64) func(string) float64 {
	return func(id string) float64 { return w[id] }
}

// TestBiasedSelectorProportionalAndDeterministic checks the weighted draws
// track the weight ratios and are reproducible per seed.
func TestBiasedSelectorProportionalAndDeterministic(t *testing.T) {
	pool := mkStubPool(10)
	w := map[string]float64{}
	for _, p := range pool {
		w[p.ID()] = 1
	}
	w["c00"] = 8 // 8/17 of the single-draw mass
	a := NewBiasedSelector(11, biasWeights(w))
	b := NewBiasedSelector(11, biasWeights(w))
	hits := 0
	const rounds = 3000
	for r := 1; r <= rounds; r++ {
		sa, sb := a.Select(r, pool, 1), b.Select(r, pool, 1)
		if len(sa) != 1 || len(sb) != 1 || sa[0].ID() != sb[0].ID() {
			t.Fatalf("round %d: same-seed selectors diverged", r)
		}
		if sa[0].ID() == "c00" {
			hits++
		}
	}
	got := float64(hits) / rounds
	want := 8.0 / 17.0
	if got < want-0.05 || got > want+0.05 {
		t.Fatalf("heavy client frequency %.3f, want ≈ %.3f", got, want)
	}
}

// TestBiasedSelectorSamplesWithoutReplacement: every draw is duplicate-free
// and clamped to the pool.
func TestBiasedSelectorSamplesWithoutReplacement(t *testing.T) {
	pool := mkStubPool(7)
	w := map[string]float64{}
	for i, p := range pool {
		w[p.ID()] = float64(i) // includes a zero weight
	}
	s := NewBiasedSelector(3, biasWeights(w))
	for _, k := range []int{1, 3, 7, 12} {
		sel := s.Select(1, pool, k)
		want := k
		if want > len(pool) {
			want = len(pool)
		}
		if len(sel) != want {
			t.Fatalf("k %d: selected %d, want %d", k, len(sel), want)
		}
		seen := map[string]bool{}
		for _, p := range sel {
			if seen[p.ID()] {
				t.Fatalf("k %d: %s selected twice", k, p.ID())
			}
			seen[p.ID()] = true
		}
	}
}

// TestBiasedSelectorZeroWeightsUniformFallback: a weigh function that zeroes
// everyone must not starve selection.
func TestBiasedSelectorZeroWeightsUniformFallback(t *testing.T) {
	pool := mkStubPool(5)
	s := NewBiasedSelector(7, func(string) float64 { return 0 })
	covered := map[string]bool{}
	for r := 1; r <= 200; r++ {
		for _, p := range s.Select(r, pool, 2) {
			covered[p.ID()] = true
		}
	}
	if len(covered) != len(pool) {
		t.Fatalf("uniform fallback covered %d of %d clients", len(covered), len(pool))
	}
}

// TestBiasedSelectorRenormalizesOnPoolChange is the regression test for the
// shrinking-pool bug: the weight cache must key on the pool's contents, not
// its length. A same-length pool with one member swapped (exactly what the
// server's quarantine filter plus a new registration produces) must be
// re-weighed — under the old length-keyed caching the swapped-in client
// inherited the removed client's weight and power-biased sampling ran
// denormalized.
func TestBiasedSelectorRenormalizesOnPoolChange(t *testing.T) {
	pool := mkStubPool(6)
	w := map[string]float64{}
	for _, p := range pool {
		w[p.ID()] = 1
	}
	hot := &stubParticipant{id: "hot"}
	w["hot"] = 1000

	s := NewBiasedSelector(5, biasWeights(w))
	// Warm the cache on the hot-less pool.
	for r := 1; r <= 10; r++ {
		s.Select(r, pool, 2)
	}
	// Same length, different contents: drop one cold client, add the hot one.
	swapped := make([]Participant, 0, len(pool))
	swapped = append(swapped, pool[:len(pool)-1]...)
	swapped = append(swapped, hot)
	hits := 0
	const rounds = 200
	for r := 1; r <= rounds; r++ {
		for _, p := range s.Select(r, swapped, 1) {
			if p.ID() == "hot" {
				hits++
			}
		}
	}
	// hot holds 1000/1005 of the mass; anything below ~90% means the stale
	// weights survived the swap.
	if float64(hits)/rounds < 0.9 {
		t.Fatalf("hot client drawn %d/%d times after same-length pool swap", hits, rounds)
	}

	// Shrinking pool (quarantine removal): the removed client must never be
	// drawn again and the survivors' relative weights must hold.
	shrunk := pool[:len(pool)-2]
	w[shrunk[0].ID()] = 50
	s2 := NewBiasedSelector(9, biasWeights(w))
	s2.Select(1, pool, 3) // warm on the full pool
	heavy := 0
	for r := 2; r <= rounds+1; r++ {
		for _, p := range s2.Select(r, shrunk, 1) {
			if p.ID() == pool[len(pool)-1].ID() || p.ID() == pool[len(pool)-2].ID() {
				t.Fatalf("round %d: removed client %s drawn", r, p.ID())
			}
			if p.ID() == shrunk[0].ID() {
				heavy++
			}
		}
	}
	if got, want := float64(heavy)/rounds, 50.0/53.0; got < want-0.1 {
		t.Fatalf("post-shrink heavy frequency %.3f, want ≈ %.3f", got, want)
	}
}

// TestServerQuarantineWithBiasedSelector wires the biased selector through
// the server's quarantine filter: after a client is quarantined the selector
// sees a shrunk pool and must keep sampling the survivors, never the
// quarantined id.
func TestServerQuarantineWithBiasedSelector(t *testing.T) {
	const n = 8
	w := map[string]float64{}
	for i := 0; i < n; i++ {
		w[fmt.Sprintf("c%02d", i)] = float64(i + 1)
	}
	script := faultinject.Scripted{
		faultinject.Point{Layer: faultinject.LayerParticipant, Client: "c03", Round: 1}: {Corrupt: true},
	}
	srv, err := NewServer(ServerConfig{
		InitialParams:        []float64{0, 0, 0},
		Jobs:                 5,
		DeadlineRatio:        2,
		Selector:             NewBiasedSelector(21, biasWeights(w)),
		ParticipantsPerRound: n,
		Quorum:               0.5,
		FaultPolicy:          script,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mkStubPool(n) {
		srv.Register(p)
	}
	for r := 1; r <= 5; r++ {
		res, err := srv.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r > 1 {
			for _, id := range append(res.Dropped, responseIDs(res)...) {
				if id == "c03" {
					t.Fatalf("round %d: quarantined c03 was selected", r)
				}
			}
			if len(res.Responses) != n-1 {
				t.Fatalf("round %d: %d survivors, want %d", r, len(res.Responses), n-1)
			}
		}
	}
}
