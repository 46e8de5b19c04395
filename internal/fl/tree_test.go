package fl

// Hierarchical aggregation properties. The tentpole invariant: a tree round's
// committed global model is bit-identical to the flat streaming fold (and the
// batch reference) on the same selection, for any fanout, ragged tail and
// pool width — the exact accumulator makes the fold associative, so tree
// shape cannot change a single bit.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bofl/internal/exact"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

// treeServer builds a math-participant fleet with an aggregation tree.
func treeServer(t *testing.T, dim, clients int, tree *TreeConfig) *Server {
	t.Helper()
	init := make([]float64, dim)
	for i := range init {
		init[i] = math.Sin(float64(i + 1))
	}
	srv, err := NewServer(ServerConfig{
		InitialParams: init,
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          9,
		Tree:          tree,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		srv.Register(&mathParticipant{id: fmt.Sprintf("c%03d", i), idx: i, num: 1 + i%17})
	}
	return srv
}

func bitwiseEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params vs %d", label, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: param %d: %x != %x", label, j,
				math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
}

// TestTreeMatchesFlatFold sweeps fanouts 2..64 and ragged client counts at
// GOMAXPROCS 1 and 4: every tree commit must equal the flat commit bitwise.
func TestTreeMatchesFlatFold(t *testing.T) {
	const dim = 257
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		prevW := parallel.SetWorkers(procs)
		for _, clients := range []int{1, 5, 31, 64, 100} {
			flat := treeServer(t, dim, clients, nil)
			if _, err := flat.RunRound(); err != nil {
				t.Fatal(err)
			}
			want := flat.GlobalParams()
			for _, fanout := range []int{2, 3, 7, 16, 64} {
				srv := treeServer(t, dim, clients, &TreeConfig{Fanout: fanout})
				res, err := srv.RunRound()
				if err != nil {
					t.Fatalf("procs %d clients %d fanout %d: %v", procs, clients, fanout, err)
				}
				if len(res.Responses) != clients {
					t.Fatalf("fanout %d: %d responses", fanout, len(res.Responses))
				}
				bitwiseEqual(t, fmt.Sprintf("procs %d clients %d fanout %d", procs, clients, fanout),
					srv.GlobalParams(), want)
			}
		}
		parallel.SetWorkers(prevW)
		runtime.GOMAXPROCS(prev)
	}
}

// TestTreeMatchesBatchAggregate rides the existing reference: a tree round
// with dropouts must commit exactly what the batch aggregate computes over
// the surviving responses.
func TestTreeMatchesBatchAggregate(t *testing.T) {
	const dim, clients = 64, 50
	srv := treeServer(t, dim, clients, &TreeConfig{Fanout: 4})
	srv.cfg.Quorum = 0.5
	// Rebuild responses the reference needs before the round consumes them.
	var surviving []RoundResponse
	global := srv.GlobalParams()
	for i, p := range srv.pool {
		mp := p.(*mathParticipant)
		if i%7 == 3 {
			mp.fail = true
			continue
		}
		surviving = append(surviving, RoundResponse{
			ClientID: mp.id, Params: mp.update(global), NumExamples: mp.num,
		})
	}
	if _, err := srv.RunRound(); err != nil {
		t.Fatal(err)
	}
	want, err := BatchAggregate(FedAvg{}, global, surviving, 10)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "tree vs batch over survivors", srv.GlobalParams(), want)
}

// TestTreePartialMergeProperty is the satellite fold-merge property test:
// folding pre-aggregated (sum, weight) partials in tier order is bit-identical
// to the flat in-order fold, across arbitrary tree shapes — fanout 2..64,
// ragged leaf counts — and GOMAXPROCS 1/4. It drives the exact accumulators
// directly (no server), so the property is isolated from orchestration.
func TestTreePartialMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	const dim = 33
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for trial := 0; trial < 30; trial++ {
			leaves := 1 + rng.Intn(300)
			fanout := 2 + rng.Intn(63)
			updates := make([][]float64, leaves)
			weights := make([]int64, leaves)
			for i := range updates {
				updates[i] = make([]float64, dim)
				for j := range updates[i] {
					updates[i][j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
				}
				weights[i] = int64(1 + rng.Intn(100))
			}
			// Flat in-order fold.
			flat := exact.NewVec(dim)
			var flatW int64
			for i := range updates {
				flat.AddScaled(float64(weights[i]), updates[i])
				flatW += weights[i]
			}
			flatSum := make([]float64, dim)
			flat.RoundTo(flatSum)

			// Tiered fold: leaves → fanout-sized partials → one root, each
			// partial merged through its snapshot, as a fleet shard is.
			root := exact.NewVec(dim)
			var rootW int64
			for lo := 0; lo < leaves; lo += fanout {
				hi := lo + fanout
				if hi > leaves {
					hi = leaves
				}
				part := exact.NewVec(dim)
				var w int64
				for i := lo; i < hi; i++ {
					part.AddScaled(float64(weights[i]), updates[i])
					w += weights[i]
				}
				if err := root.Absorb(part.Serialize()); err != nil {
					t.Fatal(err)
				}
				rootW += w
			}
			rootSum := make([]float64, dim)
			root.RoundTo(rootSum)
			if rootW != flatW {
				t.Fatalf("trial %d: weight %d != %d", trial, rootW, flatW)
			}
			bitwiseEqual(t, fmt.Sprintf("procs %d trial %d (leaves %d fanout %d)",
				procs, trial, leaves, fanout), rootSum, flatSum)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestTierQuorumSubtreeDrop checks the per-tier quorum path: a group whose
// survivors fall below ⌈q·children⌉ is dropped whole, the round commits the
// batch aggregate over the remaining leaves, and the ledger journals the
// subtree drop.
func TestTierQuorumSubtreeDrop(t *testing.T) {
	const dim, clients, fanout = 48, 32, 4
	led := ledger.New(0)
	srv := treeServer(t, dim, clients, &TreeConfig{Fanout: fanout, TierQuorum: 0.5})
	srv.cfg.Ledger = led
	srv.cfg.Quorum = 0.5
	// Kill 3 of 4 leaves in the third tier-0 group (leaves 8..11): 1/4 < 0.5,
	// so the whole group must drop — including its healthy leaf 9.
	var surviving []RoundResponse
	global := srv.GlobalParams()
	for i, p := range srv.pool {
		mp := p.(*mathParticipant)
		if i == 8 || i == 10 || i == 11 {
			mp.fail = true
			continue
		}
		if i == 9 {
			continue // healthy, but its subtree drops
		}
		surviving = append(surviving, RoundResponse{
			ClientID: mp.id, Params: mp.update(global), NumExamples: mp.num,
		})
	}
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != clients-4 {
		t.Fatalf("%d responses, want %d", len(res.Responses), clients-4)
	}
	foundHealthy := false
	for _, id := range res.Dropped {
		if id == "c009" {
			foundHealthy = true
		}
	}
	if !foundHealthy {
		t.Fatalf("leaf c009 not in Dropped: %v", res.Dropped)
	}
	want, err := BatchAggregate(FedAvg{}, global, surviving, 10)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "subtree drop vs batch over survivors", srv.GlobalParams(), want)

	drops, partials := 0, 0
	for _, ev := range led.Events() {
		switch ev.Kind {
		case ledger.KindSubtreeDrop:
			drops++
			if ev.Tier != 0 || ev.Survivors != 1 || ev.Selected != 4 {
				t.Fatalf("subtree drop event %+v", ev)
			}
		case ledger.KindPartial:
			partials++
			// Wire bytes price the limb window a frame would carry:
			// (hi−lo) planes of the fold vector (dim + 1 for FedAvg).
			if ev.Weight <= 0 || ev.WireTxBytes <= 0 || ev.WireTxBytes%(8*(dim+1)) != 0 {
				t.Fatalf("partial event %+v", ev)
			}
		}
	}
	if drops != 1 {
		t.Fatalf("%d subtree drops, want 1", drops)
	}
	// 8 tier-0 groups minus the dropped one, plus 2 tier-1 nodes and 1 root
	// close: the exact count depends on shape, but there must be more than
	// the surviving tier-0 groups alone.
	if partials < 8 {
		t.Fatalf("%d partials journaled", partials)
	}
}

// TestTreeSpineMemoryBounded pins the O(depth·params) bound: a deep tree over
// many leaves keeps the spine at exactly depth+1 accumulators.
func TestTreeSpineMemoryBounded(t *testing.T) {
	const dim, clients, fanout = 16, 200, 2
	srv := treeServer(t, dim, clients, &TreeConfig{Fanout: fanout})
	if _, err := srv.RunRound(); err != nil {
		t.Fatal(err)
	}
	depth := int(math.Ceil(math.Log(float64(clients)) / math.Log(fanout)))
	// The spine accumulates the fold vector: model dims plus the
	// aggregator's statistic slots.
	perAcc := exact.NewVec(dim + srv.Aggregator().ExtraDim(dim)).MemoryBytes()
	got := srv.tree.MemoryBytes()
	if max := int64(depth+1) * perAcc; got > max {
		t.Fatalf("spine %d bytes exceeds depth bound %d", got, max)
	}
}

// TestTierSpan checks the saturating power helper the tree layout hangs on:
// a tier-(exp−1) group spans min(fanout^exp, n) leaves.
func TestTierSpan(t *testing.T) {
	cases := []struct{ fanout, exp, n, want int }{
		{2, 0, 100, 1}, {2, 3, 100, 8}, {2, 10, 100, 100},
		{64, 2, 1_000_000, 4096}, {64, 4, 1_000_000, 1_000_000},
		{3, 40, 1 << 30, 1 << 30}, // would overflow without saturation
	}
	for _, c := range cases {
		if got := TierSpan(c.fanout, c.exp-1, c.n); got != c.want {
			t.Fatalf("TierSpan(%d,%d,%d) = %d, want %d", c.fanout, c.exp-1, c.n, got, c.want)
		}
	}
}

// TestTreeTiers pins the closing-tier count the dispatch clamp and the fleet
// depth derive from.
func TestTreeTiers(t *testing.T) {
	cases := []struct{ fanout, pool, want int }{
		{2, 1, 1}, {2, 2, 1}, {2, 3, 2}, {2, 8, 3},
		{4, 64, 3}, {8, 8, 1}, {32, 10_000, 3}, {0, 10, 0},
	}
	for _, c := range cases {
		if got := TreeTiers(c.fanout, c.pool); got != c.want {
			t.Errorf("TreeTiers(%d, %d) = %d, want %d", c.fanout, c.pool, got, c.want)
		}
	}
}

// spineClose is one recorded close: the group minus its sum, and its event.
type spineClose struct {
	g  TierGroup
	ev ledger.Event
}

// TestShardedSpineMatchesOneSpine pins the fleet's composition of the one
// fold: capped shard spines whose cap close snapshots the group's sum into a
// slot, then a merge spine whose leaf items are those snapshots in index
// order, must close the same groups with the same events as one spine over
// all n leaves, and end in the same root bits, weight and survivor count.
// Shards run in a shuffled order, as pool scheduling would run them. The
// layouts cover every cap tier, including the single-shard one whose shard
// output is the root.
func TestShardedSpineMatchesOneSpine(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	const dim = 7
	tc := obs.MintTrace(1, 1)
	record := func(to *[]spineClose) CloseFunc {
		return func(g TierGroup, ev ledger.Event) {
			g.Sum = nil
			*to = append(*to, spineClose{g, ev})
		}
	}
	for _, fanout := range []int{2, 3, 8} {
		// 1, F−1, F, F²+1 and a ragged 3-tier size.
		for _, n := range []int{1, fanout - 1, fanout, fanout*fanout + 1, fanout*fanout*fanout - 1} {
			if n < 1 {
				continue
			}
			for _, q := range []float64{0, 0.5, 1} {
				cfg := TreeConfig{Fanout: fanout, TierQuorum: q}
				alive := rng.Float64()
				updates := make([][]float64, n)
				weights := make([]int64, n)
				for i := range updates {
					if rng.Float64() >= alive {
						continue // lost leaf
					}
					updates[i] = make([]float64, dim)
					for j := range updates[i] {
						updates[i][j] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
					}
					weights[i] = int64(1 + rng.Intn(50))
				}
				leaf := func(sp *Spine, i int) {
					if updates[i] != nil {
						sp.AddScaled(weights[i], updates[i])
					}
					sp.Advance(i)
				}

				var want []spineClose
				one := NewSpine(cfg, dim, 0, -1, record(&want))
				one.Reset(n, 1, tc, nil)
				for i := 0; i < n; i++ {
					leaf(one, i)
				}
				wantVec, wantW, wantLeaves := one.Root()
				wantSum := make([]float64, dim)
				wantVec.RoundTo(wantSum)

				for capTier := 0; capTier < TreeTiers(fanout, n); capTier++ {
					label := fmt.Sprintf("fanout %d n %d q %v capTier %d", fanout, n, q, capTier)
					span := TierSpan(fanout, capTier, n)
					type slot struct {
						ok     bool
						weight int64
						leaves int
						sum    exact.Serialized
						closes []spineClose
					}
					slots := make([]slot, (n+span-1)/span)
					var cur *slot
					shard := NewSpine(cfg, dim, 0, capTier, func(g TierGroup, ev ledger.Event) {
						if g.Tier == capTier {
							cur.ok, cur.weight, cur.leaves = ev.Kind == ledger.KindPartial, g.Weight, g.Leaves
							g.Sum.SerializeInto(&cur.sum)
						}
						record(&cur.closes)(g, ev)
					})
					for _, s := range rng.Perm(len(slots)) {
						cur = &slots[s]
						shard.Reset(n, 1, tc, nil)
						for i := s * span; i < min((s+1)*span, n); i++ {
							leaf(shard, i)
						}
					}
					var got []spineClose
					merge := NewSpine(cfg, dim, capTier+1, -1, record(&got))
					merge.Reset(n, 1, tc, nil)
					for s := range slots {
						got = append(got, slots[s].closes...)
						if slots[s].ok {
							if err := merge.Absorb(slots[s].sum, slots[s].weight, slots[s].leaves); err != nil {
								t.Fatalf("%s: absorb shard %d: %v", label, s, err)
							}
						}
						merge.Advance(min((s+1)*span, n) - 1)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: close events diverge:\n got %+v\nwant %+v", label, got, want)
					}
					gotVec, gotW, gotLeaves := merge.Root()
					gotSum := make([]float64, dim)
					gotVec.RoundTo(gotSum)
					if gotW != wantW || gotLeaves != wantLeaves {
						t.Fatalf("%s: root weight %d leaves %d, want %d, %d", label, gotW, gotLeaves, wantW, wantLeaves)
					}
					bitwiseEqual(t, label, gotSum, wantSum)
				}
			}
		}
	}
}

// TestTreeConfigValidation pins NewServer's tree validation.
func TestTreeConfigValidation(t *testing.T) {
	base := ServerConfig{InitialParams: []float64{1}, Jobs: 1, DeadlineRatio: 2}
	for _, bad := range []*TreeConfig{
		{Fanout: 0}, {Fanout: 1}, {Fanout: -3},
		{Fanout: 2, TierQuorum: -0.1}, {Fanout: 2, TierQuorum: 1.5},
	} {
		cfg := base
		cfg.Tree = bad
		if _, err := NewServer(cfg); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
	cfg := base
	cfg.Tree = &TreeConfig{Fanout: 2, TierQuorum: 0.5}
	if _, err := NewServer(cfg); err != nil {
		t.Fatal(err)
	}
}
