package fl

// Hierarchical aggregation. With a tree configured, RunRound's turnstile no
// longer folds leaves into a single root accumulator: contiguous spans of
// Fanout leaves fold into a tier-0 aggregator, every Fanout tier-0 partials
// merge into a tier-1 aggregator, and so on until one node spans the whole
// selection — the root. Because the turnstile already fixes the canonical
// leaf order and the fold arithmetic is exact (internal/exact), only the
// *rightmost* group of every tier can be open at any moment. That spine is
// the whole working set: O(depth · params) accumulator memory regardless of
// how many leaves the round selects, and the root sum is bit-identical to
// the flat fold for any fanout. A flat round is the one-tier spine whose
// tier 0 is the root.
//
// Every group close merges the child's limbs straight into the parent
// (exact.Vec.AddVec): no byte leaves the process, so no frame is built. The
// partial event still prices the transfer at the limb payload a BFL1
// partial-aggregate frame (codec_partial.go) would carry across a process
// edge.
//
// Per-tier quorum composes with the round-level machinery: a group whose
// surviving children fall below ⌈TierQuorum · children⌉ is discarded whole
// (KindSubtreeDrop), its leaves join the round's Dropped list, and — because
// normalization is deferred to the root commit — the parent renormalizes
// over the surviving siblings by doing nothing at all. The rule is CloseTier,
// shared with the fleet simulator.

import (
	"fmt"
	"math"

	"bofl/internal/exact"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
)

// TreeConfig shapes the aggregation tree.
type TreeConfig struct {
	// Fanout is the maximum children per aggregator node; must be ≥ 2. The
	// rightmost node of every tier may be ragged (fewer children).
	Fanout int
	// TierQuorum is the fraction of an aggregator's children that must
	// deliver for the node to forward a partial: required = ⌈q·children⌉.
	// 0 disables per-tier quorum. Whether the round commits is decided by
	// ServerConfig.Quorum alone.
	TierQuorum float64
}

func (c *TreeConfig) validate() error {
	if c == nil {
		return nil
	}
	if c.Fanout < 2 {
		return fmt.Errorf("fl: tree fanout %d must be ≥ 2", c.Fanout)
	}
	if c.TierQuorum < 0 || c.TierQuorum > 1 {
		return fmt.Errorf("fl: tier quorum %v must be in [0, 1]", c.TierQuorum)
	}
	return nil
}

// TierGroup is one aggregator group at the moment it closes.
type TierGroup struct {
	Round, Tier, Node int
	TraceID           string
	// Arrived counts the children that delivered into the group; Attempted
	// counts every child closed under it, delivered or not.
	Arrived, Attempted int
	// Weight is the integer example weight folded into Sum.
	Weight int64
	Sum    *exact.Vec
}

// CloseTier is the tier-quorum close rule of both the serving plane's tree
// and the fleet simulator. required = ⌈q·Attempted⌉ (0 when q is 0). A group
// below it is discarded with its whole subtree and journals a subtree_drop
// event; a group nothing arrived in is vacuous (zero event, nothing
// forwarded); otherwise the group forwards its sum to its parent and journals
// a partial event priced at the window's limb payload, (hi−lo)·dim·8 bytes.
// The caller journals ev when ev.Kind is set and merges the sum when forward.
func CloseTier(q float64, g TierGroup) (ev ledger.Event, forward bool) {
	required := 0
	if q > 0 {
		required = int(math.Ceil(q * float64(g.Attempted)))
	}
	switch {
	case g.Arrived < required:
		return ledger.Event{
			Kind: ledger.KindSubtreeDrop, Round: g.Round, TraceID: g.TraceID,
			Tier: g.Tier, Node: g.Node, Survivors: g.Arrived, Selected: g.Attempted,
			Detail: fmt.Sprintf("quorum %d/%d", g.Arrived, required),
		}, false
	case g.Arrived == 0:
		return ledger.Event{}, false
	}
	var wire int64
	if lo, hi := g.Sum.Window(); lo < hi {
		wire = int64(hi-lo) * int64(g.Sum.Dim()) * 8
	}
	return ledger.Event{
		Kind: ledger.KindPartial, Round: g.Round, TraceID: g.TraceID,
		Tier: g.Tier, Node: g.Node, Survivors: g.Arrived, Selected: g.Attempted,
		Weight: g.Weight, WireTxBytes: wire,
	}, true
}

// treeTier is one tier's live (rightmost) aggregator group.
type treeTier struct {
	vec       *exact.Vec
	weight    int64 // integer example-count weight folded so far
	arrived   int   // children that delivered into the open group
	attempted int   // children closed under the open group, delivered or not
	leafLo    int   // first leaf index of the open group's span
	node      int   // tier-local ordinal of the open group
}

// treeFold is the per-round spine. It is reused across rounds (the tier
// accumulators are the dominant allocation) and rewound by reset. A zero
// Fanout is the flat fold: leaves fold into tier 0, which is the root.
type treeFold struct {
	srv   *Server
	cfg   TreeConfig
	dim   int
	tiers []*treeTier

	// Per-round state.
	n       int
	tc      obs.TraceContext
	top     int      // root tier: set when the group spanning all n leaves closes
	dropped [][2]int // leaf spans discarded by per-tier quorum, inclusive
}

func newTreeFold(srv *Server, cfg TreeConfig, dim int) *treeFold {
	return &treeFold{srv: srv, cfg: cfg, dim: dim}
}

// reset rewinds the spine for a new round over n selected leaves.
func (f *treeFold) reset(n int, tc obs.TraceContext) {
	f.n, f.tc, f.top = n, tc, 0
	f.dropped = f.dropped[:0]
	for _, t := range f.tiers {
		t.vec.Reset()
		t.weight, t.arrived, t.attempted, t.leafLo, t.node = 0, 0, 0, 0, 0
	}
	f.ensureTier(0)
}

// ensureTier returns tier t, growing the spine as needed.
func (f *treeFold) ensureTier(t int) *treeTier {
	for len(f.tiers) <= t {
		f.tiers = append(f.tiers, &treeTier{vec: exact.NewVec(f.dim)})
	}
	return f.tiers[t]
}

// fold streams one surviving leaf contribution into the open tier-0 group.
// contrib is the aggregator-produced vector (weighted parameters plus the
// strategy's statistic slots, already scaled); w is the integer example
// weight, journaled with each partial. Must be called under the turnstile,
// in leaf index order.
func (f *treeFold) fold(w int64, contrib []float64) {
	t0 := f.tiers[0]
	t0.vec.Add(contrib)
	t0.weight += w
	t0.arrived++
}

// advance closes every group whose span ends at leaf i. Must be called under
// the turnstile after leaf i's slot is settled, for every leaf — survivors
// and dropouts alike. A flat fold closes nothing.
func (f *treeFold) advance(i int) {
	if f.cfg.Fanout == 0 {
		return
	}
	f.tiers[0].attempted++
	span := f.cfg.Fanout
	t := 0
	for (i+1)%span == 0 || i+1 == f.n {
		top := span >= f.n // this group spans the whole selection: its close fills the root
		f.closeGroup(t, i)
		if top {
			f.top = t + 1
			return
		}
		t++
		if span > f.n/f.cfg.Fanout {
			span = f.n // saturates: only the i+1 == n close remains above here
		} else {
			span *= f.cfg.Fanout
		}
	}
}

// closeGroup finalizes tier t's open group ending at leaf i under CloseTier:
// either merge it into the parent or discard the subtree.
func (f *treeFold) closeGroup(t, i int) {
	tier := f.tiers[t]
	parent := f.ensureTier(t + 1)
	endSpan := f.srv.sink.Span(obs.SpanFLTierFold, f.tc.ChildLabels()...)
	ev, forward := CloseTier(f.cfg.TierQuorum, TierGroup{
		Round: f.srv.round, Tier: t, Node: tier.node, TraceID: f.tc.TraceID,
		Arrived: tier.arrived, Attempted: tier.attempted, Weight: tier.weight, Sum: tier.vec,
	})
	if forward {
		// Every spine tier is built at f.dim, so the merge cannot fail.
		_ = parent.vec.AddVec(tier.vec)
		parent.weight += tier.weight
		parent.arrived++
		f.srv.sink.Count(obs.MetricFLPartials, 1)
		f.srv.sink.Count(obs.MetricFLWireTx, float64(ev.WireTxBytes), obs.L("codec", "partial"))
	} else if ev.Kind == ledger.KindSubtreeDrop {
		// Deferred normalization means the parent renormalizes over its
		// surviving children implicitly — the dropped weight simply never
		// reaches the root divisor.
		f.dropped = append(f.dropped, [2]int{tier.leafLo, i})
		f.srv.sink.Count(obs.MetricFLSubtreeDrops, 1)
	}
	if ev.Kind != "" {
		f.srv.ledgerAppend(ev)
	}
	endSpan()
	parent.attempted++
	tier.vec.Reset()
	tier.weight, tier.arrived, tier.attempted = 0, 0, 0
	tier.leafLo = i + 1
	tier.node++
}

// root returns the root accumulator. Valid only after advance(n-1).
func (f *treeFold) root() *exact.Vec { return f.tiers[f.top].vec }

// treeDropped reports whether leaf i fell inside a discarded subtree.
func (f *treeFold) treeDropped(i int) bool {
	for _, s := range f.dropped {
		if i >= s[0] && i <= s[1] {
			return true
		}
	}
	return false
}

// MemoryBytes reports the spine's accumulator footprint — O(depth · params),
// the bound the fleet simulator's per-node accounting checks.
func (f *treeFold) MemoryBytes() int64 {
	var total int64
	for _, t := range f.tiers {
		total += t.vec.MemoryBytes()
	}
	return total
}
