package fl

// Hierarchical aggregation. With a tree configured, RunRound no longer folds
// leaves into a single root accumulator: contiguous spans of Fanout leaves
// fold into a tier-0 aggregator, every Fanout tier-0 partials merge into a
// tier-1 aggregator, and so on until one node spans the whole selection —
// the root. Because RunRound's drain settles leaves in canonical leaf order,
// a leaf folds only once its tier-0 group is open, and the fold arithmetic
// is exact (internal/exact), only the *rightmost* group of every tier can be
// open at any moment. That spine is the whole working set: O(depth · params)
// accumulator memory regardless of how many leaves the round selects, and
// the root sum is bit-identical to the flat fold for any fanout. A flat
// round is the one-tier spine whose tier 0 is the root.
//
// Spine is the only code that folds a tree: the server drives one per round,
// and the fleet simulator drives one per shard plus a merge spine over the
// shard sums. Every group close merges the child's limbs straight into the
// parent (exact.Vec.AddVec): there is no frame between tiers. The partial
// event still prices the transfer at the child's limb payload,
// (hi−lo)·dim·8 bytes for an accumulator window of planes [lo, hi).
//
// Per-tier quorum composes with the round-level machinery: a group whose
// surviving children fall below ⌈TierQuorum · children⌉ is discarded whole
// (KindSubtreeDrop), its leaves join the round's Dropped list, and — because
// normalization is deferred to the root commit — the parent renormalizes
// over the surviving siblings by doing nothing at all. The rule is CloseTier.

import (
	"fmt"
	"math"
	"sync"

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
	// Lo and Hi bound the group's leaf span [Lo, Hi); Leaves counts the
	// surviving leaves folded under it.
	Lo, Hi, Leaves int
	// Arrived counts the children that delivered into the group; Attempted
	// counts every child closed under it, delivered or not.
	Arrived, Attempted int
	// Weight is the integer example weight folded into Sum.
	Weight int64
	Sum    *exact.Vec
}

// CloseTier is the tier-quorum close rule of every Spine. required =
// ⌈q·Attempted⌉ (0 when q is 0). A group below it is discarded with its
// whole subtree and journals a subtree_drop event; a group nothing arrived
// in is vacuous (zero event, nothing forwarded); otherwise the group forwards
// its sum to its parent and journals a partial event priced at the window's
// limb payload, (hi−lo)·dim·8 bytes. forward is true exactly when ev is a
// partial event.
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

// TreeTiers returns how many tiers of groups close in a fanout-ary tree over
// n leaves: tiers 0..TreeTiers−1, with the root one tier above the last.
// Zero for a flat fold (fanout < 2), whose tier 0 is the root, or for n ≤ 0.
func TreeTiers(fanout, n int) int {
	if fanout < 2 || n <= 0 {
		return 0
	}
	tiers := 1
	for TierSpan(fanout, tiers-1, n) < n {
		tiers++
	}
	return tiers
}

// TierSpan returns how many leaves one tier-t group spans in a fanout-ary
// tree over n leaves: min(fanout^(t+1), n), saturating without overflow.
// Tier −1 is a single leaf.
func TierSpan(fanout, t, n int) int {
	s := 1
	for k := 0; k <= t; k++ {
		if s > n/fanout {
			return n
		}
		s *= fanout
	}
	return min(s, n)
}

// CloseFunc observes one group close and its CloseTier event. It runs after
// a forwarded sum has merged into the parent tier; at a spine's cap tier
// nothing merges, and g.Sum stays valid until the callback returns.
type CloseFunc func(g TierGroup, ev ledger.Event)

// spineTier is one tier's open (rightmost) group.
type spineTier struct {
	vec       *exact.Vec
	weight    int64 // integer example weight folded so far
	arrived   int   // children that delivered into the group
	attempted int   // children closed under the group, delivered or not
	leaves    int   // surviving leaves folded under the group
}

// Spine is the streaming tier fold of an n-leaf tree, shared by the serving
// plane and the fleet simulator. Leaf items arrive in leaf order and fold
// into the open group of the spine's base tier; after each one, Advance
// closes every group whose span ends there under CloseTier, merging a
// forwarded sum into the next tier up. Group labels and spans come from the
// global leaf index, so a spine over part of the tree (a fleet shard, capped
// at its shard tier) journals each node exactly as one spine over the whole
// tree would. An uncapped spine ends in the root: the tier above the last
// closing tier, which never closes.
type Spine struct {
	cfg     TreeConfig
	dim     int
	base    int // tier leaf items fold into
	capTier int // highest tier that closes; negative closes up to the root
	onClose CloseFunc
	tiers   []spineTier // tiers[k] is tier base+k
	// stripeMu[k] guards stripe k of the base tier's sum for concurrent Folds.
	stripeMu []sync.Mutex

	// Per-pass state.
	n     int
	spans []int // spans[t] is TierSpan(Fanout, t, n) for every closing tier
	round int
	tc    obs.TraceContext
	sink  obs.Sink // nil emits no fl_tier_fold spans
}

// NewSpine builds a spine over dim-wide sums whose leaf items fold into tier
// base and whose groups close up to tier capTier (a negative capTier closes
// up to the root). A zero Fanout is the flat fold: nothing closes, and tier 0 is the
// root. onClose sees every close.
func NewSpine(cfg TreeConfig, dim, base, capTier int, onClose CloseFunc) *Spine {
	return &Spine{cfg: cfg, dim: dim, base: base, capTier: capTier, onClose: onClose}
}

// Reset rewinds the spine for a pass over an n-leaf tree in round. Closes are
// labelled with tc's trace ID, and each one is timed as an fl_tier_fold span
// on sink unless sink is nil.
func (s *Spine) Reset(n, round int, tc obs.TraceContext, sink obs.Sink) {
	s.n, s.round, s.tc, s.sink = n, round, tc, sink
	s.spans = s.spans[:0]
	for t, tiers := 0, TreeTiers(s.cfg.Fanout, n); t < tiers; t++ {
		s.spans = append(s.spans, TierSpan(s.cfg.Fanout, t, n))
	}
	last := len(s.spans) // the root tier
	if s.capTier >= 0 && s.capTier < last {
		last = s.capTier
	}
	for len(s.tiers) <= last-s.base {
		s.tiers = append(s.tiers, spineTier{vec: exact.NewVec(s.dim)})
	}
	if s.stripeMu == nil {
		s.stripeMu = make([]sync.Mutex, s.tiers[0].vec.Stripes())
	}
	for k := range s.tiers {
		s.tiers[k].reset()
	}
}

func (t *spineTier) reset() {
	t.vec.Reset()
	t.weight, t.arrived, t.attempted, t.leaves = 0, 0, 0, 0
}

// GroupStart returns the first leaf of the base-tier group leaf i folds
// into. That group is open, and leaf i may Fold, once every leaf before
// GroupStart(i) has been settled by Advance. A spine whose base tier is the
// root has one group, open from the start.
func (s *Spine) GroupStart(i int) int {
	if s.base >= len(s.spans) {
		return 0
	}
	span := s.spans[s.base]
	return i / span * span
}

// Fold adds one surviving leaf's already-weighted contribution v into the
// open base-tier group, stripe by stripe under per-stripe locks, beginning
// at stripe i mod Stripes so that concurrent folds of neighbouring leaves
// start apart. Folds may run concurrently with each other, but only into an
// open group (GroupStart) and never concurrently with the Advance that
// closes it. The leaf's weight is counted separately, by Tally in leaf
// order: exact addition makes the fold order-free, the bookkeeping is not.
func (s *Spine) Fold(i int, v []float64) {
	vec := s.tiers[0].vec
	n := vec.Stripes()
	for j := range n {
		k := (i + j) % n
		s.stripeMu[k].Lock()
		vec.AddScaledStripe(k, 1, v)
		s.stripeMu[k].Unlock()
	}
}

// Tally counts one folded leaf of integer example weight w into the open
// base-tier group. Call it in leaf order, before the leaf's Advance.
func (s *Spine) Tally(w int64) { s.tiers[0].fold(w, 1) }

// AddScaled folds one surviving leaf update v scaled by its weight w.
func (s *Spine) AddScaled(w int64, v []float64) {
	t := &s.tiers[0]
	t.vec.AddScaled(float64(w), v)
	t.fold(w, 1)
}

// Absorb folds an already-closed child subtree: the snapshot of its sum, its
// weight and its surviving leaf count.
func (s *Spine) Absorb(sum exact.Serialized, w int64, leaves int) error {
	t := &s.tiers[0]
	if err := t.vec.Absorb(sum); err != nil {
		return err
	}
	t.fold(w, leaves)
	return nil
}

func (t *spineTier) fold(w int64, leaves int) {
	t.weight += w
	t.arrived++
	t.leaves += leaves
}

// Advance settles the leaf item ending at leaf i and closes every group whose
// span ends there, tier by tier, up to the root or the cap. Call it once per
// leaf item in leaf order, delivered or not.
func (s *Spine) Advance(i int) {
	s.tiers[0].attempted++
	for t := s.base; t < len(s.spans); t++ {
		span := s.spans[t]
		if (i+1)%span != 0 && i+1 != s.n {
			return
		}
		s.close(t, i, span)
		if t == s.capTier {
			return
		}
	}
}

// close finalizes tier t's open group, which ends at leaf i, under CloseTier.
func (s *Spine) close(t, i, span int) {
	var endSpan func()
	if s.sink != nil {
		endSpan = s.sink.Span(obs.SpanFLTierFold, s.tc.ChildLabels()...)
	}
	k := t - s.base
	g := &s.tiers[k]
	node := i / span
	grp := TierGroup{
		Round: s.round, Tier: t, Node: node, TraceID: s.tc.TraceID,
		Lo: node * span, Hi: i + 1, Leaves: g.leaves,
		Arrived: g.arrived, Attempted: g.attempted, Weight: g.weight, Sum: g.vec,
	}
	ev, forward := CloseTier(s.cfg.TierQuorum, grp)
	if t != s.capTier {
		p := &s.tiers[k+1]
		if forward {
			// Every spine tier is built at s.dim, so the merge cannot fail.
			_ = p.vec.AddVec(g.vec)
			p.fold(g.weight, g.leaves)
		}
		p.attempted++
	}
	s.onClose(grp, ev)
	if endSpan != nil {
		endSpan()
	}
	g.reset()
}

// Root returns the root's sum, integer weight and surviving leaf count. Valid
// on an uncapped spine after the pass's last Advance.
func (s *Spine) Root() (sum *exact.Vec, weight int64, leaves int) {
	r := &s.tiers[len(s.spans)-s.base]
	return r.vec, r.weight, r.leaves
}

// MemoryBytes reports the spine's accumulator footprint: O(depth · dim),
// however many leaves pass through it.
func (s *Spine) MemoryBytes() int64 {
	var total int64
	for _, t := range s.tiers {
		total += t.vec.MemoryBytes()
	}
	return total
}
