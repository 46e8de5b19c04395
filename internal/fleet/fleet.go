// Package fleet is a discrete-event simulator for million-client federated
// rounds. It drives a generated heterogeneous device population
// (device.Population) through the hierarchical aggregation tree in *virtual*
// time (simclock.Sim): every client's round — downlink, local training,
// uplink — is priced from its sampled fleet profile, partial sums climb the
// tree as direct exact merges with no frame between tiers (each priced at
// its limb payload, (hi−lo)·dim·8 bytes of its window), and the round's
// wall time is the slowest surviving path to the root, not the machine the
// simulator runs on.
//
// Memory is the point. The simulator folds the tree on the serving plane's
// streaming spine (fl.Spine): leaves arrive in index order, so at any moment
// exactly one aggregator per tier is open per spine — O(depth·params)
// accumulator state plus one scratch update vector, regardless of fleet
// size. No slice anywhere is proportional to the number of clients — a
// client's spec, availability and update are all recomputed on demand as
// pure functions of (seed, index, round), the same order-independent hash
// construction the chaos plane uses (Falafels-style discrete events over a
// BouquetFL-style heterogeneous population).
//
// Speed is the other point. A round is sharded at a fixed tier of the tree
// into independent subtrees, simulated concurrently on the internal/parallel
// pool: each worker owns a pooled spine, capped at the shard tier, and a
// scratch arena, so the leaf fold path allocates nothing per client. The
// shard layout is a pure function of (Clients, Fanout) — never of the worker
// count — and every per-shard draw is a pure function of (seed, index,
// round), so the committed model, the stats and the ledger are byte-identical
// at any GOMAXPROCS or -workers setting. Once every shard is done, a
// single-threaded sequencer takes the shard slots in index order: it replays
// each one's buffered ledger events and folds its sum into a merge spine over
// the tiers above the shard tier, so the journal is byte-identical to one
// spine over the whole fleet.
//
// Because the fold arithmetic is exact (internal/exact), arrival order is
// immaterial: folding children in index order is bit-identical to folding
// them in completion-time order, and the committed root model is
// bit-identical to a flat fold over the same survivors — the property
// FlatRound exposes and the tests enforce.
package fleet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"bofl/internal/device"
	"bofl/internal/exact"
	"bofl/internal/faultinject"
	"bofl/internal/fl"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
	"bofl/internal/simclock"
)

// Per-round draw attempts in the LayerFleet hash stream. Population sampling
// uses round 0; the engine draws at rounds ≥ 1, so the streams never collide.
const (
	drawChaos = iota // scripted/policy fault decision
	drawAvailability
)

// wireOverheadBytes approximates per-transfer framing cost (headers, meta)
// added to the 8·dim model payload when pricing link time.
const wireOverheadBytes = 128

// minShards is the smallest subtree count worth sharding at: the engine picks
// the highest tier whose node count reaches it, so shards stay coarse enough
// to amortize dispatch but numerous enough to load-balance any plausible
// worker count. Layout depends only on (Clients, Fanout).
const minShards = 32

// UpdateFn computes client i's local update from the global model into out
// (len(out) == len(global)) and returns its integer example count (≥ 1).
// It MUST be a pure function of (i, global) — the simulator recomputes it at
// will and replays depend on it. It may be called concurrently from several
// workers (with distinct out buffers).
type UpdateFn func(i int, global, out []float64) int

// DefaultUpdate is a deterministic synthetic workload: an affine map whose
// scale and shift vary per client, matching the in-process scale harness.
func DefaultUpdate(i int, global, out []float64) int {
	scale, shift := 1+float64(i%7)/8, float64(i%5)/16
	for j, v := range global {
		out[j] = v*scale + shift
	}
	return 1 + i%29
}

// Config shapes one simulated fleet.
type Config struct {
	// Clients is the fleet size; every round selects the whole fleet.
	Clients int
	// Dim is the model dimension.
	Dim int
	// Fanout is the aggregation-tree fanout (≥ 2).
	Fanout int
	// Jobs is the local minibatch count per client per round.
	Jobs int
	// Seed fixes population sampling and trace minting.
	Seed int64
	// ChaosSeed fixes availability and fault draws; replays with the same
	// value are byte-identical. Defaults to Seed when zero.
	ChaosSeed int64
	// Workers caps how many subtree shards simulate concurrently; 0 uses the
	// parallel pool width (GOMAXPROCS unless overridden). The committed
	// model, stats and ledger are byte-identical at every setting — Workers
	// only changes scheduling, never the shard layout.
	Workers int
	// TierQuorum is the per-aggregator child quorum (see fl.TreeConfig).
	TierQuorum float64
	// Quorum is the round-level survivor fraction required to commit.
	Quorum float64
	// DeadlineSeconds fixes the per-round client deadline. Zero derives it:
	// DeadlineRatio × Jobs × the population's slowest per-job latency.
	DeadlineSeconds float64
	// DeadlineRatio scales the derived deadline (default 1.25).
	DeadlineRatio float64
	// TierLatencySeconds charges a fixed aggregation hop cost per tier when
	// pricing the round's virtual duration (default 0).
	TierLatencySeconds float64
	// Population supplies per-client device specs; nil builds the standard
	// heterogeneous mix (device.StandardFleetClasses, ViT anchors) on Seed.
	Population *device.Population
	// Fault injects scripted or probabilistic chaos at LayerFleet points
	// (nil injects nothing).
	Fault faultinject.Policy
	// Clock is the virtual clock to advance per round (nil creates one at
	// the zero epoch).
	Clock *simclock.Sim
	// Ledger, when set, journals round/partial/subtree-drop/commit events.
	Sink   obs.Sink
	Ledger *ledger.Ledger
	// Update is the local training function (nil selects DefaultUpdate).
	Update UpdateFn
}

func (c *Config) normalize() error {
	switch {
	case c.Clients < 1:
		return fmt.Errorf("fleet: Clients %d must be ≥ 1", c.Clients)
	case c.Dim < 1:
		return fmt.Errorf("fleet: Dim %d must be ≥ 1", c.Dim)
	case c.Fanout < 2:
		return fmt.Errorf("fleet: Fanout %d must be ≥ 2", c.Fanout)
	case c.Jobs < 1:
		return fmt.Errorf("fleet: Jobs %d must be ≥ 1", c.Jobs)
	case c.Workers < 0:
		return fmt.Errorf("fleet: Workers %d must be ≥ 0", c.Workers)
	case c.TierQuorum < 0 || c.TierQuorum > 1:
		return fmt.Errorf("fleet: TierQuorum %v must be in [0, 1]", c.TierQuorum)
	case c.Quorum < 0 || c.Quorum > 1:
		return fmt.Errorf("fleet: Quorum %v must be in [0, 1]", c.Quorum)
	case c.DeadlineSeconds < 0 || c.DeadlineRatio < 0 || c.TierLatencySeconds < 0:
		return fmt.Errorf("fleet: negative deadline/tier latency")
	}
	if c.ChaosSeed == 0 {
		c.ChaosSeed = c.Seed
	}
	if c.DeadlineRatio == 0 {
		c.DeadlineRatio = 1.25
	}
	if c.Population == nil {
		classes, err := device.StandardFleetClasses(device.ViT)
		if err != nil {
			return err
		}
		c.Population, err = device.NewPopulation(c.Seed, classes)
		if err != nil {
			return err
		}
	}
	if c.Clock == nil {
		c.Clock = simclock.NewSim(time.Unix(0, 0).UTC())
	}
	c.Sink = obs.OrNop(c.Sink)
	c.Fault = faultinject.OrNop(c.Fault)
	if c.Update == nil {
		c.Update = DefaultUpdate
	}
	return nil
}

// RoundStats summarizes one simulated round.
type RoundStats struct {
	Round   int
	Clients int
	// Survivors is the number of leaf updates in the committed aggregate;
	// Dropped is everything else (unavailable + faults + misses + leaves
	// lost to subtree drops).
	Survivors int
	Dropped   int
	// Loss taxonomy. SubtreeDropLeaves counts healthy leaves discarded
	// because their aggregator missed its tier quorum.
	Unavailable       int
	Crashed           int
	DeadlineMisses    int
	SubtreeDrops      int
	SubtreeDropLeaves int
	// Tree traffic: partials merged tier-to-tier and their priced limb
	// payload bytes, (hi−lo)·dim·8 per partial; nothing is encoded.
	Partials  int
	WireBytes int64
	// TotalWeight is the committed integer example weight.
	TotalWeight int64
	// EnergyJ is the fleet's summed round energy (training + radio), summed
	// per shard and merged in shard order — workers-independent.
	EnergyJ float64
	// VirtualSeconds is the round's simulated duration (slowest surviving
	// path to the root); DeadlineSeconds is the per-client deadline used.
	VirtualSeconds  float64
	DeadlineSeconds float64
	// SpineBytes is one full spine's accumulator working set (worker tiers +
	// merge tiers + root) — O(depth·params), independent of Clients. Each
	// concurrent worker holds its own copy of the tiers-below-the-shard
	// slice, so total memory scales with min(Workers, shards), never fleet
	// size.
	SpineBytes int64
}

// accumulate folds o's additive counters into s — the shard-merge reduction,
// applied in shard index order so float sums stay workers-independent.
func (s *RoundStats) accumulate(o *RoundStats) {
	s.Unavailable += o.Unavailable
	s.Crashed += o.Crashed
	s.DeadlineMisses += o.DeadlineMisses
	s.SubtreeDrops += o.SubtreeDrops
	s.SubtreeDropLeaves += o.SubtreeDropLeaves
	s.Partials += o.Partials
	s.WireBytes += o.WireBytes
	s.EnergyJ += o.EnergyJ
}

// Engine simulates rounds over one fleet. Not safe for concurrent use (one
// RunRound at a time; the engine parallelizes internally).
type Engine struct {
	cfg      Config
	depth    int // top closing tier; the root sits one tier above it
	deadline float64
	hasFault bool // false when cfg.Fault is the NopPolicy: skip Decide entirely
	// chaosMid caches the availability draws' hash prefix for ChaosSeed.
	chaosMid faultinject.FleetSeedMid

	global []float64
	sum    []float64

	// Shard layout — a pure function of (Clients, Fanout). Tier shardTier
	// subtrees (shardSpan leaves each) are the unit of parallel work.
	shardTier int
	shardSpan int
	numShards int
	shardOuts []shardOut

	// merge drives the merge spine: its leaf items are the shard sums in
	// index order, its tiers shardTier+1..depth plus the root. Worker
	// contexts (pooled in ctxFree) each drive a spine over one shard's
	// leaves, capped at shardTier.
	merge   *simCtx
	ctxMu   sync.Mutex
	ctxFree []*simCtx

	// shardRunner overrides shard dispatch; tests inject seeded permutations
	// of shard completion order here. nil dispatches on the parallel pool.
	shardRunner func(n int, run func(s int))

	round int
	tc    obs.TraceContext
	stats RoundStats
	err   error
}

// New validates the config and builds an engine with a deterministic initial
// model.
func New(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.Clients
	e := &Engine{
		cfg:    cfg,
		depth:  fl.TreeTiers(cfg.Fanout, n) - 1,
		global: make([]float64, cfg.Dim),
		sum:    make([]float64, cfg.Dim),
	}
	_, nop := cfg.Fault.(faultinject.NopPolicy)
	e.hasFault = !nop
	e.chaosMid = faultinject.NewFleetSeedMid(cfg.ChaosSeed)
	for j := range e.global {
		e.global[j] = float64(j%17)/16 + 0.5
	}
	e.deadline = cfg.DeadlineSeconds
	if e.deadline == 0 {
		e.deadline = cfg.DeadlineRatio * float64(cfg.Jobs) * cfg.Population.SlowestSecPerJob()
	}

	// Shard at the highest tier below the top with at least minShards
	// subtrees, falling back to tier 0 (≥ 2 nodes whenever depth ≥ 1).
	// Workers never enter this choice: the same fleet always shards the same
	// way.
	for t := e.depth - 1; t > 0; t-- {
		if span := fl.TierSpan(cfg.Fanout, t, n); (n+span-1)/span >= minShards {
			e.shardTier = t
			break
		}
	}
	e.shardSpan = fl.TierSpan(cfg.Fanout, e.shardTier, n)
	e.numShards = (n + e.shardSpan - 1) / e.shardSpan
	e.shardOuts = make([]shardOut, e.numShards)
	e.merge = e.newCtx(e.shardTier+1, -1)
	e.merge.stats = &e.stats
	return e, nil
}

// Depth returns the top closing tier (leaves fold into tier 0; the root sits
// one tier above Depth).
func (e *Engine) Depth() int { return e.depth }

// Deadline returns the per-client round deadline in seconds.
func (e *Engine) Deadline() float64 { return e.deadline }

// Shards returns the parallel shard layout: how many tier-shardTier subtrees
// a round fans out, and how many leaves each covers.
func (e *Engine) Shards() (count, span int) { return e.numShards, e.shardSpan }

// Global returns a copy of the current global model.
func (e *Engine) Global() []float64 { return append([]float64(nil), e.global...) }

// SetGlobal replaces the global model (length must equal Dim).
func (e *Engine) SetGlobal(g []float64) error {
	if len(g) != e.cfg.Dim {
		return fmt.Errorf("fleet: model length %d, want %d", len(g), e.cfg.Dim)
	}
	copy(e.global, g)
	return nil
}

// SpineBytes reports one full spine's accumulator working set: a worker
// spine's tiers 0..shardTier plus the merge spine's tiers shardTier+1..depth
// and the root — the quantity that must stay O(depth · params). See
// RoundStats.SpineBytes for how per-worker copies scale.
func (e *Engine) SpineBytes() int64 {
	return exact.VecBytes(e.cfg.Dim) * int64(e.depth+2)
}

// leafResult is one simulated client's round outcome.
type leafResult struct {
	ok         bool
	completeAt float64 // seconds after round start the update arrives
}

// shardOut is one shard's slot in the indexed result array: the outcome of
// its cap close (the shard tier's group), the snapshot of its sum (taken out
// of the worker spine, which moves on to other shards), its stats partial
// and its buffered ledger events. Slots are reused across rounds, so
// steady-state shard dispatch allocates nothing.
type shardOut struct {
	ok         bool // the shard's group forwarded its sum
	weight     int64
	leaves     int
	completeAt float64
	sum        exact.Serialized
	stats      RoundStats
	events     []ledger.Event
	err        error
}

// simCtx is one spine plus the fleet's side of its closes: the per-tier
// latest arrival, the stats the closes update and where their events go. A
// worker context (out set) covers one shard at a time and buffers its events
// in the shard slot; the merge context journals directly, since it runs
// single-threaded in leaf order.
type simCtx struct {
	e       *Engine
	spine   *fl.Spine
	latest  []float64 // latest arrival per tier, seconds after round start
	scratch []float64 // worker update arena
	stats   *RoundStats
	out     *shardOut
}

// newCtx builds a context whose spine folds leaf items into tier base and
// closes up to tier capTier (negative: up to the root).
func (e *Engine) newCtx(base, capTier int) *simCtx {
	c := &simCtx{e: e, latest: make([]float64, e.depth+2)}
	c.spine = fl.NewSpine(fl.TreeConfig{Fanout: e.cfg.Fanout, TierQuorum: e.cfg.TierQuorum},
		e.cfg.Dim, base, capTier, c.close)
	return c
}

func (e *Engine) getCtx() *simCtx {
	e.ctxMu.Lock()
	if k := len(e.ctxFree); k > 0 {
		c := e.ctxFree[k-1]
		e.ctxFree = e.ctxFree[:k-1]
		e.ctxMu.Unlock()
		return c
	}
	e.ctxMu.Unlock()
	c := e.newCtx(0, e.shardTier)
	c.scratch = make([]float64, e.cfg.Dim)
	return c
}

func (e *Engine) putCtx(c *simCtx) {
	e.ctxMu.Lock()
	e.ctxFree = append(e.ctxFree, c)
	e.ctxMu.Unlock()
}

// close is the fleet's side of a group close: loss and traffic stats, the
// ledger, and the group's arrival time, which a forwarded group hands its
// parent one tier hop later. A worker's cap close fills the shard slot
// instead of a parent tier.
func (c *simCtx) close(g fl.TierGroup, ev ledger.Event) {
	switch ev.Kind {
	case ledger.KindSubtreeDrop:
		c.stats.SubtreeDrops++
		c.stats.SubtreeDropLeaves += g.Leaves
	case ledger.KindPartial:
		c.stats.Partials++
		c.stats.WireBytes += ev.WireTxBytes
	}
	forward := ev.Kind == ledger.KindPartial
	at := c.latest[g.Tier]
	c.latest[g.Tier] = 0
	if forward {
		at += c.e.cfg.TierLatencySeconds
	}
	out := c.out
	if out == nil {
		c.e.ledgerAppend(ev)
	} else if ev.Kind != "" && c.e.cfg.Ledger != nil {
		out.events = append(out.events, ev)
	}
	if out == nil || g.Tier != c.e.shardTier {
		c.latest[g.Tier+1] = max(c.latest[g.Tier+1], at)
		return
	}
	out.ok, out.weight, out.leaves, out.completeAt = forward, g.Weight, g.Leaves, at
	if forward {
		g.Sum.SerializeInto(&out.sum)
	}
}

// simulateLeaf prices client i's round: availability and chaos draws, then
// downlink + Jobs·SecPerJob + uplink against the deadline, counting losses
// and energy into st. Energy is charged for every phase the device actually
// ran, even when the update is lost. Every draw is a pure function of (seed,
// i, round) — scheduling-independent.
func (e *Engine) simulateLeaf(i int, st *RoundStats) leafResult {
	spec := e.cfg.Population.Client(i)
	var dec faultinject.Decision
	if e.hasFault {
		dec = e.cfg.Fault.Decide(faultinject.Point{
			Layer: faultinject.LayerFleet, Client: device.ClientID(i),
			Round: e.round, Attempt: drawChaos,
		})
	}
	if dec.Drop {
		st.Unavailable++
		return leafResult{}
	}
	if e.chaosMid.Client(i).Unit(e.round, drawAvailability) >= spec.Availability {
		st.Unavailable++
		return leafResult{}
	}

	frame := float64(8*e.cfg.Dim + wireOverheadBytes)
	down := frame / spec.DownlinkBps
	compute := float64(e.cfg.Jobs)*spec.SecPerJob + dec.Delay.Seconds()
	up := frame / spec.UplinkBps

	if dec.Crash {
		// Trained, died before reporting: compute energy spent, no uplink.
		st.Crashed++
		st.EnergyJ += compute*spec.PowerBusyW + down*spec.PowerIdleW
		return leafResult{}
	}
	total := down + compute + up
	st.EnergyJ += compute*spec.PowerBusyW + (down+up)*spec.PowerIdleW
	if dec.Timeout || total > e.deadline {
		st.DeadlineMisses++
		return leafResult{}
	}
	return leafResult{ok: true, completeAt: total}
}

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Engine) ledgerAppend(ev ledger.Event) {
	if e.cfg.Ledger != nil && ev.Kind != "" {
		e.cfg.Ledger.Append(ev)
	}
}

// runShard drives a worker spine over shard s's leaves into its slot.
func (e *Engine) runShard(s int) {
	c := e.getCtx()
	out := &e.shardOuts[s]
	*out = shardOut{sum: out.sum, events: out.events[:0]}
	c.out, c.stats = out, &out.stats
	clear(c.latest)
	c.spine.Reset(e.cfg.Clients, e.round, e.tc, nil)
	lo := s * e.shardSpan
	hi := min(lo+e.shardSpan, e.cfg.Clients)
	for i := lo; i < hi; i++ {
		if lr := e.simulateLeaf(i, c.stats); lr.ok {
			w := int64(e.cfg.Update(i, e.global, c.scratch))
			if w < 1 {
				if out.err == nil {
					out.err = fmt.Errorf("fleet: client %d returned weight %d < 1", i, w)
				}
			} else {
				c.spine.AddScaled(w, c.scratch)
				c.latest[0] = max(c.latest[0], lr.completeAt)
			}
		}
		c.spine.Advance(i)
	}
	c.out, c.stats = nil, nil
	e.putCtx(c)
}

// runShards simulates every shard, filling e.shardOuts. Execution order is
// arbitrary (pool scheduling, or a test-injected permutation); the indexed
// slots make the merge phase deterministic regardless.
func (e *Engine) runShards() {
	if e.shardRunner != nil {
		e.shardRunner(e.numShards, e.runShard)
		return
	}
	parallel.ForChunkMax(e.numShards, e.cfg.Workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			e.runShard(s)
		}
	})
}

// mergeShards is the deterministic sequencer: once every shard is done, it
// takes the slots in index order — folding each one's stats into the round,
// replaying its buffered ledger events, surfacing its first error — and
// drives the merge spine over the shard sums up to the root. The journal is
// therefore in leaf order, whatever order the shards completed in.
func (e *Engine) mergeShards() {
	m, n := e.merge, e.cfg.Clients
	clear(m.latest)
	m.spine.Reset(n, e.round, e.tc, nil)
	base := e.shardTier + 1
	for s := range e.shardOuts {
		out := &e.shardOuts[s]
		if out.err != nil {
			e.fail(out.err)
		}
		e.stats.accumulate(&out.stats)
		for _, ev := range out.events {
			e.ledgerAppend(ev)
		}
		m.latest[base] = max(m.latest[base], out.completeAt)
		if out.ok {
			if err := m.spine.Absorb(out.sum, out.weight, out.leaves); err != nil {
				e.fail(fmt.Errorf("fleet: tier %d merge: %w", base, err))
			}
		}
		m.spine.Advance(min((s+1)*e.shardSpan, n) - 1)
	}
}

// RunRound simulates one virtual-time round over the whole fleet, commits the
// new global model, and advances the virtual clock by the round's duration.
// Shards run concurrently on the parallel pool (bounded by Config.Workers);
// everything committed — model bits, stats, ledger bytes — is identical at
// any width.
func (e *Engine) RunRound() (RoundStats, error) {
	e.round++
	e.err = nil
	n := e.cfg.Clients
	e.tc = obs.MintTrace(e.cfg.Seed, e.round)
	e.stats = RoundStats{
		Round: e.round, Clients: n,
		DeadlineSeconds: e.deadline, SpineBytes: e.SpineBytes(),
	}
	e.ledgerAppend(ledger.Event{
		Kind: ledger.KindRoundBegin, Round: e.round, TraceID: e.tc.TraceID,
		Selected: n, Deadline: e.deadline,
	})

	e.runShards()
	e.mergeShards()
	if e.err != nil {
		e.abort(e.err.Error())
		return e.stats, e.err
	}
	root, weight, survivors := e.merge.spine.Root()
	required := int(math.Ceil(e.cfg.Quorum * float64(n)))
	switch {
	case weight == 0:
		err := fmt.Errorf("fleet: round %d: no surviving aggregate", e.round)
		e.abort(err.Error())
		return e.stats, err
	case survivors < required:
		err := fmt.Errorf("fleet: round %d: %d survivors below quorum %d", e.round, survivors, required)
		e.abort(err.Error())
		return e.stats, err
	}

	root.RoundTo(e.sum)
	tw := float64(weight)
	for j := range e.global {
		e.global[j] = e.sum[j] / tw
	}

	e.stats.Survivors = survivors
	e.stats.Dropped = n - survivors
	e.stats.TotalWeight = weight
	e.stats.VirtualSeconds = e.merge.latest[e.depth+1] + e.cfg.TierLatencySeconds
	e.cfg.Clock.Advance(time.Duration(e.stats.VirtualSeconds * float64(time.Second)))

	e.cfg.Sink.Count(obs.MetricFleetClients, float64(n))
	e.cfg.Sink.Count(obs.MetricFleetVirtualS, e.stats.VirtualSeconds)
	e.cfg.Sink.Count(obs.MetricFleetEnergy, e.stats.EnergyJ)
	e.cfg.Sink.Count(obs.MetricFleetMisses, float64(e.stats.DeadlineMisses))
	e.cfg.Sink.Count(obs.MetricFleetDropped, float64(e.stats.Dropped))
	e.ledgerAppend(ledger.Event{
		Kind: ledger.KindCommit, Round: e.round, TraceID: e.tc.TraceID,
		Selected: n, Survivors: survivors, Weight: weight,
		LatencySeconds: e.stats.VirtualSeconds, EnergyJoules: e.stats.EnergyJ,
	})
	return e.stats, nil
}

func (e *Engine) abort(detail string) {
	e.ledgerAppend(ledger.Event{
		Kind: ledger.KindAbort, Round: e.round, TraceID: e.tc.TraceID,
		Detail: detail,
	})
}

// FlatRound is the reference oracle: it simulates the *next* round's leaves
// with draws identical to what RunRound will use, folds every survivor into a
// single flat exact accumulator in index order — no tree, no tier merges, no
// shards — and returns the model that fold would commit plus its total
// weight. It does not mutate engine state. With TierQuorum 0 (no subtree
// drops) the subsequently committed RunRound model must be bit-identical.
func (e *Engine) FlatRound() ([]float64, int64, error) {
	savedStats, savedRound, savedErr := e.stats, e.round, e.err
	defer func() { e.stats, e.round, e.err = savedStats, savedRound, savedErr }()
	e.round++
	e.stats = RoundStats{}
	e.err = nil
	scratch := make([]float64, e.cfg.Dim)

	acc := exact.NewVec(e.cfg.Dim)
	var weight int64
	for i := 0; i < e.cfg.Clients; i++ {
		if !e.simulateLeaf(i, &e.stats).ok {
			continue
		}
		w := int64(e.cfg.Update(i, e.global, scratch))
		if w < 1 {
			return nil, 0, fmt.Errorf("fleet: client %d returned weight %d < 1", i, w)
		}
		acc.AddScaled(float64(w), scratch)
		weight += w
	}
	if weight == 0 {
		return nil, 0, fmt.Errorf("fleet: flat round %d: no survivors", e.round)
	}
	out := make([]float64, e.cfg.Dim)
	acc.RoundTo(out)
	tw := float64(weight)
	for j := range out {
		out[j] /= tw
	}
	return out, weight, nil
}
