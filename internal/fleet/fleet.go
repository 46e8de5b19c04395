// Package fleet is a discrete-event simulator for million-client federated
// rounds. It drives a generated heterogeneous device population
// (device.Population) through the hierarchical aggregation tree in *virtual*
// time (simclock.Sim): every client's round — downlink, local training,
// uplink — is priced from its sampled fleet profile, partial sums climb the
// tree as direct exact merges (each priced, not performed, as the BFL1
// partial-aggregate frame a distributed tier would ship), and the round's
// wall time is the slowest surviving path to the root, not the machine the
// simulator runs on.
//
// Memory is the point. The simulator walks the tree depth-first, so at any
// moment exactly one aggregator per tier is open per worker: O(depth·params)
// accumulator state plus one scratch update vector, regardless of fleet size.
// No slice anywhere is proportional to the number of clients — a client's
// spec, availability and update are all recomputed on demand as pure
// functions of (seed, index, round), the same order-independent hash
// construction the chaos plane uses (Falafels-style discrete events over a
// BouquetFL-style heterogeneous population).
//
// Speed is the other point. A round is sharded at a fixed tier of the tree
// into independent subtrees, simulated concurrently on the internal/parallel
// pool: each worker owns a pooled spine slice and scratch arena, so the leaf
// fold path allocates nothing per client. The shard
// layout is a pure function of (Clients, Fanout) — never of the worker count —
// and every per-shard draw is a pure function of (seed, index, round), so the
// committed model, the stats and the ledger are byte-identical at any
// GOMAXPROCS or -workers setting. Shard results merge through a single-
// threaded sequencer that replays buffered per-shard ledger events in DFS
// order, which keeps the journal byte-identical to the serial walk too.
//
// Because the fold arithmetic is exact (internal/exact), arrival order is
// immaterial: folding children in index order as the DFS visits them is
// bit-identical to folding them in completion-time order, and the committed
// root model is bit-identical to a flat fold over the same survivors — the
// property FlatRound exposes and the tests enforce.
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
	// Tree traffic: partials forwarded tier-to-tier and their limb payload
	// bytes — what the partial frames would carry between processes.
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
	depth    int // root aggregator tier; spine holds tiers 0..depth
	deadline float64
	hasFault bool // false when cfg.Fault is the NopPolicy: skip Decide entirely
	// chaosMid caches the availability draws' hash prefix for ChaosSeed.
	chaosMid faultinject.FleetSeedMid

	global []float64
	sum    []float64

	rootVec *exact.Vec

	// Shard layout — a pure function of (Clients, Fanout). Tier shardTier
	// subtrees (shardSpan leaves each) are the unit of parallel work.
	shardTier int
	shardSpan int
	numShards int
	shardOuts []shardOut

	// mergeCtx walks tiers shardTier+1..depth single-threaded, fetching
	// shard results in index order; worker contexts (pooled in ctxFree) walk
	// tiers 0..shardTier inside one shard.
	mergeCtx *simCtx
	ctxMu    sync.Mutex
	ctxFree  []*simCtx

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
	depth := 0
	for spanPow(cfg.Fanout, depth+1, cfg.Clients) < cfg.Clients {
		depth++
	}
	e := &Engine{
		cfg:     cfg,
		depth:   depth,
		global:  make([]float64, cfg.Dim),
		sum:     make([]float64, cfg.Dim),
		rootVec: exact.NewVec(cfg.Dim),
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

	// Shard at the highest tier with at least minShards subtrees, falling
	// back to tier 0 (≥ 2 nodes whenever depth ≥ 1). Workers never enter
	// this choice: the same fleet always shards the same way.
	e.shardTier = 0
	if depth > 0 {
		for t := depth - 1; t > 0; t-- {
			span := spanPow(cfg.Fanout, t+1, cfg.Clients)
			if (cfg.Clients+span-1)/span >= minShards {
				e.shardTier = t
				break
			}
		}
	}
	e.shardSpan = spanPow(cfg.Fanout, e.shardTier+1, cfg.Clients)
	e.numShards = (cfg.Clients + e.shardSpan - 1) / e.shardSpan
	e.shardOuts = make([]shardOut, e.numShards)

	e.mergeCtx = &simCtx{
		e: e, floor: e.shardTier, fetch: e.fetchShard,
		direct: true, stats: &e.stats,
		spine: make([]*exact.Vec, depth+1),
	}
	for t := e.shardTier + 1; t <= depth; t++ {
		e.mergeCtx.spine[t] = exact.NewVec(cfg.Dim)
	}
	return e, nil
}

// Depth returns the root aggregator tier (leaves fold into tier 0).
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

// SpineBytes reports one full spine's accumulator working set: the worker
// tiers 0..shardTier, the merge tiers shardTier+1..depth and the root — the
// quantity that must stay O(depth · params). See RoundStats.SpineBytes for
// how per-worker copies scale.
func (e *Engine) SpineBytes() int64 {
	return exact.VecBytes(e.cfg.Dim) * int64(e.depth+2)
}

// spanPow returns min(fanout^exp, n) without overflow.
func spanPow(fanout, exp, n int) int {
	s := 1
	for k := 0; k < exp; k++ {
		if s > n/fanout {
			return n
		}
		s *= fanout
	}
	if s > n {
		return n
	}
	return s
}

// leafResult is one simulated client's round outcome.
type leafResult struct {
	ok         bool
	completeAt float64 // seconds after round start the update arrives
}

// nodeResult is one aggregator subtree's outcome. A forwarded node's sum
// stays in its context's spine accumulator for the node's tier until the
// parent merges it — or, for a shard the merge context fetched, in shard,
// the shard slot's snapshot.
type nodeResult struct {
	ok         bool
	weight     int64
	survivors  int
	completeAt float64
	shard      *exact.Serialized
}

// shardOut is one shard's slot in the indexed result array: its subtree
// result, the snapshot of its sum (taken out of the worker context, which
// moves on to other shards), its stats partial and its buffered ledger
// events. Slots are reused across rounds, so steady-state shard dispatch
// allocates nothing.
type shardOut struct {
	res    nodeResult
	sum    exact.Serialized
	stats  RoundStats
	events []ledger.Event
	err    error
}

// simCtx is one simulation walker: a spine slice and a scratch update arena.
// Worker contexts (floor -1 … fetch nil) run a whole shard subtree; the
// engine's single merge context intercepts tier `floor` node visits and
// fetches the corresponding shard slot instead, appending ledger events
// directly (`direct`) since it runs single-threaded in DFS order.
type simCtx struct {
	e       *Engine
	spine   []*exact.Vec // indexed by tier; merge ctx leaves ≤ floor nil
	scratch []float64

	floor  int
	fetch  func(lo int) nodeResult
	direct bool

	stats  *RoundStats
	events []ledger.Event
	err    error
}

// newWorkerCtx builds a context able to simulate one shard (tiers
// 0..shardTier plus leaves).
func (e *Engine) newWorkerCtx() *simCtx {
	c := &simCtx{
		e:       e,
		spine:   make([]*exact.Vec, e.shardTier+1),
		scratch: make([]float64, e.cfg.Dim),
		floor:   -1,
	}
	for t := range c.spine {
		c.spine[t] = exact.NewVec(e.cfg.Dim)
	}
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
	return e.newWorkerCtx()
}

func (e *Engine) putCtx(c *simCtx) {
	e.ctxMu.Lock()
	e.ctxFree = append(e.ctxFree, c)
	e.ctxMu.Unlock()
}

func (c *simCtx) fail(err error) {
	if c.direct {
		c.e.fail(err)
	} else if c.err == nil {
		c.err = err
	}
}

// ledgerAppend journals ev: directly for the merge context (it already runs
// in canonical DFS order), buffered for worker contexts — the merge phase
// replays shard buffers in shard index order, so the journal is byte-
// identical to the serial walk at any worker count.
func (c *simCtx) ledgerAppend(ev ledger.Event) {
	if c.e.cfg.Ledger == nil {
		return
	}
	if c.direct {
		c.e.cfg.Ledger.Append(ev)
	} else {
		c.events = append(c.events, ev)
	}
}

// simulateLeaf prices client i's round: availability and chaos draws, then
// downlink + Jobs·SecPerJob + uplink against the deadline. Energy is charged
// for every phase the device actually ran, even when the update is lost.
// Every draw is a pure function of (seed, i, round) — scheduling-independent.
func (c *simCtx) simulateLeaf(i int) leafResult {
	e := c.e
	spec := e.cfg.Population.Client(i)
	var dec faultinject.Decision
	if e.hasFault {
		dec = e.cfg.Fault.Decide(faultinject.Point{
			Layer: faultinject.LayerFleet, Client: device.ClientID(i),
			Round: e.round, Attempt: drawChaos,
		})
	}
	if dec.Drop {
		c.stats.Unavailable++
		return leafResult{}
	}
	if e.chaosMid.Client(i).Unit(e.round, drawAvailability) >= spec.Availability {
		c.stats.Unavailable++
		return leafResult{}
	}

	frame := float64(8*e.cfg.Dim + wireOverheadBytes)
	down := frame / spec.DownlinkBps
	compute := float64(e.cfg.Jobs)*spec.SecPerJob + dec.Delay.Seconds()
	up := frame / spec.UplinkBps

	if dec.Crash {
		// Trained, died before reporting: compute energy spent, no uplink.
		c.stats.Crashed++
		c.stats.EnergyJ += compute*spec.PowerBusyW + down*spec.PowerIdleW
		return leafResult{}
	}
	total := down + compute + up
	c.stats.EnergyJ += compute*spec.PowerBusyW + (down+up)*spec.PowerIdleW
	if dec.Timeout || total > e.deadline {
		c.stats.DeadlineMisses++
		return leafResult{}
	}
	return leafResult{ok: true, completeAt: total}
}

// simulateNode runs the tier-t aggregator covering leaves [lo, hi) and every
// subtree below it, depth-first. The tier's spine accumulator is reused by
// every node of the tier in turn — the DFS guarantees at most one is open per
// context. On the merge context, visits at the shard tier resolve to the
// precomputed shard slots instead of recursing.
func (c *simCtx) simulateNode(t, lo, hi int) nodeResult {
	if t == c.floor && c.fetch != nil {
		return c.fetch(lo)
	}
	e := c.e
	vec := c.spine[t]
	vec.Reset()
	var weight int64
	arrived, attempted, survivors := 0, 0, 0
	latest := 0.0
	childSpan := spanPow(e.cfg.Fanout, t, e.cfg.Clients)
	for clo := lo; clo < hi; clo += childSpan {
		attempted++
		if t == 0 {
			lr := c.simulateLeaf(clo)
			if !lr.ok {
				continue
			}
			w := int64(e.cfg.Update(clo, e.global, c.scratch))
			if w < 1 {
				c.fail(fmt.Errorf("fleet: client %d returned weight %d < 1", clo, w))
				continue
			}
			vec.AddScaled(float64(w), c.scratch)
			weight += w
			arrived++
			survivors++
			if lr.completeAt > latest {
				latest = lr.completeAt
			}
			continue
		}
		chi := clo + childSpan
		if chi > hi {
			chi = hi
		}
		res := c.simulateNode(t-1, clo, chi)
		if res.completeAt > latest {
			latest = res.completeAt
		}
		if !res.ok {
			continue
		}
		if err := c.merge(vec, t-1, res); err != nil {
			c.fail(fmt.Errorf("fleet: tier %d merge: %w", t, err))
			continue
		}
		weight += res.weight
		arrived++
		survivors += res.survivors
	}

	node := lo / spanPow(e.cfg.Fanout, t+1, e.cfg.Clients)
	ev, forward := fl.CloseTier(e.cfg.TierQuorum, fl.TierGroup{
		Round: e.round, Tier: t, Node: node, TraceID: e.tc.TraceID,
		Arrived: arrived, Attempted: attempted, Weight: weight, Sum: vec,
	})
	switch ev.Kind {
	case ledger.KindSubtreeDrop:
		c.stats.SubtreeDrops++
		c.stats.SubtreeDropLeaves += survivors
	case ledger.KindPartial:
		c.stats.Partials++
		c.stats.WireBytes += ev.WireTxBytes
	}
	if ev.Kind != "" {
		c.ledgerAppend(ev)
	}
	if !forward {
		return nodeResult{completeAt: latest}
	}
	return nodeResult{
		ok: true, weight: weight, survivors: survivors,
		completeAt: latest + e.cfg.TierLatencySeconds,
	}
}

// merge folds the forwarded tier-t node res into dst: a shard fetched by the
// merge context arrives as its snapshot, any other node is still in this
// context's tier-t spine accumulator.
func (c *simCtx) merge(dst *exact.Vec, t int, res nodeResult) error {
	if res.shard != nil {
		return dst.Absorb(*res.shard)
	}
	return dst.AddVec(c.spine[t])
}

func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Engine) ledgerAppend(ev ledger.Event) {
	if e.cfg.Ledger != nil {
		e.cfg.Ledger.Append(ev)
	}
}

// runShards simulates every shard subtree, filling e.shardOuts. Execution
// order is arbitrary (pool scheduling, or a test-injected permutation); the
// indexed slots make the merge phase deterministic regardless.
func (e *Engine) runShards() {
	n := e.cfg.Clients
	run := func(s int) {
		ctx := e.getCtx()
		out := &e.shardOuts[s]
		out.stats = RoundStats{}
		ctx.stats = &out.stats
		ctx.events = out.events[:0]
		ctx.err = nil
		lo := s * e.shardSpan
		hi := lo + e.shardSpan
		if hi > n {
			hi = n
		}
		res := ctx.simulateNode(e.shardTier, lo, hi)
		if res.ok {
			// Snapshot the shard's sum into its own slot so the context can
			// move on to another shard.
			ctx.spine[e.shardTier].SerializeInto(&out.sum)
			res.shard = &out.sum
		}
		out.res = res
		out.events = ctx.events
		out.err = ctx.err
		ctx.stats, ctx.events, ctx.err = nil, nil, nil
		e.putCtx(ctx)
	}
	if e.shardRunner != nil {
		e.shardRunner(e.numShards, run)
		return
	}
	parallel.ForChunkMax(e.numShards, e.cfg.Workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			run(s)
		}
	})
}

// fetchShard is the merge context's shard-tier resolver: it folds shard
// lo/shardSpan's stats into the round stats, replays its buffered ledger
// events (the deterministic sequencer — merge order is DFS order, whatever
// order the shards completed in), surfaces its first error and returns its
// subtree result.
func (e *Engine) fetchShard(lo int) nodeResult {
	out := &e.shardOuts[lo/e.shardSpan]
	if out.err != nil {
		e.fail(out.err)
	}
	e.stats.accumulate(&out.stats)
	if e.cfg.Ledger != nil {
		for _, ev := range out.events {
			e.cfg.Ledger.Append(ev)
		}
	}
	return out.res
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
	root := e.mergeCtx.simulateNode(e.depth, 0, n)
	if e.err != nil {
		e.abort(e.err.Error())
		return e.stats, e.err
	}
	required := int(math.Ceil(e.cfg.Quorum * float64(n)))
	switch {
	case !root.ok || root.weight == 0:
		err := fmt.Errorf("fleet: round %d: no surviving aggregate", e.round)
		e.abort(err.Error())
		return e.stats, err
	case root.survivors < required:
		err := fmt.Errorf("fleet: round %d: %d survivors below quorum %d", e.round, root.survivors, required)
		e.abort(err.Error())
		return e.stats, err
	}

	e.rootVec.Reset()
	if err := e.mergeCtx.merge(e.rootVec, e.depth, root); err != nil {
		e.abort(err.Error())
		return e.stats, fmt.Errorf("fleet: round %d: root merge: %w", e.round, err)
	}
	e.rootVec.RoundTo(e.sum)
	tw := float64(root.weight)
	for j := range e.global {
		e.global[j] = e.sum[j] / tw
	}

	e.stats.Survivors = root.survivors
	e.stats.Dropped = n - root.survivors
	e.stats.TotalWeight = root.weight
	e.stats.VirtualSeconds = root.completeAt + e.cfg.TierLatencySeconds
	e.cfg.Clock.Advance(time.Duration(e.stats.VirtualSeconds * float64(time.Second)))

	e.cfg.Sink.Count(obs.MetricFleetClients, float64(n))
	e.cfg.Sink.Count(obs.MetricFleetVirtualS, e.stats.VirtualSeconds)
	e.cfg.Sink.Count(obs.MetricFleetEnergy, e.stats.EnergyJ)
	e.cfg.Sink.Count(obs.MetricFleetMisses, float64(e.stats.DeadlineMisses))
	e.cfg.Sink.Count(obs.MetricFleetDropped, float64(e.stats.Dropped))
	e.ledgerAppend(ledger.Event{
		Kind: ledger.KindCommit, Round: e.round, TraceID: e.tc.TraceID,
		Selected: n, Survivors: root.survivors, Weight: root.weight,
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
	ctx := &simCtx{
		e: e, scratch: make([]float64, e.cfg.Dim),
		floor: -1, stats: &e.stats,
	}

	acc := exact.NewVec(e.cfg.Dim)
	var weight int64
	for i := 0; i < e.cfg.Clients; i++ {
		lr := ctx.simulateLeaf(i)
		if !lr.ok {
			continue
		}
		w := int64(e.cfg.Update(i, e.global, ctx.scratch))
		if w < 1 {
			return nil, 0, fmt.Errorf("fleet: client %d returned weight %d < 1", i, w)
		}
		acc.AddScaled(float64(w), ctx.scratch)
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
