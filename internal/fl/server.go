package fl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bofl/internal/core"
	"bofl/internal/faultinject"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
	"bofl/internal/simclock"
)

// RoundRequest is the server → client message starting one training round
// (step 2 of Figure 1: model and training parameters are sent to selected
// devices).
type RoundRequest struct {
	Round    int       `json:"round"`
	Params   []float64 `json:"params"`
	Jobs     int       `json:"jobs"`
	Deadline float64   `json:"deadlineSeconds"`
	// Trace is the server-minted trace context for this dispatch: the round
	// trace ID plus the per-attempt span the client's work hangs under. It
	// rides both the X-Bofl-Trace header and the frame meta section, so a
	// transport that strips custom headers still carries it.
	Trace obs.TraceContext `json:"trace"`
	// Alg names the round's aggregation protocol (empty means AlgFedAvg);
	// clients adjust their local objective accordingly.
	Alg string `json:"alg,omitempty"`
	// Prox is the FedProx proximal coefficient μ; 0 when unused.
	Prox float64 `json:"prox,omitempty"`
	// Aux is an algorithm-defined auxiliary vector — SCAFFOLD's server
	// control variate c. Shared read-only across the round's dispatches.
	Aux []float64 `json:"aux,omitempty"`
}

// RoundResponse is the client → server report (step 3 of Figure 1).
type RoundResponse struct {
	ClientID    string           `json:"clientId"`
	Params      []float64        `json:"params"`
	NumExamples int              `json:"numExamples"`
	Report      core.RoundReport `json:"report"`
	// Spans are the client's span summaries for this round (training round,
	// config window), timed on the client's local clock. The server grafts
	// them under the attempt span so /v1/telemetry serves one stitched trace
	// per round.
	Spans []obs.SpanSummary `json:"spans,omitempty"`
	// Steps is the number of local optimization steps the client actually ran
	// this round; FedNova's normalized averaging weighs by it. 0 means the
	// nominal job count (clients predating the field).
	Steps int `json:"steps,omitempty"`
	// Aux is the algorithm-defined auxiliary return — SCAFFOLD's
	// control-variate delta Δc_i.
	Aux []float64 `json:"aux,omitempty"`
}

// ErrInvalidUpdate tags an update the server refuses to fold: the wrong
// number of parameters, a non-positive example count, a non-finite parameter
// or auxiliary value, a weighted contribution that overflows, or one the
// aggregation strategy rejects. Like ErrCorruptFrame it drops the sender
// from the round and quarantines it.
var ErrInvalidUpdate = errors.New("fl: invalid update")

// validateUpdate checks a delivered response before it may reach the fold.
// It runs in the dispatch worker, before the update is contributed.
func validateUpdate(resp *RoundResponse, dim int) error {
	switch {
	case len(resp.Params) != dim:
		return fmt.Errorf("%w: client %s returned %d params, want %d",
			ErrInvalidUpdate, resp.ClientID, len(resp.Params), dim)
	case resp.NumExamples <= 0:
		return fmt.Errorf("%w: client %s reports %d examples",
			ErrInvalidUpdate, resp.ClientID, resp.NumExamples)
	}
	if j := firstNonFinite(resp.Params); j >= 0 {
		return fmt.Errorf("%w: client %s param %d is %v", ErrInvalidUpdate, resp.ClientID, j, resp.Params[j])
	}
	if j := firstNonFinite(resp.Aux); j >= 0 {
		return fmt.Errorf("%w: client %s aux %d is %v", ErrInvalidUpdate, resp.ClientID, j, resp.Aux[j])
	}
	return nil
}

// contribute writes resp's fold contribution into dst through the strategy.
// It refuses an update the strategy rejects, and one whose weighted
// contribution overflows: finite parameters times the example weight can
// still round to ±Inf, which would poison every global slot it reaches.
func (s *Server) contribute(dst []float64, resp *RoundResponse) error {
	if err := s.agg.Contribute(dst, s.global, resp, s.cfg.Jobs); err != nil {
		return fmt.Errorf("%w: client %s: %w", ErrInvalidUpdate, resp.ClientID, err)
	}
	if j := firstNonFinite(dst); j >= 0 {
		return fmt.Errorf("%w: client %s contribution %d is %v", ErrInvalidUpdate, resp.ClientID, j, dst[j])
	}
	return nil
}

// firstNonFinite returns the index of the first NaN or ±Inf in x, or -1.
func firstNonFinite(x []float64) int {
	const expMask = 0x7FF << 52
	for j, v := range x {
		if math.Float64bits(v)&expMask == expMask {
			return j
		}
	}
	return -1
}

// refuse stamps the delivering attempt of a refused update with the invalid
// verdict, so the ledger says why the update was not folded, and passes err
// through. A nil err is a no-op.
func refuse(recs []attemptRecord, err error) error {
	if err != nil {
		last := &recs[len(recs)-1]
		last.verdict, last.detail = ledger.VerdictInvalid, err.Error()
	}
	return err
}

// Participant abstracts a reachable FL client — in-process or across HTTP.
type Participant interface {
	// ID returns the client identifier.
	ID() string
	// TMinFor reports the client's minimum feasible round time for the
	// given job count (used for deadline assignment).
	TMinFor(jobs int) (float64, error)
	// Round executes one training round and returns updated parameters.
	Round(req RoundRequest) (RoundResponse, error)
}

// LocalParticipant adapts an in-process *Client to the Participant interface.
type LocalParticipant struct {
	Client *Client
}

var _ Participant = (*LocalParticipant)(nil)

// ID returns the wrapped client's id.
func (p *LocalParticipant) ID() string { return p.Client.ID() }

// TMinFor delegates to the client.
func (p *LocalParticipant) TMinFor(jobs int) (float64, error) { return p.Client.TMin(jobs) }

// Round installs the global parameters, trains, runs the configuration
// window, and returns the updated parameters. When the request carries a
// valid trace context the client's round and config-window phases are
// reported back as span summaries (timed on this process's monotonic clock)
// so the server can stitch them under the attempt span.
func (p *LocalParticipant) Round(req RoundRequest) (RoundResponse, error) {
	if err := p.Client.BeginRound(req); err != nil {
		return RoundResponse{}, err
	}
	var spans []obs.SpanSummary
	t0 := time.Now()
	rep, err := p.Client.TrainRoundCtx(req.Round, req.Jobs, req.Deadline, req.Trace)
	if err != nil {
		return RoundResponse{}, err
	}
	if req.Trace.Valid() {
		spans = append(spans, obs.SpanSummary{
			Name: obs.SpanClientRound, StartNs: 0, DurNs: time.Since(t0).Nanoseconds(),
		})
	}
	t1 := time.Now()
	if _, err := p.Client.ConfigWindowCtx(req.Trace); err != nil {
		return RoundResponse{}, err
	}
	if req.Trace.Valid() {
		spans = append(spans, obs.SpanSummary{
			Name: obs.SpanClientWindow, StartNs: t1.Sub(t0).Nanoseconds(), DurNs: time.Since(t1).Nanoseconds(),
		})
	}
	resp := RoundResponse{
		ClientID:    p.Client.ID(),
		Params:      p.Client.Params(),
		NumExamples: p.Client.NumExamples(),
		Report:      rep,
		Spans:       spans,
	}
	p.Client.FinishRound(&resp)
	return resp, nil
}

// Selector chooses the round's participants from the registered pool.
type Selector interface {
	Select(round int, pool []Participant, k int) []Participant
}

// RandomSelector samples k participants uniformly without replacement — the
// vanilla FL design (§2.1); deterministic per seed.
type RandomSelector struct {
	rng *rand.Rand
	mu  sync.Mutex
	// idx is persistent selection scratch: a permutation of [0, n), reused
	// across rounds and rebuilt only when the pool size changes. Selection is
	// a partial Fisher–Yates over it — O(k) draws and zero per-round
	// allocation beyond the result, instead of a fresh n-permutation.
	idx []int
}

var _ Selector = (*RandomSelector)(nil)

// NewRandomSelector builds a seeded selector.
func NewRandomSelector(seed int64) *RandomSelector {
	return &RandomSelector{rng: rand.New(rand.NewSource(seed))}
}

// Select samples min(k, len(pool)) distinct participants.
func (s *RandomSelector) Select(round int, pool []Participant, k int) []Participant {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(pool)
	if k > n {
		k = n
	}
	if len(s.idx) != n {
		s.idx = make([]int, n)
		for i := range s.idx {
			s.idx[i] = i
		}
	}
	out := make([]Participant, k)
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(n-i)
		s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
		out[i] = pool[s.idx[i]]
	}
	return out
}

// AllSelector selects every registered participant each round (the paper's
// single-device evaluation corresponds to this with one client).
type AllSelector struct{}

var _ Selector = AllSelector{}

// Select returns the whole pool.
func (AllSelector) Select(round int, pool []Participant, k int) []Participant { return pool }

// ServerConfig configures an FL server.
type ServerConfig struct {
	// InitialParams seed the global model.
	InitialParams []float64
	// Jobs is W, the per-round job count each participant must complete.
	Jobs int
	// DeadlineRatio is T_max/T_min for the per-round deadline draw.
	DeadlineRatio float64
	// Selector picks participants; defaults to AllSelector.
	Selector Selector
	// ParticipantsPerRound is passed to the selector (ignored by
	// AllSelector).
	ParticipantsPerRound int
	// Seed drives deadline sampling.
	Seed int64
	// Quorum is the fraction of selected participants whose updates must be
	// aggregated for a round to commit: required = max(1, ⌈Quorum·n⌉). The
	// zero value means 1.0 — every selected participant must be aggregated.
	// Whatever the quorum, a participant that fails is dropped from the
	// round's aggregate (Figure 1's dropout path) and an update that arrives
	// within the attempt timeout is aggregated even when it misses the
	// deadline (the miss is reported, not excluded). Must be in [0, 1].
	Quorum float64
	// Retry bounds the per-participant retry loop; the zero value disables
	// retries (single attempt, unbounded).
	Retry RetryConfig
	// FaultPolicy injects deterministic faults into the participant call
	// path; nil means no injection.
	FaultPolicy faultinject.Policy
	// Clock drives injected delays and retry backoff; defaults to the real
	// clock. Tests pass a *simclock.Sim so chaos runs in virtual time.
	Clock simclock.Clock
	// Ledger, when set, journals every attempt verdict, quarantine, quorum
	// and commit/abort decision the round produces — appended in participant
	// index order by the round's drain, so replays at a fixed seed are
	// byte-identical.
	Ledger *ledger.Ledger
	// Tree, when set, shards aggregation into a hierarchy of intermediate
	// aggregators (see tree.go). nil keeps the flat streaming fold; because
	// both paths accumulate exactly, the committed model is bit-identical
	// either way.
	Tree *TreeConfig
	// Aggregator is the aggregation strategy (see aggregator.go); nil means
	// FedAvg, the legacy hardcoded fold.
	Aggregator Aggregator
}

// Server orchestrates federated rounds: selection, deadline assignment,
// dispatch, and pluggable aggregation. Dispatch is bounded by the shared
// internal/parallel worker pool and updates are folded into a single reused
// accumulator as they arrive, so a round's memory footprint is O(params) —
// independent of the number of selected participants.
type Server struct {
	cfg    ServerConfig
	global []float64
	pool   []Participant
	rng    *rand.Rand
	round  int
	sink   obs.Sink
	caller *roundCaller

	// quarantined holds clients excluded from selection after shipping a
	// corrupt frame; they stay out until ClearQuarantine.
	quarantined map[string]bool
	// eligible caches the quarantine-filtered pool; rebuilt only when the
	// pool or the quarantine set changes, so steady-state rounds at large n
	// pay no per-round rescan or reallocation.
	eligible      []Participant
	eligibleStale bool

	// agg is the aggregation strategy; never nil after NewServer.
	agg Aggregator
	// tree is the tier spine — a single tier for a flat round. It is built on
	// first use and reused across rounds, and spans the extended fold vector:
	// the model dims plus the strategy's statistic slots. treeDrops lists the
	// round's leaf spans [lo, hi) the tier quorum discarded.
	tree      *Spine
	treeDrops [][2]int
	// sum is commit scratch for the rounded exact totals.
	sum []float64
	// bufs recycles the dispatch workers' scratch across chunks and rounds:
	// *[]float64 holding a params copy and a contribution back to back.
	bufs sync.Pool
}

// SetSink installs a telemetry sink. Beyond orchestration metrics, the server
// folds every client-reported RoundReport into the BoFL domain instruments,
// so a server-side scrape shows round energy, deadline misses, phase and
// front size even though the controllers run on the clients.
func (s *Server) SetSink(sink obs.Sink) { s.sink = obs.OrNop(sink) }

// NewServer validates the configuration and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if len(cfg.InitialParams) == 0 {
		return nil, errors.New("fl: server needs initial parameters")
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("fl: server job count %d", cfg.Jobs)
	}
	if cfg.DeadlineRatio < 1 {
		return nil, fmt.Errorf("fl: deadline ratio %v must be ≥ 1", cfg.DeadlineRatio)
	}
	if cfg.Selector == nil {
		cfg.Selector = AllSelector{}
	}
	if cfg.Quorum < 0 || cfg.Quorum > 1 {
		return nil, fmt.Errorf("fl: quorum %v must be in [0, 1]", cfg.Quorum)
	}
	if err := cfg.Tree.validate(); err != nil {
		return nil, err
	}
	agg := cfg.Aggregator
	if agg == nil {
		agg = FedAvg{}
	}
	global := make([]float64, len(cfg.InitialParams))
	copy(global, cfg.InitialParams)
	return &Server{
		cfg:         cfg,
		agg:         agg,
		global:      global,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		sink:        obs.Nop,
		caller:      newRoundCaller(cfg.Retry, cfg.FaultPolicy, cfg.Clock),
		quarantined: make(map[string]bool),
	}, nil
}

// Quarantine excludes a client from all future selection (until cleared).
func (s *Server) Quarantine(id string) {
	if !s.quarantined[id] {
		s.quarantined[id] = true
		s.eligibleStale = true
		s.sink.Count(obs.MetricFLQuarantines, 1)
	}
}

// QuarantinedIDs returns the currently quarantined client ids (unordered).
func (s *Server) QuarantinedIDs() []string {
	out := make([]string, 0, len(s.quarantined))
	for id := range s.quarantined {
		out = append(out, id)
	}
	return out
}

// ClearQuarantine re-admits a client to the selection pool.
func (s *Server) ClearQuarantine(id string) {
	if s.quarantined[id] {
		delete(s.quarantined, id)
		s.eligibleStale = true
	}
}

// Register adds a participant to the pool.
func (s *Server) Register(p Participant) {
	s.pool = append(s.pool, p)
	s.eligibleStale = true
}

// Aggregator returns the server's aggregation strategy (FedAvg when the
// config left it nil).
func (s *Server) Aggregator() Aggregator { return s.agg }

// GlobalParams returns a copy of the current global model parameters.
func (s *Server) GlobalParams() []float64 {
	out := make([]float64, len(s.global))
	copy(out, s.global)
	return out
}

// RoundResult summarizes one orchestrated round.
type RoundResult struct {
	Round    int     `json:"round"`
	Deadline float64 `json:"deadlineSeconds"`
	// TraceID identifies the round's stitched distributed trace — minted
	// deterministically from (server seed, round), so it doubles as the
	// replay-stable join key between /v1/telemetry and /v1/ledger.
	TraceID string `json:"traceId,omitempty"`
	// Responses holds each aggregated participant's round metadata. The
	// parameter vectors are folded into the global model as they arrive and
	// then released, so Params is nil on every entry — retaining them would
	// put round memory back at O(clients × params).
	Responses []RoundResponse    `json:"responses"`
	Reports   []core.RoundReport `json:"-"`
	// Dropped lists the ids of selected participants whose update is not in
	// the aggregate: they failed, shipped a broken update, or fell inside a
	// subtree discarded by the tier quorum. It is a superset of Stragglers
	// and Quarantined.
	Dropped []string `json:"dropped,omitempty"`
	// Stragglers lists participants stripped for exceeding the attempt
	// timeout.
	Stragglers []string `json:"stragglers,omitempty"`
	// Quarantined lists participants excluded this round for shipping a
	// corrupt frame or an invalid update; they stay out of future selection.
	Quarantined []string `json:"quarantined,omitempty"`
}

// RunRound executes one full FL round: select participants, assign a
// deadline (uniform in [T_min, ratio·T_min] of the slowest selected client,
// §6.1), dispatch training in parallel, and aggregate the updates with the
// configured strategy (FedAvg by default, weighted by local dataset size).
func (s *Server) RunRound() (RoundResult, error) {
	if len(s.pool) == 0 {
		return RoundResult{}, errors.New("fl: no registered participants")
	}
	s.round++
	// The round trace context is minted from (seed, round) — not from a
	// random source — so replaying a seeded scenario reproduces the same
	// trace IDs and the ledger journal stays byte-identical.
	tc := obs.MintTrace(s.cfg.Seed, s.round)
	endRound := s.sink.Span(obs.SpanFLRound, tc.SpanLabels()...)
	defer endRound()

	// Quarantined clients are filtered out before selection, so every
	// Selector implementation stays quarantine-safe for free. The filtered
	// view is cached and rebuilt only when the pool or quarantine set
	// changed — one pass, amortized to nothing across steady-state rounds.
	eligible := s.pool
	if len(s.quarantined) > 0 {
		if s.eligibleStale {
			s.eligible = s.eligible[:0]
			for _, p := range s.pool {
				if !s.quarantined[p.ID()] {
					s.eligible = append(s.eligible, p)
				}
			}
			s.eligibleStale = false
		}
		if len(s.eligible) == 0 {
			return RoundResult{}, fmt.Errorf("fl: round %d: every registered participant is quarantined", s.round)
		}
		eligible = s.eligible
	}

	endSelect := s.sink.Span(obs.SpanFLSelect, tc.ChildLabels()...)
	selected := s.cfg.Selector.Select(s.round, eligible, s.cfg.ParticipantsPerRound)
	endSelect()
	if len(selected) == 0 {
		return RoundResult{}, fmt.Errorf("fl: selector chose no participants in round %d", s.round)
	}

	// Deadline: the slowest selected client's T_min scaled by a uniform
	// draw from [1, ratio].
	endConfigure := s.sink.Span(obs.SpanFLConfigure, tc.ChildLabels()...)
	tmin := 0.0
	for _, p := range selected {
		t, err := p.TMinFor(s.cfg.Jobs)
		if err != nil {
			endConfigure()
			return RoundResult{}, fmt.Errorf("fl: tmin of %s: %w", p.ID(), err)
		}
		if t > tmin {
			tmin = t
		}
	}
	lo := deadlineFloor
	if s.cfg.DeadlineRatio < lo {
		lo = s.cfg.DeadlineRatio
	}
	deadline := tmin * (lo + s.rng.Float64()*(s.cfg.DeadlineRatio-lo))

	endConfigure()
	s.ledgerAppend(ledger.Event{
		Kind: ledger.KindRoundBegin, TraceID: tc.TraceID, SpanID: tc.SpanID,
		Deadline: deadline, Selected: len(selected),
	})

	// Execute phase: dispatch through the shared bounded worker pool. Each
	// worker contributes and folds its own updates: exact accumulation
	// (internal/exact) makes the fold independent of order, so workers fold
	// concurrently into disjoint stripes of the open tier-0 accumulator. Only
	// the bookkeeping — ledger appends, tier counters, group closes — runs
	// in participant index order, through a non-blocking drain: a worker
	// deposits its finished slot and moves on, and whichever worker finds
	// the drain idle settles every consecutive deposited slot. The committed
	// model and the ledger are therefore byte-identical for any pool width,
	// completion order or tree shape. A worker holds only its own response
	// and contribution, so at most pool-width parameter vectors are alive at
	// once.
	endExecute := s.sink.Span(obs.SpanFLExecute, tc.ChildLabels()...)
	n := len(selected)
	s.caller.resetBudget()
	// The fold spans the extended vector: model dims plus the strategy's
	// statistic slots, all accumulated exactly so tier partials and quorum
	// renormalization treat them uniformly.
	dim := len(s.global)
	vecDim := dim + s.agg.ExtraDim(dim)
	treeCfg := TreeConfig{} // a flat round: one tier, which is the root
	if s.cfg.Tree != nil {
		treeCfg = *s.cfg.Tree
	}
	if s.tree == nil || s.tree.dim != vecDim || s.tree.cfg != treeCfg {
		s.tree = NewSpine(treeCfg, vecDim, 0, -1, s.closeTier)
	}
	tree := s.tree
	tree.Reset(n, s.round, tc, s.sink)
	s.treeDrops = s.treeDrops[:0]
	// One Configure per round, before dispatch fans out: the strategy's
	// request decoration (algorithm tag, μ, control variate) is
	// round-constant, and calling it here keeps stateful strategies off the
	// concurrent chunk goroutines. Params is only lent to Configure for its
	// dimensionality — each dispatch gets its own private copy below.
	proto := RoundRequest{
		Round:    s.round,
		Params:   s.global,
		Jobs:     s.cfg.Jobs,
		Deadline: deadline,
		Trace:    tc,
	}
	s.agg.Configure(&proto)
	proto.Params = nil
	type slot struct {
		resp RoundResponse   // Params stripped after folding
		err  error           // participant failure: the update is not folded
		recs []attemptRecord // per-attempt verdicts for ledger + trace graft
	}
	slots := make([]slot, n)
	// settle is the index-order half of leaf i, run by the drain only.
	settle := func(i int) {
		// Attempt events land in participant index order regardless of which
		// worker finished first — the property the byte-identical replay
		// guarantee rests on.
		sl := &slots[i]
		clientID := selected[i].ID()
		for _, rec := range sl.recs {
			ev := ledger.Event{
				Kind: ledger.KindAttempt, TraceID: tc.TraceID, SpanID: rec.spanID,
				Client: clientID, Attempt: rec.attempt, Verdict: rec.verdict,
				DelayNs: rec.delayNs, BackoffNs: rec.backoffNs,
				WireTxBytes: rec.wireTx, WireRxBytes: rec.wireRx,
				Detail: rec.detail,
			}
			if rec.verdict == ledger.VerdictOK && sl.err == nil {
				ev.EnergyJoules = sl.resp.Report.Energy
				ev.LatencySeconds = sl.resp.Report.Duration
			}
			s.ledgerAppend(ev)
		}
		if sl.err == nil {
			tree.Tally(int64(sl.resp.NumExamples))
		}
		// Close every tier group whose span ends here, so partial events
		// land in canonical order.
		tree.Advance(i)
	}
	var (
		mu       sync.Mutex
		advanced = sync.NewCond(&mu) // broadcast whenever settled grows
		ready    = make([]bool, n)   // slot i is deposited
		settled  int                 // slots [0, settled) are settled
		draining bool                // a worker is running the drain
	)
	// deposit hands slot i to the drain. If no worker is draining, the
	// caller becomes the drain and settles the run of consecutive deposited
	// slots outside the lock, repeating until it finds the next slot
	// missing; a slot deposited meanwhile is seen by that final check.
	deposit := func(i int) {
		mu.Lock()
		ready[i] = true
		if draining {
			mu.Unlock()
			return
		}
		draining = true
		for {
			lo, hi := settled, settled
			for hi < n && ready[hi] {
				hi++
			}
			if hi == lo {
				draining = false
				mu.Unlock()
				return
			}
			mu.Unlock()
			for j := lo; j < hi; j++ {
				settle(j)
			}
			mu.Lock()
			settled = hi
			advanced.Broadcast()
		}
	}
	parallel.ForChunk(n, func(lo, hi int) {
		// One scratch per chunk: each participant gets a private copy of the
		// global vector, so no two concurrent requests alias the same backing
		// slice (and none alias s.global), and its contribution gets its own
		// fold operand. Both are free again once the leaf has folded.
		buf, _ := s.bufs.Get().(*[]float64)
		if buf == nil || len(*buf) != dim+vecDim {
			b := make([]float64, dim+vecDim)
			buf = &b
		}
		defer s.bufs.Put(buf)
		scratch, contrib := (*buf)[:dim:dim], (*buf)[dim:]
		for i := lo; i < hi; i++ {
			copy(scratch, s.global)
			req := proto
			req.Params = scratch
			resp, recs, err := s.caller.call(selected[i], req, s.sink)
			if err == nil {
				err = refuse(recs, validateUpdate(&resp, dim))
			}
			if err == nil {
				// A tree leaf folds into its tier-0 group, which opens once
				// every leaf before it is settled; a flat round's only group
				// is open from the start.
				if g := tree.GroupStart(i); g > 0 {
					mu.Lock()
					for settled < g {
						advanced.Wait()
					}
					mu.Unlock()
				}
				endFold := s.sink.Span(obs.SpanFLFold, tc.ChildLabels()...)
				if err = refuse(recs, s.contribute(contrib, &resp)); err == nil {
					tree.Fold(i, contrib)
				}
				endFold()
			}
			if err != nil {
				slots[i].err = err
			} else {
				resp.Params, resp.Aux = nil, nil // the update now lives in the accumulator
				slots[i].resp = resp
			}
			slots[i].recs = recs
			deposit(i)
		}
	})
	endExecute()

	// Figure 1's dropout path: keep the survivors, record the rest. Dropped
	// is the catch-all list; stragglers and quarantines are additionally
	// tagged (and, for quarantines, excluded from future selection).
	result := RoundResult{
		Round:     s.round,
		Deadline:  deadline,
		TraceID:   tc.TraceID,
		Responses: make([]RoundResponse, 0, n),
	}
	var firstErr error
	for i := range slots {
		id := selected[i].ID()
		switch err := slots[i].err; {
		case err != nil:
			s.sink.Count(obs.MetricFLRoundErrors, 1)
			if firstErr == nil {
				firstErr = fmt.Errorf("fl: participant %s: %w", id, err)
			}
			result.Dropped = append(result.Dropped, id)
			switch {
			case errors.Is(err, ErrCorruptFrame), errors.Is(err, ErrInvalidUpdate):
				result.Quarantined = append(result.Quarantined, id)
				s.Quarantine(id)
				s.sink.Event(obs.EventFLQuarantine, tc.SpanLabels(obs.L("client", id))...)
				s.ledgerAppend(ledger.Event{
					Kind: ledger.KindQuarantine, TraceID: tc.TraceID, Client: id,
				})
			case errors.Is(err, errStraggler):
				result.Stragglers = append(result.Stragglers, id)
				s.sink.Count(obs.MetricFLStragglerStrips, 1)
			}
		case s.treeDropped(i):
			// A discarded subtree's weight never reached the root, so its
			// leaves are out of the commit even though they folded.
			result.Dropped = append(result.Dropped, id)
		default:
			result.Responses = append(result.Responses, slots[i].resp)
		}
	}
	// Quorum: required = max(1, ⌈q·n⌉) of the *selected* participants must
	// have been folded, with the zero value meaning q = 1.
	q := s.cfg.Quorum
	if q == 0 {
		q = 1
	}
	required := max(1, int(math.Ceil(q*float64(n))))
	if survivors := len(result.Responses); survivors < required {
		err := fmt.Errorf("fl: round %d: quorum not met: %d of %d selected reported, need %d",
			s.round, survivors, n, required)
		if firstErr != nil {
			err = fmt.Errorf("%w: %w", err, firstErr)
		}
		return RoundResult{}, s.abortRound(tc, err)
	}
	if len(result.Responses) < n {
		// The round commits below full participation: the fold's deferred
		// normalization renormalizes the weights over the survivors
		// automatically (see DESIGN.md §8).
		s.sink.Count(obs.MetricFLQuorumRounds, 1)
		s.ledgerAppend(ledger.Event{
			Kind: ledger.KindQuorum, TraceID: tc.TraceID,
			Survivors: len(result.Responses), Selected: n,
		})
	}

	// Report phase: commit the deferred normalization — round the exact sums
	// to float64 once, then hand the totals (model slots plus statistic
	// slots) to the strategy's Commit. Any tree shape's root holds the same
	// exact sums, so this commit is bit-identical on every shape. Nothing
	// before this line mutated the global model, so a failed round leaves it
	// untouched.
	endReport := s.sink.Span(obs.SpanFLReport, tc.ChildLabels()...)
	if len(s.sum) != vecDim {
		s.sum = make([]float64, vecDim)
	}
	root, _, _ := tree.Root()
	root.RoundTo(s.sum)
	if err := s.agg.Commit(s.global, s.sum, s.cfg.Jobs); err != nil {
		endReport()
		return RoundResult{}, s.abortRound(tc, fmt.Errorf("fl: round %d: %w", s.round, err))
	}
	endReport()

	// Stitch client-returned span summaries under their attempt spans. The
	// timestamps are client-local (no cross-process clock alignment is
	// attempted); the trace ID is the join key, so grafted spans still land
	// in the right round trace.
	if g, ok := s.sink.(obs.SpanGrafter); ok {
		for i := range slots {
			spans := slots[i].resp.Spans
			if len(spans) == 0 {
				continue
			}
			parent := tc.SpanID
			if nr := len(slots[i].recs); nr > 0 {
				parent = slots[i].recs[nr-1].spanID
			}
			for _, ss := range spans {
				g.Graft(obs.SpanEvent{
					Name:  ss.Name,
					Start: ss.StartNs,
					Dur:   ss.DurNs,
					Labels: obs.Labels{
						obs.L(obs.LabelTraceID, tc.TraceID),
						obs.L(obs.LabelParentID, parent),
						obs.L("client", slots[i].resp.ClientID),
						obs.L("clock", "client-local"),
					},
				})
			}
		}
	}

	result.Reports = make([]core.RoundReport, 0, len(result.Responses))
	for _, r := range result.Responses {
		result.Reports = append(result.Reports, r.Report)
	}
	s.sink.Count(obs.MetricFLRounds, 1)
	s.sink.Count(obs.MetricFLDropouts, float64(len(result.Dropped)))
	s.recordReports(result.Reports, tc)
	s.ledgerAppend(ledger.Event{
		Kind: ledger.KindCommit, TraceID: tc.TraceID,
		Survivors: len(result.Responses), Selected: n,
	})
	return result, nil
}

// closeTier is the server's side of a tier close: telemetry, the ledger and
// the leaf spans a tier quorum discarded. Deferred normalization means the
// parent of a dropped group renormalizes over its surviving children
// implicitly — the dropped weight simply never reaches the root divisor.
func (s *Server) closeTier(g TierGroup, ev ledger.Event) {
	switch ev.Kind {
	case ledger.KindPartial:
		s.sink.Count(obs.MetricFLPartials, 1)
		s.sink.Count(obs.MetricFLWireTx, float64(ev.WireTxBytes), obs.L("codec", "partial"))
	case ledger.KindSubtreeDrop:
		s.treeDrops = append(s.treeDrops, [2]int{g.Lo, g.Hi})
		s.sink.Count(obs.MetricFLSubtreeDrops, 1)
	}
	if ev.Kind != "" {
		s.ledgerAppend(ev)
	}
}

// treeDropped reports whether leaf i fell inside a discarded subtree.
func (s *Server) treeDropped(i int) bool {
	for _, d := range s.treeDrops {
		if i >= d[0] && i < d[1] {
			return true
		}
	}
	return false
}

// abortRound journals a failed round's terminal event and passes the error
// through, so every post-selection exit leaves a ledger trail.
func (s *Server) abortRound(tc obs.TraceContext, err error) error {
	s.ledgerAppend(ledger.Event{Kind: ledger.KindAbort, TraceID: tc.TraceID, Detail: err.Error()})
	return err
}

// ledgerAppend stamps the current round onto ev and journals it. Safe with a
// nil ledger, so call sites need no enabled/disabled branching.
func (s *Server) ledgerAppend(ev ledger.Event) {
	if s.cfg.Ledger == nil {
		return
	}
	ev.Round = s.round
	s.cfg.Ledger.Append(ev)
}

// recordReports folds the round's client reports into the BoFL domain
// instruments, mirroring what each client's controller records locally. When
// the sink supports exemplars, the round energy/duration observations carry
// the round's trace ID so an outlier histogram sample can be jumped straight
// to its stitched trace.
func (s *Server) recordReports(reports []core.RoundReport, tc obs.TraceContext) {
	if len(reports) == 0 {
		return
	}
	// Counters are additive and gauges are last-wins, so everything except the
	// histogram observations aggregates locally first: at fleet scale a
	// per-report labeled Count would re-render the series key a thousand times
	// a round, and that lookup churn — not the arithmetic — was the dominant
	// cost of the live sink.
	eo, hasExemplars := s.sink.(obs.ExemplarObserver)
	misses := 0
	var phaseEnergy, phaseLatency map[core.Phase]float64
	for _, rep := range reports {
		if hasExemplars {
			eo.ObserveExemplar(obs.MetricRoundEnergy, rep.Energy, tc)
			eo.ObserveExemplar(obs.MetricRoundDuration, rep.Duration, tc)
		} else {
			s.sink.Observe(obs.MetricRoundEnergy, rep.Energy)
			s.sink.Observe(obs.MetricRoundDuration, rep.Duration)
		}
		if !rep.DeadlineMet {
			misses++
		}
		if phaseEnergy == nil {
			phaseEnergy = make(map[core.Phase]float64, 2)
			phaseLatency = make(map[core.Phase]float64, 2)
		}
		phaseEnergy[rep.Phase] += rep.Energy
		phaseLatency[rep.Phase] += rep.Duration
	}
	s.sink.Count(obs.MetricRounds, float64(len(reports)))
	if misses > 0 {
		s.sink.Count(obs.MetricDeadlineMisses, float64(misses))
	}
	last := reports[len(reports)-1]
	s.sink.SetGauge(obs.MetricControllerPhase, float64(last.Phase))
	s.sink.SetGauge(obs.MetricFrontSize, float64(last.FrontSize))
	for ph, e := range phaseEnergy {
		phase := obs.L("phase", ph.String())
		s.sink.Count(obs.MetricPhaseEnergy, e, phase)
		s.sink.Count(obs.MetricPhaseLatency, phaseLatency[ph], phase)
	}
}

// Run executes `rounds` rounds and returns all results.
func (s *Server) Run(rounds int) ([]RoundResult, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("fl: round count %d", rounds)
	}
	out := make([]RoundResult, 0, rounds)
	for r := 0; r < rounds; r++ {
		res, err := s.RunRound()
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
