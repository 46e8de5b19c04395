package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/exact"
	"bofl/internal/faultinject"
	"bofl/internal/fl"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/simclock"
)

// serveShape is one in-process serving workload.
type serveShape struct {
	clients, dim int
	tree         *fl.TreeConfig
	quorum       float64
	chaos        bool
	ledger       bool
	checkEvery   int // check every n-th round besides the first digestRound
}

func runServeWide(o options, traced bool) (*result, error) {
	s := serveShape{clients: 1000, dim: 65_536}
	if o.small {
		s.clients, s.dim = 64, 4096
	}
	return runServe(o, traced, s)
}

func runServeTreeChaos(o options, traced bool) (*result, error) {
	s := serveShape{
		clients: 20_000, dim: 1024,
		tree:   &fl.TreeConfig{Fanout: 32, TierQuorum: 0.5},
		quorum: 0.8, chaos: true, ledger: true, checkEvery: 8,
	}
	if o.small {
		s.clients, s.dim = 2000, 256
	}
	return runServe(o, traced, s)
}

// mix is a splitmix64 finalizer over (seed, index): the source of every
// per-client coefficient, so nothing repeats with a short period.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// echoParticipant is a deterministic zero-training client: it scales the
// incoming global model by a per-client factor and reports the per-job
// latency and energy of its device class at the fastest configuration. The
// reference check regenerates its update from the pre-round model.
//
// Like the repository's scale harness it writes the update into the request
// vector, so it allocates nothing. The server retries an attempt with the
// same request, so the echo is idempotent within a round: an attempt after a
// crashed one finds its update already written and returns it as is.
type echoParticipant struct {
	id           string
	scale        float64
	weight       int
	perJob       float64
	energyPerJob float64
	applied      int // last round whose update was written
}

func (p *echoParticipant) ID() string { return p.id }

func (p *echoParticipant) TMinFor(jobs int) (float64, error) { return p.perJob * float64(jobs), nil }

func (p *echoParticipant) update(global, out []float64) {
	for j, v := range global {
		out[j] = v * p.scale
	}
}

func (p *echoParticipant) Round(req fl.RoundRequest) (fl.RoundResponse, error) {
	if p.applied != req.Round {
		p.update(req.Params, req.Params)
		p.applied = req.Round
	}
	dur := p.perJob * float64(req.Jobs)
	return fl.RoundResponse{
		ClientID:    p.id,
		Params:      req.Params,
		NumExamples: p.weight,
		Report:      reportOf(req, dur, p.energyPerJob*float64(req.Jobs)),
	}, nil
}

// reportOf is the round report an echo client sends: its simulated busy time
// and energy against the round deadline.
func reportOf(req fl.RoundRequest, dur, energy float64) core.RoundReport {
	return core.RoundReport{
		Round: req.Round, Jobs: req.Jobs, Deadline: req.Deadline,
		Duration: dur, Energy: energy, DeadlineMet: dur <= req.Deadline,
	}
}

// devicePerf is the per-job latency and energy of the AGX and TX2 models at
// their fastest configuration on the ViT workload.
func devicePerf() ([2][2]float64, error) {
	var out [2][2]float64
	for k, name := range []string{"agx", "tx2"} {
		dev, ok := device.ByName(name)
		if !ok {
			return out, fmt.Errorf("device %q missing", name)
		}
		lat, e, err := dev.Perf(device.ViT, dev.Space().Max())
		if err != nil {
			return out, err
		}
		out[k] = [2]float64{lat, e}
	}
	return out, nil
}

func newEchoParticipants(seed int64, n int) ([]*echoParticipant, error) {
	perf, err := devicePerf()
	if err != nil {
		return nil, err
	}
	ps := make([]*echoParticipant, n)
	for i := range ps {
		h := mix(seed, i)
		ps[i] = &echoParticipant{
			id:           fmt.Sprintf("echo-%d", i),
			scale:        1 + (float64(h%13)-6)/256,
			weight:       1 + int((h>>8)%29),
			perJob:       perf[i%2][0],
			energyPerJob: perf[i%2][1],
		}
	}
	return ps, nil
}

// initialParams draws a float32-valued model from the seed.
func initialParams(seed int64, dim int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, dim)
	for i := range out {
		out[i] = float64(float32(rng.NormFloat64() * 0.05))
	}
	return out
}

// chaosPlan injects drops, crashes and stragglers into every client and makes
// one client in ten flaky (its first attempt of every round drops). It has no
// corrupt faults, so no client is quarantined and the pool never shrinks.
func chaosPlan(seed int64, ids []string) *faultinject.Plan {
	base := faultinject.Profile{
		Drop: 0.04, Crash: 0.02, Straggle: 0.06,
		StraggleMin: 0, StraggleMax: 2 * time.Second,
	}
	flaky := base
	flaky.FlakyAttempts = 1
	plan := &faultinject.Plan{Seed: seed, Default: base, Client: map[string]faultinject.Profile{}}
	for i, id := range ids {
		if mix(seed^0x5eed, i)%10 == 0 {
			plan.Client[id] = flaky
		}
	}
	return plan
}

// serveSystem is one built serving workload.
type serveSystem struct {
	srv  *fl.Server
	byID map[string]*echoParticipant
	led  *ledger.Ledger
	ft   *flTrace
}

func buildServe(o options, s serveShape, traced bool, clk clock) (*serveSystem, error) {
	echoes, err := newEchoParticipants(o.seed, s.clients)
	if err != nil {
		return nil, err
	}
	sys := &serveSystem{byID: make(map[string]*echoParticipant, len(echoes))}
	ids := make([]string, len(echoes))
	for i, p := range echoes {
		ids[i] = p.id
		sys.byID[p.id] = p
	}
	cfg := fl.ServerConfig{
		InitialParams: initialParams(o.seed, s.dim),
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          o.seed,
		Quorum:        s.quorum,
		Tree:          s.tree,
	}
	if s.chaos {
		cfg.FaultPolicy = chaosPlan(o.seed, ids)
		cfg.Retry = fl.RetryConfig{
			MaxAttempts: 2, AttemptTimeout: time.Second,
			Budget: s.clients / 4, Seed: o.seed,
		}
		cfg.Clock = simclock.NewSim(time.Unix(0, 0).UTC())
	}
	if s.ledger {
		// Room for two rounds of attempt, partial and commit events, so the
		// benchmark can read each round's events back.
		sys.led = ledger.New(4*s.clients + 4096)
		cfg.Ledger = sys.led
	}
	if traced {
		sys.ft = newFLTrace(clk, ids)
		cfg.Aggregator = &tracedAggregator{Aggregator: fl.FedAvg{}, t: sys.ft}
	}
	srv, err := fl.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range echoes {
		if traced {
			srv.Register(&tracedParticipant{Participant: p, t: sys.ft})
		} else {
			srv.Register(p)
		}
	}
	sys.srv = srv
	return sys, nil
}

// regenFedAvg is FedAvg fed by regenerated echo updates: BatchAggregate
// hands it each survivor in turn and it rebuilds that survivor's update from
// the pre-round model, so the reference needs O(dim) memory, not
// O(clients × dim). Survivors are known clients (pendingCheck.check).
type regenFedAvg struct {
	fl.FedAvg
	byID    map[string]*echoParticipant
	scratch []float64
}

func (a *regenFedAvg) Contribute(dst, global []float64, resp *fl.RoundResponse, jobs int) error {
	a.byID[resp.ClientID].update(global, a.scratch)
	r := *resp
	r.Params = a.scratch
	return a.FedAvg.Contribute(dst, global, &r, jobs)
}

// pendingCheck is one round's reference check. Checks run after the timed
// loop, so the reference's accumulator never counts toward peak_rss_mb.
type pendingCheck struct {
	round     int
	prev, got []float64
	survivors []string
}

// check recomputes the committed model with fl.BatchAggregate over the
// round's survivors and compares bits.
func (c pendingCheck) check(ref *regenFedAvg, dummy []float64, jobs int) (float64, error) {
	refs := make([]fl.RoundResponse, len(c.survivors))
	for i, id := range c.survivors {
		p, ok := ref.byID[id]
		if !ok {
			return 0, fmt.Errorf("unknown survivor %q", id)
		}
		refs[i] = fl.RoundResponse{ClientID: id, NumExamples: p.weight, Params: dummy}
	}
	t0 := time.Now()
	want, err := fl.BatchAggregate(ref, c.prev, refs, jobs)
	dt := time.Since(t0).Seconds()
	if err != nil {
		return dt, err
	}
	if i := firstBitDiff(want, c.got); i >= 0 {
		return dt, fmt.Errorf("param %d: committed %v, BatchAggregate %v", i, c.got[i], want[i])
	}
	return dt, nil
}

func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// treeTiers is the number of accumulators a tree over n leaves holds: one per
// tier up to the first whose span covers n, plus the root.
func treeTiers(n, fanout int) int {
	tiers := 1
	for span := fanout; span < n; span *= fanout {
		tiers++
	}
	return tiers + 1
}

func runServe(o options, traced bool, s serveShape) (*result, error) {
	res := &result{layers: map[string]float64{}}
	clk := newClock()
	var sys *serveSystem
	build := func() error {
		var err error
		sys, err = buildServe(o, s, traced, clk)
		return err
	}
	if err := timed(res, build); err != nil {
		return nil, err
	}
	rebuild := func() error {
		_, err := buildServe(o, s, traced, clk)
		return err
	}
	srv := sys.srv
	var tap *ledgerTap
	if sys.led != nil {
		tap = newLedgerTap(sys.led)
	}
	ref := &regenFedAvg{byID: sys.byID, scratch: make([]float64, s.dim)}
	dummy := make([]float64, s.dim)

	var (
		prev     []float64
		pending  []pendingCheck
		last     fl.RoundResult
		tel      *obs.Telemetry
		spans    = spanTotals{ns: map[string]int64{}, count: map[string]int64{}}
		batchSec float64
		partials float64
		retries  float64
		retried  int64 // retried updates that committed
	)
	checked := func(r int) bool { return r <= digestRound || (s.checkEvery > 0 && r%s.checkEvery == 0) }
	before := func(r int) error {
		if checked(r) {
			prev = srv.GlobalParams()
		}
		if traced {
			tel = newSink()
			srv.SetSink(tel)
		}
		return nil
	}
	round := func(r int) error {
		var err error
		last, err = srv.RunRound()
		return err
	}
	after := func(r int) error {
		res.attempted += int64(s.clients)
		res.committed += int64(len(last.Responses))
		for _, rep := range last.Reports {
			res.energyJ += rep.Energy
			if !rep.DeadlineMet {
				res.misses++
			}
		}
		if checked(r) {
			c := pendingCheck{round: r, prev: prev, got: srv.GlobalParams()}
			for _, resp := range last.Responses {
				c.survivors = append(c.survivors, resp.ClientID)
			}
			pending = append(pending, c)
		}
		switch {
		case tap == nil:
		case r > digestRound && !traced:
			// Copying a round of events out of the ring is only worth it
			// for the digest or the retry yield.
			res.ledgerEvents += tap.skip()
		default:
			evs, ok := tap.next()
			if !ok {
				return fmt.Errorf("round %d: ledger ring overflowed", r)
			}
			res.ledgerEvents += uint64(len(evs))
			if r <= digestRound {
				if err := tap.digest(evs); err != nil {
					return err
				}
			}
			retried += retriedCommits(evs, last.Responses)
		}
		if r == digestRound {
			res.modelDigest, res.ledgerDigest = modelDigest(srv.GlobalParams()), "off"
			if tap != nil {
				res.ledgerDigest = tap.sum()
			}
		}
		if traced {
			spans.add(readSpans(tel))
			partials += counter(tel, obs.MetricFLPartials)
			retries += counter(tel, obs.MetricFLRetries)
			srv.SetSink(nil)
		}
		return nil
	}
	if err := roundLoop(res, o, 1, rebuild, before, round, after); err != nil {
		return res, err
	}
	for _, c := range pending {
		dt, err := c.check(ref, dummy, 10)
		if err != nil {
			res.mismatch("round %d: %v", c.round, err)
		}
		res.checked++
		batchSec += dt
	}

	extra := fl.FedAvg{}.ExtraDim(s.dim)
	tiers := 1
	if s.tree != nil {
		tiers = treeTiers(s.clients, s.tree.Fanout)
	}
	res.layers["exact.acc_bytes_per_param"] = float64(exact.VecBytes(s.dim+extra)) / float64(s.dim) * float64(tiers)
	res.layers["fl.batch_reference_s"] = batchSec / float64(res.checked)
	if traced {
		flLayers(res, sys.ft, spans)
		res.layers["fl.partials"] = res.perRound(partials)
		res.layers["fl.retries"] = res.perRound(retries)
		if retries > 0 {
			res.layers["fl.retry_yield"] = float64(retried) / retries
		}
	}
	return res, nil
}

// retriedCommits counts the committed updates that needed a retry: clients
// whose successful attempt in this round's ledger events was not their first.
func retriedCommits(evs []ledger.Event, committed []fl.RoundResponse) int64 {
	retried := map[string]bool{}
	for _, ev := range evs {
		if ev.Kind == ledger.KindAttempt && ev.Attempt > 0 && ev.Verdict == ledger.VerdictOK {
			retried[ev.Client] = true
		}
	}
	var n int64
	for _, r := range committed {
		if retried[r.ClientID] {
			n++
		}
	}
	return n
}
