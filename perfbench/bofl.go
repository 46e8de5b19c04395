package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/exact"
	"bofl/internal/fl"
	"bofl/internal/ilp"
	"bofl/internal/ml"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
)

// boflShape sizes the bofl-http workload. Each episode builds fresh clients
// and runs a fixed number of rounds: about two random-exploration rounds,
// about eight Pareto-construction rounds whose clients fit GPs and scan EHVI
// between rounds, and exploitation rounds after that. Each episode draws its
// own seed from the run's seed, so a run averages over many controller
// trajectories rather than replaying one. Episodes are long enough that
// exploitation rounds are a clear majority: round_s.p50 then sits inside
// their cluster instead of on the edge between the two kinds of round, where
// the share of exploration rounds a seed happens to draw would move it.
type boflShape struct {
	clients, rounds, jobs int
}

// capturingParticipant keeps a copy of the last update its client returned,
// which the reference check folds. Embedding the concrete HTTP participant
// keeps its wire accounting visible to the server's ledger.
type capturingParticipant struct {
	*fl.HTTPParticipant
	t      *flTrace // nil when untraced
	params []float64
}

func (p *capturingParticipant) Round(req fl.RoundRequest) (fl.RoundResponse, error) {
	call := func() (fl.RoundResponse, error) { return p.HTTPParticipant.Round(req) }
	var resp fl.RoundResponse
	var err error
	if p.t != nil {
		resp, err = p.t.round(p.ID(), call)
	} else {
		resp, err = call()
	}
	if err == nil {
		p.params = append(p.params[:0], resp.Params...)
	}
	return resp, err
}

// boflClient builds one client the way cmd/flclient does: an MLP 8-16-4 on
// 256 Blobs examples, paced by a BoFL controller with τ = 5 s, on an AGX or
// TX2 device model.
func boflClient(seed int64, i int, ct *coreTrace) (*fl.Client, error) {
	devName := []string{"agx", "tx2"}[i%2]
	dev, ok := device.ByName(devName)
	if !ok {
		return nil, fmt.Errorf("device %q missing", devName)
	}
	cseed := seed*1000 + int64(i) + 1
	model, err := ml.NewMLP(8, 16, 4, 42)
	if err != nil {
		return nil, err
	}
	data, err := ml.Blobs(256, 8, 4, 0.6, cseed)
	if err != nil {
		return nil, err
	}
	ctl, err := core.New(dev.Space(), core.Options{Seed: cseed, Tau: 5})
	if err != nil {
		return nil, err
	}
	var pace core.PaceController = ctl
	if ct != nil {
		pace = &tracedPace{inner: ctl, t: ct}
	}
	return fl.NewClient(fl.ClientConfig{
		ID: boflClientID(i), Device: dev, Workload: device.ViT,
		Model: model, Data: data, BatchSize: 32, LearnRate: 0.15,
		Controller: pace, Seed: cseed,
	})
}

func boflClientID(i int) string { return fmt.Sprintf("bofl-%d", i) }

// boflEpisode is one built federation.
type boflEpisode struct {
	srv       *fl.Server
	led       *ledger.Ledger
	byID      map[string]*capturingParticipant
	listeners []*httptest.Server
	transport *http.Transport
}

func (e *boflEpisode) close() {
	for _, ts := range e.listeners {
		ts.Close()
	}
	e.transport.CloseIdleConnections()
}

// httpTransport is the keep-alive transport every participant of an episode
// shares, configured like the serving plane's own.
func httpTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
}

// boflTrace is a traced pass's instrumentation, shared by its episodes.
type boflTrace struct {
	fl        *flTrace
	core      *coreTrace
	http      *httpTrace
	clientTel *obs.Telemetry // the clients' sink, read once at the end
}

// buildBofl builds one episode's federation; tr is nil when untraced.
func buildBofl(seed int64, s boflShape, tr *boflTrace) (*boflEpisode, error) {
	ep := &boflEpisode{transport: httpTransport(), byID: map[string]*capturingParticipant{}}
	var initial []float64
	var ct *coreTrace
	if tr != nil {
		ct = tr.core
	}
	for i := 0; i < s.clients; i++ {
		c, err := boflClient(seed, i, ct)
		if err != nil {
			ep.close()
			return nil, err
		}
		if i == 0 {
			initial = c.Params()
		}
		var h http.Handler = fl.NewClientHandler(c)
		if tr != nil {
			c.SetSink(tr.clientTel)
			h = &tracedHandler{inner: h, t: tr.http}
		}
		ep.listeners = append(ep.listeners, httptest.NewServer(h))
	}
	ep.led = ledger.New(0)
	cfg := fl.ServerConfig{
		InitialParams: initial,
		Jobs:          s.jobs,
		DeadlineRatio: 2,
		Seed:          seed,
		Ledger:        ep.led,
	}
	var ft *flTrace
	if tr != nil {
		ft = tr.fl
		cfg.Aggregator = &tracedAggregator{Aggregator: fl.FedAvg{}, t: ft}
	}
	srv, err := fl.NewServer(cfg)
	if err != nil {
		ep.close()
		return nil, err
	}
	for _, ts := range ep.listeners {
		hp, err := fl.DialParticipant(ts.URL, time.Minute)
		if err != nil {
			ep.close()
			return nil, err
		}
		if hp.Codec() != fl.CodecBinary {
			ep.close()
			return nil, fmt.Errorf("%s negotiated %s, want %s", ts.URL, hp.Codec(), fl.CodecBinary)
		}
		var rt http.RoundTripper = ep.transport
		if tr != nil {
			rt = &countingTransport{base: ep.transport, t: tr.http}
		}
		hp.SetTransport(rt)
		p := &capturingParticipant{HTTPParticipant: hp, t: ft}
		ep.byID[hp.ID()] = p
		srv.Register(p)
	}
	ep.srv = srv
	return ep, nil
}

func runBoflHTTP(o options, traced bool) (*result, error) {
	s := boflShape{clients: 16, rounds: 48, jobs: 100}
	if o.small {
		s.clients, s.rounds, s.jobs = 4, 5, 40
	}
	res := &result{layers: map[string]float64{}}
	var tr *boflTrace
	if traced {
		clk := newClock()
		ids := make([]string, s.clients)
		for i := range ids {
			ids[i] = boflClientID(i)
		}
		tr = &boflTrace{
			fl: newFLTrace(clk, ids), core: &coreTrace{clk: clk}, http: &httpTrace{clk: clk},
			clientTel: newSink(),
		}
	}

	var (
		ep                  *boflEpisode
		tap                 *ledgerTap
		prev                []float64
		last                fl.RoundResult
		tel                 *obs.Telemetry
		spans               = spanTotals{ns: map[string]int64{}, count: map[string]int64{}}
		batchSec            float64
		ilpSolves, ilpNodes uint64
		ilp0                ilp.SolverStats
	)
	var seed int64 // the current episode's
	rebuild := func() error {
		spare, err := buildBofl(seed, s, tr)
		if err != nil {
			return err
		}
		spare.close()
		return nil
	}
	closeEpisode := func() {
		if ep != nil {
			ep.close()
			ep = nil
		}
	}
	before := func(r int) error {
		if (r-1)%s.rounds == 0 {
			closeEpisode()
			seed = int64(mix(o.seed, (r-1)/s.rounds) >> 1)
			if err := timed(res, func() error {
				var err error
				ep, err = buildBofl(seed, s, tr)
				return err
			}); err != nil {
				return err
			}
			tap = newLedgerTap(ep.led)
			tap.skipRx = true
		}
		prev = ep.srv.GlobalParams()
		if traced {
			tel = newSink()
			ep.srv.SetSink(tel)
		}
		ilp0 = ilp.Stats()
		return nil
	}
	round := func(r int) error {
		var err error
		last, err = ep.srv.RunRound()
		return err
	}
	after := func(r int) error {
		st := ilp.Stats()
		ilpSolves += st.Solves - ilp0.Solves
		ilpNodes += st.Nodes - ilp0.Nodes
		res.attempted += int64(s.clients)
		res.committed += int64(len(last.Responses))
		refs := make([]fl.RoundResponse, len(last.Responses))
		for i, r := range last.Responses {
			res.energyJ += r.Report.Energy
			if !r.Report.DeadlineMet {
				res.misses++
			}
			refs[i] = fl.RoundResponse{ClientID: r.ClientID, NumExamples: r.NumExamples, Params: ep.byID[r.ClientID].params}
		}
		t0 := time.Now()
		want, err := fl.BatchAggregate(fl.FedAvg{}, prev, refs, s.jobs)
		batchSec += time.Since(t0).Seconds()
		res.checked++
		if err != nil {
			res.mismatch("round %d: BatchAggregate: %v", r, err)
		} else if i := firstBitDiff(want, ep.srv.GlobalParams()); i >= 0 {
			res.mismatch("round %d: committed model differs from BatchAggregate at param %d", r, i)
		}
		if traced {
			spans.add(readSpans(tel))
			ep.srv.SetSink(nil)
		}
		evs, ok := tap.next()
		if !ok {
			return fmt.Errorf("round %d: ledger ring overflowed", r)
		}
		res.ledgerEvents += uint64(len(evs))
		if err := tap.digest(evs); err != nil {
			return err
		}
		if r == s.rounds {
			res.modelDigest, res.ledgerDigest = modelDigest(ep.srv.GlobalParams()), tap.sum()
		}
		return nil
	}
	err := roundLoop(res, o, s.rounds, rebuild, before, round, after)
	closeEpisode()
	if err != nil {
		return res, err
	}

	dim := len(prev)
	res.layers["exact.acc_bytes_per_param"] = float64(exact.VecBytes(dim+fl.FedAvg{}.ExtraDim(dim))) / float64(dim)
	res.layers["fl.batch_reference_s"] = batchSec / float64(res.checked)
	if traced {
		flLayers(res, tr.fl, spans)
		client := readSpans(tr.clientTel)
		sec := func(name string) float64 { return res.perRound(secs(client.ns[name])) }
		cnt := func(name string) float64 { return res.perRound(float64(client.count[name])) }
		ct, ht := tr.core, tr.http
		l := res.layers
		l["fl.handler_s"] = res.perRound(secs(ht.handler.Load()))
		l["fl.transport_s"] = l["fl.participant_s"] - l["fl.handler_s"]
		l["core.round_s"] = res.perRound(secs(ct.round.Load()))
		l["core.between_s"] = res.perRound(secs(ct.between.Load()))
		l["ml.job_s"] = res.perRound(secs(ct.job.Load()))
		l["ml.jobs"] = res.perRound(float64(ct.jobs.Load()))
		l["core.decide_s"] = l["core.round_s"] - l["ml.job_s"]
		l["fl.handler_self_s"] = l["fl.handler_s"] - l["core.round_s"] - l["core.between_s"]
		if calls := tr.fl.calls.Load(); calls > 0 {
			l["fl.wire_bytes_per_update"] = float64(ht.wire.Load()) / float64(calls)
		}
		l["gp.fit_s"] = sec(obs.SpanGPFit)
		l["gp.fits"] = cnt(obs.SpanGPFit)
		l["mobo.ehvi_scan_s"] = sec(obs.SpanEHVIScan)
		l["mobo.scans"] = cnt(obs.SpanEHVIScan)
		l["ilp.solve_s"] = sec(obs.SpanILPSolve)
		l["ilp.solves"] = res.perRound(float64(ilpSolves))
		l["ilp.nodes"] = res.perRound(float64(ilpNodes))
		l["core.explore_rounds"] = res.perRound(float64(ct.explores.Load()))
	}
	return res, nil
}
