package main

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/fl"
	"bofl/internal/obs"
	"bofl/internal/parallel"
)

// The wrappers below measure each layer from the outside, by timing calls
// into its public interfaces. They forward every call unchanged, so a traced
// pass commits the same bits as an untraced one.

// clock is a monotonic nanosecond clock shared by the wrappers of one pass.
type clock struct{ epoch time.Time }

func newClock() clock               { return clock{epoch: time.Now()} }
func (c clock) now() int64          { return int64(time.Since(c.epoch)) }
func secs(ns int64) float64         { return float64(ns) / 1e9 }
func (c clock) since(t int64) int64 { return c.now() - t }

// flTrace times fl.Participant.Round and fl.Aggregator.Contribute calls.
// A client's turnstile wait is its Contribute start minus its last Round
// return.
type flTrace struct {
	clk         clock
	slot        map[string]int // client id → index into ret; read-only once built
	ret         []atomic.Int64 // last Round return per client
	participant atomic.Int64   // ns inside Participant.Round
	calls       atomic.Int64
	wait        atomic.Int64 // ns from Round return to Contribute start
	contribute  atomic.Int64 // ns inside Aggregator.Contribute
}

func newFLTrace(clk clock, ids []string) *flTrace {
	t := &flTrace{clk: clk, slot: make(map[string]int, len(ids)), ret: make([]atomic.Int64, len(ids))}
	for i, id := range ids {
		t.slot[id] = i
	}
	return t
}

func (t *flTrace) round(id string, call func() (fl.RoundResponse, error)) (fl.RoundResponse, error) {
	t0 := t.clk.now()
	resp, err := call()
	t1 := t.clk.now()
	t.participant.Add(t1 - t0)
	t.calls.Add(1)
	t.ret[t.slot[id]].Store(t1)
	return resp, err
}

// tracedParticipant wraps an in-process participant.
type tracedParticipant struct {
	fl.Participant
	t *flTrace
}

func (p *tracedParticipant) Round(req fl.RoundRequest) (fl.RoundResponse, error) {
	return p.t.round(p.ID(), func() (fl.RoundResponse, error) { return p.Participant.Round(req) })
}

// tracedAggregator wraps the server's aggregation strategy.
type tracedAggregator struct {
	fl.Aggregator
	t *flTrace
}

func (a *tracedAggregator) Contribute(dst, global []float64, resp *fl.RoundResponse, jobs int) error {
	t0 := a.t.clk.now()
	if s, ok := a.t.slot[resp.ClientID]; ok {
		if r := a.t.ret[s].Load(); r > 0 {
			a.t.wait.Add(t0 - r)
		}
	}
	err := a.Aggregator.Contribute(dst, global, resp, jobs)
	a.t.contribute.Add(a.t.clk.since(t0))
	return err
}

// flLayers sets the serving-plane layer metrics every fl.Server workload
// shares, from the wrapper timings and the server's spans, and the trace
// coverage: the self times of the layers each worker runs, divided by the
// pool width, plus those of the serial phases, over round wall time.
func flLayers(res *result, ft *flTrace, spans spanTotals) {
	l := res.layers
	sec := func(name string) float64 { return res.perRound(secs(spans.ns[name])) }
	l["fl.participant_s"] = res.perRound(secs(ft.participant.Load()))
	l["fl.turnstile_wait_s"] = res.perRound(secs(ft.wait.Load()))
	l["fl.contribute_s"] = res.perRound(secs(ft.contribute.Load()))
	l["fl.fold_s"] = sec(obs.SpanFLFold)
	l["exact.add_s"] = l["fl.fold_s"] - l["fl.contribute_s"]
	l["fl.commit_s"] = sec(obs.SpanFLReport)
	l["fl.execute_s"] = sec(obs.SpanFLExecute)
	l["fl.select_s"] = sec(obs.SpanFLSelect)
	l["fl.configure_s"] = sec(obs.SpanFLConfigure)
	l["fl.tier_fold_s"] = sec(obs.SpanFLTierFold)
	l["fl.attempts"] = res.perRound(float64(spans.count[obs.SpanFLAttempt]))
	// fl_attempt spans enclose the participant call; fl_retry spans are the
	// backoff waits between attempts.
	l["fl.dispatch_s"] = sec(obs.SpanFLAttempt) + sec(obs.SpanFLRetry) - l["fl.participant_s"]
	// fl_round's self time: eligibility, ledger begin and commit, result
	// lists and report metrics.
	l["fl.round_self_s"] = sec(obs.SpanFLRound) - l["fl.select_s"] - l["fl.configure_s"] -
		l["fl.execute_s"] - l["fl.commit_s"]
	w := float64(parallel.Workers())
	if l["fl.execute_s"] > 0 {
		l["fl.dispatch_busy_ratio"] = l["fl.participant_s"] / (l["fl.execute_s"] * w)
	}
	perWorker := l["fl.participant_s"] + l["fl.dispatch_s"] + l["fl.turnstile_wait_s"] +
		l["fl.fold_s"] + l["fl.tier_fold_s"]
	serial := l["fl.round_self_s"] + l["fl.select_s"] + l["fl.configure_s"] + l["fl.commit_s"]
	l["trace.coverage"] = (serial + perWorker/w) / res.perRound(res.roundTotal())
}

// spanTotals sums a sink's recorded spans by name.
type spanTotals struct {
	ns    map[string]int64
	count map[string]int64
}

func readSpans(tel *obs.Telemetry) spanTotals {
	st := spanTotals{ns: map[string]int64{}, count: map[string]int64{}}
	for _, ev := range tel.Tracer.Events() {
		if ev.Instant {
			continue
		}
		st.ns[ev.Name] += ev.Dur
		st.count[ev.Name]++
	}
	return st
}

func (s spanTotals) add(o spanTotals) {
	for k, v := range o.ns {
		s.ns[k] += v
	}
	for k, v := range o.count {
		s.count[k] += v
	}
}

// counter reads a counter the program emitted into tel.
func counter(tel *obs.Telemetry, name string) float64 {
	return tel.Registry.Counter(name, "").Value()
}

// newSink builds a fresh live sink whose trace buffer holds a whole round.
func newSink() *obs.Telemetry {
	tel := obs.NewBoFL(obs.Real{})
	tel.Tracer.SetMaxEvents(1 << 22)
	return tel
}

// coreTrace times the pace controller (core.PaceController) and the
// training executor it drives (core.Executor: an SGD step plus the device
// latency/energy model).
type coreTrace struct {
	clk      clock
	round    atomic.Int64 // ns inside RunRound
	between  atomic.Int64 // ns inside BetweenRounds
	job      atomic.Int64 // ns inside Executor.RunJob
	jobs     atomic.Int64
	explores atomic.Int64 // rounds run outside the exploitation phase
}

// tracedPace wraps a pace controller and forwards SetSink, so the client's
// telemetry still reaches the controller and its optimizer.
type tracedPace struct {
	inner core.PaceController
	t     *coreTrace
}

var _ core.PaceController = (*tracedPace)(nil)

func (p *tracedPace) RunRound(jobs int, deadline float64, exec core.Executor) (core.RoundReport, error) {
	t0 := p.t.clk.now()
	rep, err := p.inner.RunRound(jobs, deadline, &tracedExecutor{inner: exec, t: p.t})
	p.t.round.Add(p.t.clk.since(t0))
	if err == nil && rep.Phase != core.PhaseExploit {
		p.t.explores.Add(1)
	}
	return rep, err
}

func (p *tracedPace) BetweenRounds() (core.MBOReport, error) {
	t0 := p.t.clk.now()
	rep, err := p.inner.BetweenRounds()
	p.t.between.Add(p.t.clk.since(t0))
	return rep, err
}

// SetSink forwards to the wrapped controller when it takes a sink.
func (p *tracedPace) SetSink(s obs.Sink) {
	if ss, ok := p.inner.(interface{ SetSink(obs.Sink) }); ok {
		ss.SetSink(s)
	}
}

type tracedExecutor struct {
	inner core.Executor
	t     *coreTrace
}

func (e *tracedExecutor) RunJob(cfg device.Config) (core.JobResult, error) {
	t0 := e.t.clk.now()
	r, err := e.inner.RunJob(cfg)
	e.t.job.Add(e.t.clk.since(t0))
	e.t.jobs.Add(1)
	return r, err
}

// httpTrace times the client daemon's handler and counts wire bytes.
type httpTrace struct {
	clk     clock
	handler atomic.Int64 // ns inside ClientHandler.ServeHTTP for rounds
	wire    atomic.Int64 // request plus response body bytes
}

// tracedHandler wraps fl.ClientHandler.
type tracedHandler struct {
	inner http.Handler
	t     *httpTrace
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.t.clk.now()
	h.inner.ServeHTTP(w, r)
	if r.URL.Path == "/v1/round" {
		h.t.handler.Add(h.t.clk.since(t0))
	}
}

// countingTransport is the http.RoundTripper installed with
// HTTPParticipant.SetTransport: it counts the bytes each round moves.
type countingTransport struct {
	base http.RoundTripper
	t    *httpTrace
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		c.t.wire.Add(req.ContentLength)
	}
	resp, err := c.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.t.wire}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
