package fl

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/faultinject"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/simclock"
)

// The chaos suite drives the full serving plane — selection, fault-injected
// dispatch, retry/backoff, quorum aggregation, quarantine — under seeded fault
// plans in virtual time. Every scenario logs its seed; rerun any failure with
//
//	BOFL_CHAOS_SEED=<seed> go test -race -run TestChaos ./internal/fl/
//
// and the exact decision stream replays (fault draws and backoff jitter are
// pure functions of the seed, immune to goroutine scheduling).

const defaultChaosSeed = 20260806

// chaosSeed resolves the suite seed (env override for replays) and logs it.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(defaultChaosSeed)
	if env := os.Getenv("BOFL_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("BOFL_CHAOS_SEED=%q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (replay with BOFL_CHAOS_SEED=%d)", seed, seed)
	return seed
}

// chaosParticipant is a deterministic in-process client whose update depends
// only on its identity, so any change in the surviving set changes the
// aggregate — and identical runs produce bit-identical models.
type chaosParticipant struct {
	id  string
	idx int
}

func (p *chaosParticipant) ID() string                        { return p.id }
func (p *chaosParticipant) TMinFor(jobs int) (float64, error) { return 1 + float64(p.idx)*0.01, nil }
func (p *chaosParticipant) Round(req RoundRequest) (RoundResponse, error) {
	params := make([]float64, len(req.Params))
	for j := range params {
		params[j] = req.Params[j] + float64(p.idx+1)*0.125 + float64(j)*0.0625
	}
	return RoundResponse{
		ClientID:    p.id,
		Params:      params,
		NumExamples: 10 + p.idx,
		Report:      core.RoundReport{Round: req.Round, DeadlineMet: true},
	}, nil
}

func chaosPool(n int) []Participant {
	pool := make([]Participant, n)
	for i := range pool {
		pool[i] = &chaosParticipant{id: fmt.Sprintf("edge-%02d", i), idx: i}
	}
	return pool
}

// chaosServer builds a server over n chaos participants.
func chaosServer(t *testing.T, n int, mut func(*ServerConfig)) *Server {
	t.Helper()
	cfg := ServerConfig{
		InitialParams: []float64{1, 2, 3, 4},
		Jobs:          5,
		DeadlineRatio: 2,
		Seed:          17,
		Clock:         simclock.NewSim(time.Unix(0, 0)),
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range chaosPool(n) {
		srv.Register(p)
	}
	return srv
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestChaosAllHealthyByteIdentical is the compatibility anchor: with a nop
// policy the chaos-configured server (quorum 1.0, retries armed) produces a
// global model bit-identical to the legacy server with no chaos fields at
// all, round after round.
func TestChaosAllHealthyByteIdentical(t *testing.T) {
	chaosSeed(t)
	legacy := chaosServer(t, 8, func(cfg *ServerConfig) { cfg.Clock = nil })
	hardened := chaosServer(t, 8, func(cfg *ServerConfig) {
		cfg.Quorum = 1.0
		cfg.Retry = RetryConfig{MaxAttempts: 3, AttemptTimeout: 10 * time.Second, Seed: 99}
		cfg.FaultPolicy = faultinject.NopPolicy{}
	})
	for r := 1; r <= 5; r++ {
		if _, err := legacy.RunRound(); err != nil {
			t.Fatal(err)
		}
		res, err := hardened.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Dropped)+len(res.Stragglers)+len(res.Quarantined) != 0 {
			t.Fatalf("round %d: healthy fleet reported casualties: %+v", r, res)
		}
		if !bitsEqual(legacy.GlobalParams(), hardened.GlobalParams()) {
			t.Fatalf("round %d: hardened path diverged from legacy aggregate", r)
		}
	}
}

// TestChaosScriptedDropoutsMatchBatchAggregate drops an exact k of n and
// checks the quorum round commits a model bit-identical to the batch FedAvg
// reference over the survivors — the renormalization proof sketch of
// DESIGN.md §8, executed.
func TestChaosScriptedDropoutsMatchBatchAggregate(t *testing.T) {
	chaosSeed(t)
	const n = 10
	// Drop clients 1, 4 and 7 on every attempt of round 1 (k=3 of n=10,
	// above the 0.6 quorum floor of 6 survivors).
	script := faultinject.Scripted{}
	for _, c := range []int{1, 4, 7} {
		for attempt := 0; attempt < 3; attempt++ {
			script[faultinject.Point{
				Layer:   faultinject.LayerParticipant,
				Client:  fmt.Sprintf("edge-%02d", c),
				Round:   1,
				Attempt: attempt,
			}] = faultinject.Decision{Drop: true}
		}
	}
	srv := chaosServer(t, n, func(cfg *ServerConfig) {
		cfg.Quorum = 0.6
		cfg.Retry = RetryConfig{MaxAttempts: 3, Seed: 5}
		cfg.FaultPolicy = script
	})
	tel := obs.NewBoFL(obs.Real{})
	srv.SetSink(tel)

	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != n-3 || len(res.Dropped) != 3 {
		t.Fatalf("survivors %d dropped %d, want 7 and 3", len(res.Responses), len(res.Dropped))
	}

	// Reference: batch FedAvg over exactly the surviving clients' updates.
	initial := chaosServer(t, n, nil).GlobalParams()
	pool := chaosPool(n)
	survivors := make([]RoundResponse, 0, n-3)
	for i, p := range pool {
		if i == 1 || i == 4 || i == 7 {
			continue
		}
		resp, err := p.Round(RoundRequest{Round: 1, Params: initial, Jobs: 5, Deadline: res.Deadline})
		if err != nil {
			t.Fatal(err)
		}
		survivors = append(survivors, resp)
	}
	want, err := BatchAggregate(FedAvg{}, initial, survivors, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(srv.GlobalParams(), want) {
		t.Fatal("quorum round diverged from the batch aggregate over survivors")
	}
	if got := tel.Registry.Counter(obs.MetricFLQuorumRounds, "").Value(); got != 1 {
		t.Errorf("quorum rounds counter %v, want 1", got)
	}
}

// TestChaosStragglerTailStripped hangs two clients past the attempt timeout;
// the round must finalize without them, tag them as stragglers, and advance
// only virtual time.
func TestChaosStragglerTailStripped(t *testing.T) {
	chaosSeed(t)
	clock := simclock.NewSim(time.Unix(0, 0))
	script := faultinject.Scripted{}
	for _, c := range []string{"edge-02", "edge-05"} {
		for attempt := 0; attempt < 2; attempt++ {
			script[faultinject.Point{Layer: faultinject.LayerParticipant, Client: c, Round: 1, Attempt: attempt}] =
				faultinject.Decision{Delay: time.Hour} // far past the timeout
		}
	}
	srv := chaosServer(t, 8, func(cfg *ServerConfig) {
		cfg.Quorum = 0.6
		cfg.Retry = RetryConfig{MaxAttempts: 2, AttemptTimeout: 30 * time.Second, Seed: 3}
		cfg.FaultPolicy = script
		cfg.Clock = clock
	})
	tel := obs.NewBoFL(obs.Real{})
	srv.SetSink(tel)

	start := time.Now()
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("straggler hang consumed real time") // virtual-time guard
	}
	if len(res.Stragglers) != 2 {
		t.Fatalf("stragglers %v, want edge-02 and edge-05", res.Stragglers)
	}
	if len(res.Responses) != 6 {
		t.Fatalf("survivors %d, want 6", len(res.Responses))
	}
	if got := tel.Registry.Counter(obs.MetricFLStragglerStrips, "").Value(); got != 2 {
		t.Errorf("straggler strips counter %v, want 2", got)
	}
	if clock.Now().Equal(time.Unix(0, 0)) {
		t.Error("no virtual time charged for the hung attempts")
	}
}

// TestChaosFlakyClientRecoversViaRetries gives one client two dead attempts
// per round; with three attempts budgeted it must still land in every
// round's aggregate.
func TestChaosFlakyClientRecoversViaRetries(t *testing.T) {
	seed := chaosSeed(t)
	plan := &faultinject.Plan{
		Seed:   seed,
		Client: map[string]faultinject.Profile{"edge-03": {FlakyAttempts: 2}},
	}
	srv := chaosServer(t, 6, func(cfg *ServerConfig) {
		cfg.Quorum = 1.0 // no one may be lost: retries must carry the flake
		cfg.Retry = RetryConfig{MaxAttempts: 3, Seed: seed}
		cfg.FaultPolicy = plan
	})
	tel := obs.NewBoFL(obs.Real{})
	srv.SetSink(tel)

	for r := 1; r <= 4; r++ {
		res, err := srv.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(res.Responses) != 6 || len(res.Dropped) != 0 {
			t.Fatalf("round %d: flaky client lost despite retries: %+v", r, res.Dropped)
		}
	}
	if got := tel.Registry.Counter(obs.MetricFLRetries, "").Value(); got != 8 {
		t.Errorf("retries counter %v, want 8 (2 per round)", got)
	}
}

// TestChaosCorruptFrameQuarantined corrupts one client's frame: the round
// survives, the client is quarantined, and it never reappears in later
// rounds.
func TestChaosCorruptFrameQuarantined(t *testing.T) {
	chaosSeed(t)
	script := faultinject.Scripted{
		{Layer: faultinject.LayerParticipant, Client: "edge-01", Round: 1}: {Corrupt: true},
	}
	srv := chaosServer(t, 5, func(cfg *ServerConfig) {
		cfg.Quorum = 0.6
		cfg.Retry = RetryConfig{MaxAttempts: 3, Seed: 2}
		cfg.FaultPolicy = script
	})
	tel := obs.NewBoFL(obs.Real{})
	srv.SetSink(tel)

	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != "edge-01" {
		t.Fatalf("quarantined %v, want [edge-01]", res.Quarantined)
	}
	if got := tel.Registry.Counter(obs.MetricFLQuarantines, "").Value(); got != 1 {
		t.Errorf("quarantine counter %v, want 1", got)
	}
	for r := 2; r <= 4; r++ {
		res, err := srv.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for _, resp := range res.Responses {
			if resp.ClientID == "edge-01" {
				t.Fatalf("round %d: quarantined client re-selected", r)
			}
		}
		if len(res.Responses) != 4 {
			t.Fatalf("round %d: %d survivors, want the 4 healthy clients", r, len(res.Responses))
		}
	}
	// Re-admission works.
	srv.ClearQuarantine("edge-01")
	res, err = srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 5 {
		t.Errorf("after ClearQuarantine only %d clients reported", len(res.Responses))
	}
}

// runDropoutStorm executes the acceptance scenario — 20 clients, 30% drop
// probability per attempt, quorum 0.6 — and returns the final model plus the
// per-round casualty lists for determinism comparison.
func runDropoutStorm(t *testing.T, seed int64, rounds int) ([]float64, [][]string) {
	t.Helper()
	plan := &faultinject.Plan{Seed: seed, Default: faultinject.Profile{Drop: 0.3}}
	srv := chaosServer(t, 20, func(cfg *ServerConfig) {
		cfg.Quorum = 0.6
		cfg.Retry = RetryConfig{MaxAttempts: 3, Seed: seed}
		cfg.FaultPolicy = plan
	})
	dropped := make([][]string, 0, rounds)
	for r := 1; r <= rounds; r++ {
		res, err := srv.RunRound()
		if err != nil {
			t.Fatalf("round %d did not reach quorum: %v", r, err)
		}
		dropped = append(dropped, res.Dropped)
	}
	return srv.GlobalParams(), dropped
}

// TestChaosDropoutStormMeetsQuorum is the headline acceptance check: with a
// 30%-dropout fault plan over 20 clients, every round completes at quorum
// 0.6 — and the whole storm is bitwise reproducible from its seed.
func TestChaosDropoutStormMeetsQuorum(t *testing.T) {
	seed := chaosSeed(t)
	const rounds = 10

	paramsA, droppedA := runDropoutStorm(t, seed, rounds)
	paramsB, droppedB := runDropoutStorm(t, seed, rounds)

	if !bitsEqual(paramsA, paramsB) {
		t.Fatalf("seed %d: two identical storms diverged bitwise", seed)
	}
	for r := range droppedA {
		if len(droppedA[r]) != len(droppedB[r]) {
			t.Fatalf("seed %d round %d: casualty lists diverged: %v vs %v", seed, r+1, droppedA[r], droppedB[r])
		}
		for i := range droppedA[r] {
			if droppedA[r][i] != droppedB[r][i] {
				t.Fatalf("seed %d round %d: casualty lists diverged: %v vs %v", seed, r+1, droppedA[r], droppedB[r])
			}
		}
	}
	// A different seed must explore a different failure path (different
	// casualties in at least one round) — otherwise the seed isn't wired
	// through.
	_, droppedC := runDropoutStorm(t, seed+1, rounds)
	same := true
	for r := range droppedA {
		if len(droppedA[r]) != len(droppedC[r]) {
			same = false
			break
		}
		for i := range droppedA[r] {
			if droppedA[r][i] != droppedC[r][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("seeds %d and %d produced identical casualty streams", seed, seed+1)
	}
}

// TestChaosServerRestartMidSequence kills the server between rounds and
// rebuilds it from its own global model (the serving-plane analogue of the
// core snapshot restore): the fleet keeps training and the restarted server
// honors the quarantine list it is handed back.
func TestChaosServerRestartMidSequence(t *testing.T) {
	seed := chaosSeed(t)
	script := faultinject.Scripted{
		{Layer: faultinject.LayerParticipant, Client: "edge-02", Round: 1}: {Corrupt: true},
	}
	mkCfg := func(cfg *ServerConfig) {
		cfg.Quorum = 0.6
		cfg.Retry = RetryConfig{MaxAttempts: 2, Seed: seed}
		cfg.FaultPolicy = script
	}
	srvA := chaosServer(t, 6, mkCfg)
	for r := 1; r <= 2; r++ {
		if _, err := srvA.RunRound(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	checkpoint := srvA.GlobalParams()
	quarantined := srvA.QuarantinedIDs()
	if len(quarantined) != 1 {
		t.Fatalf("pre-restart quarantine %v, want one entry", quarantined)
	}

	// "Restart": a fresh server seeded from the checkpointed model and the
	// carried-over quarantine list.
	srvB := chaosServer(t, 6, func(cfg *ServerConfig) {
		mkCfg(cfg)
		cfg.InitialParams = checkpoint
	})
	for _, id := range quarantined {
		srvB.Quarantine(id)
	}
	if !bitsEqual(srvB.GlobalParams(), checkpoint) {
		t.Fatal("restart lost the checkpointed model")
	}
	for r := 1; r <= 2; r++ {
		res, err := srvB.RunRound()
		if err != nil {
			t.Fatalf("post-restart round %d: %v", r, err)
		}
		for _, resp := range res.Responses {
			if resp.ClientID == "edge-02" {
				t.Fatalf("post-restart round %d re-selected the quarantined client", r)
			}
		}
		for _, v := range srvB.GlobalParams() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("post-restart model is not finite")
			}
		}
	}
}

// runLedgerStorm replays the acceptance storm with a round ledger attached
// and returns the journal's exact JSONL bytes.
func runLedgerStorm(t *testing.T, seed int64, rounds int) []byte {
	t.Helper()
	led := ledger.New(0)
	plan := &faultinject.Plan{Seed: seed, Default: faultinject.Profile{Drop: 0.3}}
	srv := chaosServer(t, 20, func(cfg *ServerConfig) {
		cfg.Seed = seed
		cfg.Quorum = 0.6
		cfg.Retry = RetryConfig{MaxAttempts: 3, Seed: seed}
		cfg.FaultPolicy = plan
		cfg.Ledger = led
	})
	for r := 1; r <= rounds; r++ {
		if _, err := srv.RunRound(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosLedgerReplayByteIdentical is the ledger's replay guarantee: two
// storms at the same seed journal byte-identical JSONL (no wall-clock or
// scheduling nondeterminism leaks into any event), and a different seed
// journals a different history.
func TestChaosLedgerReplayByteIdentical(t *testing.T) {
	seed := chaosSeed(t)
	const rounds = 6
	a := runLedgerStorm(t, seed, rounds)
	b := runLedgerStorm(t, seed, rounds)
	if !bytes.Equal(a, b) {
		// Find the first divergent line for the failure message.
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("seed %d: ledgers diverged at line %d:\n a: %s\n b: %s", seed, i+1, la[i], lb[i])
			}
		}
		t.Fatalf("seed %d: ledgers diverged in length: %d vs %d bytes", seed, len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("storm journaled no events")
	}
	c := runLedgerStorm(t, seed+1, rounds)
	if bytes.Equal(a, c) {
		t.Errorf("seeds %d and %d journaled identical ledgers", seed, seed+1)
	}
	// Sanity on content: the journal must hold every structural kind.
	evs, err := ledger.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds[ledger.KindRoundBegin] != rounds || kinds[ledger.KindCommit] != rounds {
		t.Errorf("journal kinds %v, want %d round_begin and commit", kinds, rounds)
	}
	if kinds[ledger.KindAttempt] == 0 {
		t.Error("journal holds no attempt events")
	}
}

// spanningParticipant wraps a chaos participant and reports a client-side
// span summary when the request carries a trace — the in-process stand-in
// for a remote client stamping its local spans.
type spanningParticipant struct{ *chaosParticipant }

func (p *spanningParticipant) Round(req RoundRequest) (RoundResponse, error) {
	resp, err := p.chaosParticipant.Round(req)
	if err == nil && req.Trace.Valid() {
		resp.Spans = []obs.SpanSummary{{Name: obs.SpanClientRound, StartNs: 0, DurNs: 1_000_000}}
	}
	return resp, err
}

// TestChaosStitchedRoundTrace runs one faulty round against a live Telemetry
// sink and asserts the stitched trace is complete: the fl_round root span,
// per-attempt child spans, the fault event with its verdict, and the
// client-grafted span joined by trace ID under its attempt.
func TestChaosStitchedRoundTrace(t *testing.T) {
	seed := chaosSeed(t)
	script := faultinject.Scripted{
		{Layer: faultinject.LayerParticipant, Client: "edge-01", Round: 1, Attempt: 0}: {Drop: true},
	}
	srv := chaosServer(t, 0, func(cfg *ServerConfig) {
		cfg.Quorum = 0.6
		cfg.Retry = RetryConfig{MaxAttempts: 2, Seed: seed}
		cfg.FaultPolicy = script
	})
	for _, p := range chaosPool(4) {
		srv.Register(&spanningParticipant{p.(*chaosParticipant)})
	}
	tel := obs.NewBoFL(obs.Real{})
	srv.SetSink(tel)

	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	want := obs.MintTrace(17, 1)
	if res.TraceID != want.TraceID {
		t.Fatalf("result trace ID %q, want deterministic %q", res.TraceID, want.TraceID)
	}
	evs := tel.Tracer.EventsFor(res.TraceID)
	if len(evs) == 0 {
		t.Fatal("no events stitched under the round trace")
	}
	var rootSpans, attemptSpans, faultEvents, grafted int
	var faultVerdict string
	for _, ev := range evs {
		switch ev.Name {
		case obs.SpanFLRound:
			rootSpans++
			if ev.Labels.Get(obs.LabelSpanID) != want.SpanID {
				t.Errorf("root span ID %q, want %q", ev.Labels.Get(obs.LabelSpanID), want.SpanID)
			}
		case obs.SpanFLAttempt:
			attemptSpans++
			if ev.Labels.Get("client") == "" || ev.Labels.Get("attempt") == "" {
				t.Errorf("attempt span missing client/attempt labels: %v", ev.Labels)
			}
		case obs.EventFLFault:
			faultEvents++
			faultVerdict = ev.Labels.Get("verdict")
		case obs.SpanClientRound:
			if ev.Labels.Get("clock") == "client-local" {
				grafted++
				if ev.Labels.Get(obs.LabelParentID) == "" {
					t.Error("grafted client span has no parent span")
				}
			}
		}
	}
	if rootSpans != 1 {
		t.Errorf("%d fl_round root spans, want 1", rootSpans)
	}
	// 4 clients; edge-01's first attempt drops and its retry lands: 5 total.
	if attemptSpans != 5 {
		t.Errorf("%d fl_attempt spans, want 5", attemptSpans)
	}
	if faultEvents != 1 || faultVerdict != "drop" {
		t.Errorf("fault events %d (verdict %q), want exactly one drop", faultEvents, faultVerdict)
	}
	if grafted != 4 {
		t.Errorf("%d grafted client spans, want 4", grafted)
	}
}
