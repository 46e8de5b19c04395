package fl

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/faultinject"
	"bofl/internal/ml"
	"bofl/internal/simclock"
)

// The scenario matrix sweeps the aggregation plugin layer across the axes the
// paper's deployment regime actually varies: algorithm × data heterogeneity
// (Dirichlet α) × participation bias × fault injection. Every cell asserts
// the three invariants the plugin refactor promised:
//
//  1. run-twice byte-identity at a fixed BOFL_CHAOS_SEED (replayability);
//  2. the streaming and tree folds match a naive batch reference bit for bit,
//     per algorithm (the exact accumulator makes fold shape irrelevant);
//  3. quorum dropout renormalizes with each algorithm's own semantics.
//
// CI's scenario-smoke job runs the reduced selection
// -run 'TestScenarioMatrix/(fedavg|scaffold)/(a0.1|a10)' under -race; the
// full matrix runs here.

// scenarioSpec identifies one cell of the matrix.
type scenarioSpec struct {
	alg    string
	mu     float64 // fedprox proximal coefficient
	alpha  float64 // dirichlet concentration
	biased bool    // power/availability-biased participation
	chaos  bool    // seeded drop/corrupt faults + quorum
}

// scenarioAlgs is every registered aggregator with its cell parameters.
var scenarioAlgs = []struct {
	name string
	mu   float64
}{
	{AlgFedAvg, 0},
	{AlgFedProx, 0.1},
	{AlgFedNova, 0},
	{AlgScaffold, 0},
}

// recorderParticipant captures a deep copy of each response it produces so a
// cell can rebuild the exact survivor set for the batch reference. The copy
// is taken before the fault layer gets a chance to corrupt the frame.
type recorderParticipant struct {
	inner Participant
	mu    sync.Mutex
	got   map[int]RoundResponse
}

func (p *recorderParticipant) ID() string                        { return p.inner.ID() }
func (p *recorderParticipant) TMinFor(jobs int) (float64, error) { return p.inner.TMinFor(jobs) }

func (p *recorderParticipant) Round(req RoundRequest) (RoundResponse, error) {
	resp, err := p.inner.Round(req)
	if err == nil {
		cp := resp
		cp.Params = append([]float64(nil), resp.Params...)
		cp.Aux = append([]float64(nil), resp.Aux...)
		p.mu.Lock()
		p.got[req.Round] = cp
		p.mu.Unlock()
	}
	return resp, err
}

// scenarioClient is algClient over an externally partitioned shard.
func scenarioClient(t *testing.T, id string, data []ml.Example, seed int64, stepScale int) *Client {
	t.Helper()
	dev := device.JetsonAGX()
	model, err := ml.NewMLP(8, 8, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewPerformant(dev.Space())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		ID:         id,
		Device:     dev,
		Workload:   device.ViT,
		Model:      model,
		Data:       data,
		BatchSize:  8,
		LearnRate:  0.2,
		Controller: ctrl,
		Seed:       seed,
		StepScale:  stepScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// scenarioWeights maps the fleet's client ids to participation weights: the
// well-provisioned high-index clients are more available, and the bias term
// skews selection toward low-power devices, as an energy-aware server would.
func scenarioWeights(t *testing.T, n int) map[string]float64 {
	t.Helper()
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		avail := 0.35 + 0.07*float64(i)
		powerW := 4.0 + 3.0*float64(i%4)
		w, err := device.ParticipationWeight(avail, powerW, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("s%d", i)] = w
	}
	return out
}

// roundOutcome is one round's observable result: either an abort (err) or a
// committed model plus the ids whose updates were folded.
type roundOutcome struct {
	err       string
	params    []float64
	survivors []string
}

// runScenario builds a fresh federation for the cell and runs it, checking
// the streaming (or tree) fold against the batch reference after every
// committed round. Everything — clients, selector, aggregator state, fault
// plan — is reconstructed per call, so two calls with the same arguments must
// produce identical outcome streams.
func runScenario(t *testing.T, spec scenarioSpec, tree bool, seed int64, rounds int) []roundOutcome {
	t.Helper()
	const nClients = 8
	examples, err := ml.Blobs(240, 8, 4, 0.6, 7)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := ml.PartitionNonIID(examples, nClients, 4, spec.alpha, 11)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recorderParticipant, nClients)
	var initial []float64
	for i := range recs {
		c := scenarioClient(t, fmt.Sprintf("s%d", i), shards[i], int64(i+1), 1+i%3)
		if i == 0 {
			initial = c.Params()
		}
		recs[i] = &recorderParticipant{
			inner: &LocalParticipant{Client: c},
			got:   make(map[int]RoundResponse),
		}
	}
	cfg := ServerConfig{
		InitialParams: initial,
		Jobs:          2,
		DeadlineRatio: 2,
		Seed:          42,
		Aggregator:    mustAgg(t, spec.alg, spec.mu),
	}
	if tree {
		cfg.Tree = &TreeConfig{Fanout: 3}
	}
	if spec.biased {
		weights := scenarioWeights(t, nClients)
		cfg.Selector = NewBiasedSelector(1234, func(id string) float64 { return weights[id] })
		cfg.ParticipantsPerRound = 5
	}
	if spec.chaos {
		cfg.Quorum = 0.5
		cfg.Clock = simclock.NewSim(time.Unix(0, 0))
		cfg.FaultPolicy = &faultinject.Plan{
			Seed:    seed,
			Default: faultinject.Profile{Drop: 0.15, Corrupt: 0.05},
		}
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		srv.Register(r)
	}

	out := make([]roundOutcome, 0, rounds)
	for r := 1; r <= rounds; r++ {
		before := srv.GlobalParams()
		// SCAFFOLD's commit mutates the server control variate, so the batch
		// reference replays on a pre-round clone; the other aggregators are
		// stateless and a fresh instance is equivalent.
		var batchAgg Aggregator
		if sc, ok := srv.Aggregator().(*Scaffold); ok {
			batchAgg = sc.Clone()
		} else {
			batchAgg = mustAgg(t, spec.alg, spec.mu)
		}
		res, err := srv.RunRound()
		if err != nil {
			out = append(out, roundOutcome{err: err.Error()})
			continue
		}
		survivors := make([]RoundResponse, 0, len(res.Responses))
		ids := make([]string, 0, len(res.Responses))
		for _, meta := range res.Responses {
			resp, ok := recordedResponse(recs, meta.ClientID, r)
			if !ok {
				t.Fatalf("round %d: survivor %s has no recorded response", r, meta.ClientID)
			}
			survivors = append(survivors, resp)
			ids = append(ids, meta.ClientID)
		}
		batch, err := BatchAggregate(batchAgg, before, survivors, cfg.Jobs)
		if err != nil {
			t.Fatalf("round %d: batch reference: %v", r, err)
		}
		got := srv.GlobalParams()
		if !bitsEqual(got, batch) {
			t.Fatalf("round %d: %s fold diverged from batch reference over %d survivors",
				r, map[bool]string{false: "streaming", true: "tree"}[tree], len(survivors))
		}
		out = append(out, roundOutcome{params: got, survivors: ids})
	}
	return out
}

func recordedResponse(recs []*recorderParticipant, id string, round int) (RoundResponse, bool) {
	for _, rec := range recs {
		if rec.ID() != id {
			continue
		}
		rec.mu.Lock()
		resp, ok := rec.got[round]
		rec.mu.Unlock()
		return resp, ok
	}
	return RoundResponse{}, false
}

// compareOutcomes requires two runs' outcome streams to be byte-identical:
// same aborts, same survivor sets, same committed bits.
func compareOutcomes(t *testing.T, a, b []roundOutcome, nameA, nameB string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s ran %d rounds, %s ran %d", nameA, len(a), nameB, len(b))
	}
	for r := range a {
		if a[r].err != b[r].err {
			t.Fatalf("round %d: %s aborted with %q, %s with %q", r+1, nameA, a[r].err, nameB, b[r].err)
		}
		if !bitsEqual(a[r].params, b[r].params) {
			t.Fatalf("round %d: %s and %s committed different bits", r+1, nameA, nameB)
		}
		if len(a[r].survivors) != len(b[r].survivors) {
			t.Fatalf("round %d: survivor counts differ: %v vs %v", r+1, a[r].survivors, b[r].survivors)
		}
		for i := range a[r].survivors {
			if a[r].survivors[i] != b[r].survivors[i] {
				t.Fatalf("round %d: survivor sets differ: %v vs %v", r+1, a[r].survivors, b[r].survivors)
			}
		}
	}
}

// TestScenarioMatrix is the full sweep. Subtests are named
// alg/aα/selector/weather so CI can carve out reduced selections with -run.
func TestScenarioMatrix(t *testing.T) {
	seed := chaosSeed(t)
	const rounds = 2
	for _, alg := range scenarioAlgs {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			for _, alpha := range []float64{0.1, 1, 10} {
				alpha := alpha
				t.Run(fmt.Sprintf("a%v", alpha), func(t *testing.T) {
					for _, biased := range []bool{false, true} {
						biased := biased
						t.Run(map[bool]string{false: "uniform", true: "biased"}[biased], func(t *testing.T) {
							for _, chaos := range []bool{false, true} {
								chaos := chaos
								t.Run(map[bool]string{false: "calm", true: "chaos"}[chaos], func(t *testing.T) {
									t.Parallel()
									spec := scenarioSpec{alg.name, alg.mu, alpha, biased, chaos}
									first := runScenario(t, spec, false, seed, rounds)
									again := runScenario(t, spec, false, seed, rounds)
									compareOutcomes(t, first, again, "run1", "run2")
									treeRun := runScenario(t, spec, true, seed, rounds)
									compareOutcomes(t, first, treeRun, "flat", "tree")
									if !chaos {
										for r, o := range first {
											if o.err != "" {
												t.Fatalf("calm cell aborted round %d: %s", r+1, o.err)
											}
										}
									}
								})
							}
						})
					}
				})
			}
		})
	}
}

// TestScenarioMatrixSchedulerInvariance reruns a representative chaos cell at
// GOMAXPROCS 1 and 4: goroutine scheduling must not leak into the committed
// bits (the ordered turnstile and seed-pure fault draws are the guarantees
// under test).
func TestScenarioMatrixSchedulerInvariance(t *testing.T) {
	seed := chaosSeed(t)
	spec := scenarioSpec{alg: AlgScaffold, alpha: 0.1, biased: true, chaos: true}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	oneFlat := runScenario(t, spec, false, seed, 2)
	oneTree := runScenario(t, spec, true, seed, 2)
	runtime.GOMAXPROCS(4)
	fourFlat := runScenario(t, spec, false, seed, 2)
	fourTree := runScenario(t, spec, true, seed, 2)
	compareOutcomes(t, oneFlat, fourFlat, "procs=1", "procs=4")
	compareOutcomes(t, oneTree, fourTree, "procs=1/tree", "procs=4/tree")
	compareOutcomes(t, oneFlat, oneTree, "flat", "tree")
}

// TestScenarioQuorumRenormalization scripts a dropout under quorum for every
// algorithm and pins the committed model to the batch reference over the
// survivors only — FedAvg re-divides by surviving weight, FedNova recomputes
// τ_eff over surviving paces, SCAFFOLD means the variate over the surviving
// count. A reference over ALL selected clients must NOT match, or the
// renormalization is vacuous.
func TestScenarioQuorumRenormalization(t *testing.T) {
	const jobs = 3
	for _, alg := range scenarioAlgs {
		alg := alg
		t.Run(alg.name, func(t *testing.T) {
			stubs := []*algStub{
				{id: "q0", params: []float64{1, 0}, n: 10, steps: 3, aux: []float64{1, 0}},
				{id: "q1", params: []float64{0, 1}, n: 20, steps: 6, aux: []float64{0, 1}},
				{id: "q2", params: []float64{4, 4}, n: 40, steps: 9, aux: []float64{2, 2}},
				{id: "q3", params: []float64{1, 1}, n: 10, steps: 3, aux: []float64{-1, 1}},
				{id: "q4", params: []float64{2, 0}, n: 30, steps: 6, aux: []float64{1, -1}},
			}
			srv, err := NewServer(ServerConfig{
				InitialParams: []float64{0, 0},
				Jobs:          jobs,
				DeadlineRatio: 2,
				Seed:          5,
				Quorum:        0.5,
				Clock:         simclock.NewSim(time.Unix(0, 0)),
				FaultPolicy: faultinject.Scripted{
					{Layer: faultinject.LayerParticipant, Client: "q2", Round: 1}: {Drop: true},
				},
				Aggregator: mustAgg(t, alg.name, alg.mu),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stubs {
				srv.Register(s)
			}
			res, err := srv.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			dropped := false
			for _, id := range res.Dropped {
				dropped = dropped || id == "q2"
			}
			if !dropped {
				t.Fatalf("q2 not dropped: %v", res.Dropped)
			}
			survivors := append(append([]*algStub(nil), stubs[:2]...), stubs[3:]...)
			want, err := BatchAggregate(mustAgg(t, alg.name, alg.mu), []float64{0, 0},
				algStubResponses(t, survivors, 1, jobs), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if got := srv.GlobalParams(); !bitsEqual(got, want) {
				t.Fatalf("committed %v, want survivor-renormalized %v", got, want)
			}
			naive, err := BatchAggregate(mustAgg(t, alg.name, alg.mu), []float64{0, 0},
				algStubResponses(t, stubs, 1, jobs), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if bitsEqual(srv.GlobalParams(), naive) {
				t.Fatal("dropout did not change the aggregate — renormalization untested")
			}
		})
	}
}
