package fl

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/parallel"
)

// mathParticipant is a cheap deterministic participant: its update is a pure
// function of the incoming global vector and its own identity, so expected
// round results can be computed independently of scheduling.
type mathParticipant struct {
	id    string
	idx   int
	num   int
	sleep time.Duration // scrambles completion order vs index order
	miss  bool
	fail  bool
}

func (p *mathParticipant) ID() string                        { return p.id }
func (p *mathParticipant) TMinFor(jobs int) (float64, error) { return float64(jobs), nil }

// update is the participant's deterministic "training" step.
func (p *mathParticipant) update(global []float64) []float64 {
	scale := 1 + float64(p.idx%7)/8
	shift := float64(p.idx%5) / 16
	out := make([]float64, len(global))
	for i, v := range global {
		out[i] = v*scale + shift
	}
	return out
}

func (p *mathParticipant) Round(req RoundRequest) (RoundResponse, error) {
	if p.sleep > 0 {
		time.Sleep(p.sleep)
	}
	if p.fail {
		return RoundResponse{}, fmt.Errorf("%s: dropped", p.id)
	}
	return RoundResponse{
		ClientID:    p.id,
		Params:      p.update(req.Params),
		NumExamples: p.num,
		Report:      core.RoundReport{Round: req.Round, DeadlineMet: !p.miss},
	}, nil
}

func newMathServer(t *testing.T, dim int, quorum float64) *Server {
	t.Helper()
	init := make([]float64, dim)
	for i := range init {
		init[i] = math.Sin(float64(i + 1)) // irrational-ish, exercises FP order
	}
	srv, err := NewServer(ServerConfig{
		InitialParams: init,
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          9,
		Quorum:        quorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestStreamingMatchesBatchAggregate checks the tentpole invariant: the
// streaming index-order fold produces a global model bitwise-identical to the
// batch aggregate over the same surviving responses — with a dropout and a
// deadline miss in the mix and completion order deliberately scrambled (later
// indices finish first under a 4-wide pool). The miss arrived within the
// attempt timeout, so it is folded and only reported.
func TestStreamingMatchesBatchAggregate(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)

	const n, dim = 9, 257
	srv := newMathServer(t, dim, 0.5)
	initial := srv.GlobalParams()
	parts := make([]*mathParticipant, n)
	for i := range parts {
		parts[i] = &mathParticipant{
			id:    fmt.Sprintf("p%d", i),
			idx:   i,
			num:   10 + i*3,
			sleep: time.Duration(n-i) * 200 * time.Microsecond, // reverse completion order
			miss:  i == 2,
			fail:  i == 5,
		}
		srv.Register(parts[i])
	}

	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != "p5" {
		t.Fatalf("dropped = %v, want p5 (fail) only", res.Dropped)
	}

	// Batch reference: the aggregate over the survivors' responses in index
	// order, from the same initial global model.
	var responses []RoundResponse
	for _, p := range parts {
		if p.fail {
			continue
		}
		responses = append(responses, RoundResponse{
			ClientID:    p.id,
			Params:      p.update(initial),
			NumExamples: p.num,
		})
	}
	want, err := BatchAggregate(FedAvg{}, initial, responses, 10)
	if err != nil {
		t.Fatal(err)
	}

	got := srv.GlobalParams()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("global[%d]: streaming %v != batch %v", i, got[i], want[i])
		}
	}
}

// TestRoundResponsesParamsStripped pins the O(params) memory contract: after
// a round, no response retains its parameter vector.
func TestRoundResponsesParamsStripped(t *testing.T) {
	srv := newMathServer(t, 16, 0)
	for i := 0; i < 4; i++ {
		srv.Register(&mathParticipant{id: fmt.Sprintf("p%d", i), idx: i, num: 10})
	}
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 4 {
		t.Fatalf("responses = %d", len(res.Responses))
	}
	for _, r := range res.Responses {
		if r.Params != nil {
			t.Fatalf("response %s retains %d params", r.ClientID, len(r.Params))
		}
	}
}

// mutatingParticipant scribbles over its request params while training — the
// regression case for the shared req.Params alias: before per-request copies,
// concurrent participants would observe (and race on) each other's writes.
type mutatingParticipant struct {
	id  string
	val float64
}

func (p *mutatingParticipant) ID() string                        { return p.id }
func (p *mutatingParticipant) TMinFor(jobs int) (float64, error) { return float64(jobs), nil }

func (p *mutatingParticipant) Round(req RoundRequest) (RoundResponse, error) {
	// Every element must still hold the round's global snapshot: any other
	// value means another participant's mutation leaked into our request.
	for i, v := range req.Params {
		if v != 0 {
			return RoundResponse{}, fmt.Errorf("%s: params[%d] = %v, want pristine 0", p.id, i, v)
		}
		req.Params[i] = p.val // mutate in place, mid-round
	}
	return RoundResponse{
		ClientID:    p.id,
		Params:      req.Params,
		NumExamples: 10,
		Report:      core.RoundReport{Round: req.Round, DeadlineMet: true},
	}, nil
}

// TestRunRoundParamIsolation runs many concurrently-mutating participants
// under the pool; run with -race this is the regression test for the shared
// req.Params alias in RunRound.
func TestRunRoundParamIsolation(t *testing.T) {
	prev := parallel.SetWorkers(8)
	defer parallel.SetWorkers(prev)

	srv, err := NewServer(ServerConfig{
		InitialParams: make([]float64, 512), // zeros: any leak is detectable
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	total := 0.0
	weighted := 0.0
	for i := 0; i < n; i++ {
		v := float64(i + 1)
		srv.Register(&mutatingParticipant{id: fmt.Sprintf("m%d", i), val: v})
		weighted += 10 * v
		total += 10
	}
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != n {
		t.Fatalf("responses = %d", len(res.Responses))
	}
	want := weighted / total
	for i, v := range srv.GlobalParams() {
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("global[%d] = %v, want %v", i, v, want)
		}
	}
}

// TestFLRoundDeterminism runs the same federation under three execution modes
// (GOMAXPROCS/pool width 1/1, 4/4 and 4/default) and requires bitwise-equal
// global models after several rounds — the acceptance bar for pool-bounded
// fan-out.
func TestFLRoundDeterminism(t *testing.T) {
	run := func(procs, workers int) []float64 {
		prevProcs := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prevProcs)
		prevWorkers := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prevWorkers)

		srv := newMathServer(t, 101, 0.5)
		for i := 0; i < 12; i++ {
			srv.Register(&mathParticipant{
				id:    fmt.Sprintf("p%d", i),
				idx:   i,
				num:   5 + i,
				sleep: time.Duration((13*i)%5) * 100 * time.Microsecond,
				miss:  i == 3,
			})
		}
		for r := 0; r < 3; r++ {
			if _, err := srv.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		return srv.GlobalParams()
	}

	base := run(1, 1)
	for _, mode := range []struct {
		name           string
		procs, workers int
	}{
		{"parallel4", 4, 4},
		{"parallel-default", 4, 0},
	} {
		got := run(mode.procs, mode.workers)
		for i := range base {
			if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
				t.Fatalf("%s: global[%d] = %v, serial %v", mode.name, i, got[i], base[i])
			}
		}
	}
}

// TestScaleSmoke is the CI scale smoke: hundreds of in-process participants
// through several pool-dispatched rounds (run under -race in CI).
func TestScaleSmoke(t *testing.T) {
	const n, dim, rounds = 300, 64, 3
	srv := newMathServer(t, dim, 0.5)
	for i := 0; i < n; i++ {
		srv.Register(&mathParticipant{id: fmt.Sprintf("p%d", i), idx: i, num: 1 + i%17, miss: i%97 == 0})
	}
	for r := 0; r < rounds; r++ {
		res, err := srv.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Responses)+len(res.Dropped) != n {
			t.Fatalf("round %d: %d responses + %d dropped != %d",
				r, len(res.Responses), len(res.Dropped), n)
		}
	}
}
