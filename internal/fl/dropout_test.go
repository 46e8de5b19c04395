package fl

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"bofl/internal/core"
	"bofl/internal/obs/ledger"
)

// flakyParticipant fails (or misses deadlines) on a schedule.
type flakyParticipant struct {
	id        string
	failRound map[int]bool // rounds on which Round errors
	missRound map[int]bool // rounds on which the deadline is missed
}

func (p *flakyParticipant) ID() string                        { return p.id }
func (p *flakyParticipant) TMinFor(jobs int) (float64, error) { return float64(jobs), nil }

func (p *flakyParticipant) Round(req RoundRequest) (RoundResponse, error) {
	if p.failRound[req.Round] {
		return RoundResponse{}, errors.New("device dropped out")
	}
	return RoundResponse{
		ClientID:    p.id,
		Params:      req.Params,
		NumExamples: 10,
		Report: core.RoundReport{
			Round:       req.Round,
			Energy:      1,
			DeadlineMet: !p.missRound[req.Round],
		},
	}, nil
}

func newDropoutServer(t *testing.T, quorum float64) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		InitialParams: []float64{1, 2, 3},
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          1,
		Quorum:        quorum,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestDropoutToleranceKeepsSurvivors: a failed participant is dropped, and a
// deadline misser whose update arrived within the attempt timeout is folded
// and only reported.
func TestDropoutToleranceKeepsSurvivors(t *testing.T) {
	srv := newDropoutServer(t, 0.5)
	healthy := &flakyParticipant{id: "healthy"}
	crasher := &flakyParticipant{id: "crasher", failRound: map[int]bool{1: true}}
	misser := &flakyParticipant{id: "misser", missRound: map[int]bool{1: true}}
	srv.Register(healthy)
	srv.Register(crasher)
	srv.Register(misser)

	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 2 || res.Responses[0].ClientID != "healthy" ||
		res.Responses[1].ClientID != "misser" || res.Responses[1].Report.DeadlineMet {
		t.Errorf("responses = %+v, want healthy and the reported misser", res.Responses)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != "crasher" {
		t.Errorf("dropped = %v, want crasher", res.Dropped)
	}

	// Next round everyone is healthy again and participates.
	res, err = srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 3 || len(res.Dropped) != 0 {
		t.Errorf("round 2: %d responses, %d dropped", len(res.Responses), len(res.Dropped))
	}
}

func TestDropoutAllFailedIsError(t *testing.T) {
	srv := newDropoutServer(t, 0.5)
	srv.Register(&flakyParticipant{id: "a", failRound: map[int]bool{1: true}})
	srv.Register(&flakyParticipant{id: "b", failRound: map[int]bool{1: true}})
	if _, err := srv.RunRound(); err == nil {
		t.Error("round with zero survivors accepted")
	}
}

func TestStrictModeAbortsOnFailure(t *testing.T) {
	srv := newDropoutServer(t, 0)
	srv.Register(&flakyParticipant{id: "a"})
	srv.Register(&flakyParticipant{id: "b", failRound: map[int]bool{1: true}})
	if _, err := srv.RunRound(); err == nil {
		t.Error("strict server tolerated a failure")
	}
}

func TestStrictModeKeepsDeadlineMissers(t *testing.T) {
	// At the zero-value quorum a miss is reported but not excluded — the
	// behaviour relied on by the evaluation harness.
	srv := newDropoutServer(t, 0)
	srv.Register(&flakyParticipant{id: "a", missRound: map[int]bool{1: true}})
	res, err := srv.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 1 {
		t.Errorf("responses = %d", len(res.Responses))
	}
}

// poisonParticipant ships a broken update: a healthy mathParticipant's
// update passed through spoil.
type poisonParticipant struct {
	*mathParticipant
	spoil func(*RoundResponse)
}

func (p *poisonParticipant) Round(req RoundRequest) (RoundResponse, error) {
	resp, err := p.mathParticipant.Round(req)
	if err == nil {
		p.spoil(&resp)
	}
	return resp, err
}

// TestInvalidUpdateRefused is the poisoned-round probe: 10 clients, one of
// which ships a broken update. At quorum 0.5 the round commits the batch
// aggregate over the other 9, quarantines the sender and journals the
// attempt as invalid; at the zero-value quorum the round aborts with an
// ErrInvalidUpdate and the global model untouched.
func TestInvalidUpdateRefused(t *testing.T) {
	const n, dim, bad = 10, 2, 3
	for _, tc := range []struct {
		name  string
		spoil func(*RoundResponse)
	}{
		{"nan-param", func(r *RoundResponse) { r.Params[0] = math.NaN() }},
		{"inf-param", func(r *RoundResponse) { r.Params[1] = math.Inf(-1) }},
		{"nan-aux", func(r *RoundResponse) { r.Aux = []float64{math.NaN()} }},
		{"short", func(r *RoundResponse) { r.Params = r.Params[:1] }},
		{"no-examples", func(r *RoundResponse) { r.NumExamples = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(quorum float64) (*Server, *ledger.Ledger, RoundResult, error) {
				led := ledger.New(0)
				srv := newMathServer(t, dim, quorum)
				srv.cfg.Ledger = led
				for i := 0; i < n; i++ {
					mp := &mathParticipant{id: fmt.Sprintf("c%d", i), idx: i, num: 1 + i}
					if i == bad {
						srv.Register(&poisonParticipant{mathParticipant: mp, spoil: tc.spoil})
					} else {
						srv.Register(mp)
					}
				}
				res, err := srv.RunRound()
				return srv, led, res, err
			}

			srv, led, res, err := run(0.5)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Responses) != n-1 || len(res.Dropped) != 1 || res.Dropped[0] != "c3" {
				t.Fatalf("responses %d, dropped %v; want 9 and [c3]", len(res.Responses), res.Dropped)
			}
			if len(res.Quarantined) != 1 || res.Quarantined[0] != "c3" {
				t.Fatalf("quarantined %v, want [c3]", res.Quarantined)
			}
			if ids := srv.QuarantinedIDs(); len(ids) != 1 || ids[0] != "c3" {
				t.Fatalf("server quarantine %v, want [c3]", ids)
			}
			initial := newMathServer(t, dim, 0).GlobalParams()
			var healthy []RoundResponse
			for i := 0; i < n; i++ {
				if i == bad {
					continue
				}
				mp := &mathParticipant{id: fmt.Sprintf("c%d", i), idx: i, num: 1 + i}
				healthy = append(healthy, RoundResponse{ClientID: mp.id, Params: mp.update(initial), NumExamples: mp.num})
			}
			want, err := BatchAggregate(FedAvg{}, initial, healthy, 10)
			if err != nil {
				t.Fatal(err)
			}
			bitwiseEqual(t, "committed over the 9 healthy clients", srv.GlobalParams(), want)
			verdicts := 0
			for _, ev := range led.Events() {
				if ev.Kind == ledger.KindAttempt && ev.Client == "c3" {
					if ev.Verdict != ledger.VerdictInvalid || ev.EnergyJoules != 0 {
						t.Fatalf("poisoner attempt event %+v, want verdict invalid without energy", ev)
					}
					verdicts++
				}
			}
			if verdicts != 1 {
				t.Fatalf("%d attempt events for the poisoner, want 1", verdicts)
			}

			srv, _, _, err = run(0)
			if !errors.Is(err, ErrInvalidUpdate) {
				t.Fatalf("zero-value quorum: error %v, want ErrInvalidUpdate", err)
			}
			bitwiseEqual(t, "aborted round's global model", srv.GlobalParams(), initial)
		})
	}
}

// TestOverflowingContributionRefused is the overflow probe: every parameter
// of the poisoner is finite (1e308), but weighted by its 29 examples each
// one rounds to +Inf. At quorum 0.5 the round commits the batch aggregate
// over the healthy client, quarantines the sender and journals its attempt
// as invalid; at the zero-value quorum it aborts with the model untouched.
func TestOverflowingContributionRefused(t *testing.T) {
	const dim = 4
	healthy := &mathParticipant{id: "c0", idx: 0, num: 3}
	run := func(quorum float64) (*Server, *ledger.Ledger, RoundResult, error) {
		led := ledger.New(0)
		srv := newMathServer(t, dim, quorum)
		srv.cfg.Ledger = led
		srv.Register(healthy)
		srv.Register(&poisonParticipant{
			mathParticipant: &mathParticipant{id: "c1", idx: 1, num: 1},
			spoil: func(r *RoundResponse) {
				for j := range r.Params {
					r.Params[j] = 1e308
				}
				r.NumExamples = 29
			},
		})
		res, err := srv.RunRound()
		return srv, led, res, err
	}

	srv, led, res, err := run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 1 || len(res.Quarantined) != 1 || res.Quarantined[0] != "c1" {
		t.Fatalf("responses %d, quarantined %v; want 1 and [c1]", len(res.Responses), res.Quarantined)
	}
	initial := newMathServer(t, dim, 0).GlobalParams()
	want, err := BatchAggregate(FedAvg{}, initial, []RoundResponse{
		{ClientID: healthy.id, Params: healthy.update(initial), NumExamples: healthy.num},
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "committed over the healthy client", srv.GlobalParams(), want)
	verdicts := 0
	for _, ev := range led.Events() {
		if ev.Kind == ledger.KindAttempt && ev.Client == "c1" {
			if ev.Verdict != ledger.VerdictInvalid {
				t.Fatalf("poisoner attempt event %+v, want verdict invalid", ev)
			}
			verdicts++
		}
	}
	if verdicts != 1 {
		t.Fatalf("%d attempt events for the poisoner, want 1", verdicts)
	}

	srv, _, _, err = run(0)
	if !errors.Is(err, ErrInvalidUpdate) {
		t.Fatalf("zero-value quorum: error %v, want ErrInvalidUpdate", err)
	}
	bitwiseEqual(t, "aborted round's global model", srv.GlobalParams(), initial)
}
