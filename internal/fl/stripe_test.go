package fl

// Multi-stripe rounds. Every other determinism test folds at most 257
// scalars — one exact.Vec stripe — so the concurrent stripe folds of the
// dispatch workers never overlap there. This file folds at 3·StripeWidth+5
// scalars, where workers fold neighbouring leaves into different stripes
// concurrently and the rows reach each stripe in scheduling order.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/exact"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

// stripeParticipant is a mathParticipant whose update carries subnormal
// values through stripe 1, so that stripe folds through the slow path while
// the others stay on the kernel, and which fails on the rounds in failOn.
type stripeParticipant struct {
	mathParticipant
	failOn map[int]bool
}

func (p *stripeParticipant) update(global []float64) []float64 {
	out := p.mathParticipant.update(global)
	for j := exact.StripeWidth; j < 2*exact.StripeWidth; j += 3 {
		out[j] = math.Ldexp(float64(1+(31*p.idx+j)%1000), -1070)
	}
	return out
}

func (p *stripeParticipant) Round(req RoundRequest) (RoundResponse, error) {
	time.Sleep(p.sleep)
	if p.failOn[req.Round] {
		return RoundResponse{}, fmt.Errorf("%s: dropped", p.id)
	}
	return RoundResponse{
		ClientID:    p.id,
		Params:      p.update(req.Params),
		NumExamples: p.num,
		Report:      core.RoundReport{Round: req.Round, DeadlineMet: true},
	}, nil
}

// TestMultiStripeRoundsDeterministic runs two flat and two tree rounds
// (fanout 4, tier quorum 0.5) at pool widths {1, 2, 8} × GOMAXPROCS {1, 4}.
// Round 1 loses three scattered clients, round 2 a whole tier-0 group's
// quorum. Every round must commit BatchAggregate over its survivors, the
// tree's first round must equal the flat one, and each shape's ledger must
// be byte-identical to its width-1 run.
func TestMultiStripeRoundsDeterministic(t *testing.T) {
	const n, rounds = 22, 2
	dim := 3*exact.StripeWidth + 5
	failOn := func(i int) map[int]bool {
		return map[int]bool{1: i == 1 || i == 6 || i == 13, 2: i >= 8 && i <= 10}
	}
	type outcome struct {
		globals [][]float64 // committed model after each round
		ledger  []byte
	}
	run := func(procs, workers int, tree *TreeConfig) outcome {
		prevProcs := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prevProcs)
		prevWorkers := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prevWorkers)

		led := ledger.New(0)
		init := make([]float64, dim)
		for i := range init {
			init[i] = math.Sin(float64(i + 1))
		}
		srv, err := NewServer(ServerConfig{
			InitialParams: init, Jobs: 10, DeadlineRatio: 2, Seed: 9,
			Quorum: 0.5, Tree: tree, Ledger: led,
		})
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[string]*stripeParticipant, n)
		for i := 0; i < n; i++ {
			p := &stripeParticipant{
				mathParticipant: mathParticipant{
					id: fmt.Sprintf("c%02d", i), idx: i, num: 1 + (7*i)%29,
					sleep: time.Duration((13*i)%5) * 100 * time.Microsecond,
				},
				failOn: failOn(i),
			}
			byID[p.id] = p
			srv.Register(p)
		}
		var out outcome
		for r := 1; r <= rounds; r++ {
			before := srv.GlobalParams()
			res, err := srv.RunRound()
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			var survivors []RoundResponse
			for _, resp := range res.Responses {
				p := byID[resp.ClientID]
				survivors = append(survivors, RoundResponse{
					ClientID: p.id, Params: p.update(before), NumExamples: p.num,
				})
			}
			if tree != nil && r == 2 && len(survivors) != n-4 {
				t.Fatalf("tree round 2: %d survivors, want %d (one tier-0 group dropped)", len(survivors), n-4)
			}
			want, err := BatchAggregate(FedAvg{}, before, survivors, 10)
			if err != nil {
				t.Fatal(err)
			}
			got := srv.GlobalParams()
			bitwiseEqual(t, fmt.Sprintf("procs %d width %d tree %v round %d vs batch", procs, workers, tree != nil, r), got, want)
			out.globals = append(out.globals, got)
		}
		var buf bytes.Buffer
		if err := led.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		out.ledger = buf.Bytes()
		return out
	}

	tree := &TreeConfig{Fanout: 4, TierQuorum: 0.5}
	baseFlat, baseTree := run(1, 1, nil), run(1, 1, tree)
	bitwiseEqual(t, "round 1: tree vs flat", baseTree.globals[0], baseFlat.globals[0])
	for _, procs := range []int{1, 4} {
		for _, workers := range []int{1, 2, 8} {
			for _, c := range []struct {
				shape string
				tree  *TreeConfig
				base  outcome
			}{{"flat", nil, baseFlat}, {"tree", tree, baseTree}} {
				got := run(procs, workers, c.tree)
				if !bytes.Equal(got.ledger, c.base.ledger) {
					t.Fatalf("%s procs %d width %d: ledger differs from the width-1 run", c.shape, procs, workers)
				}
				bitwiseEqual(t, fmt.Sprintf("%s procs %d width %d: round 1 vs tree", c.shape, procs, workers),
					got.globals[0], baseTree.globals[0])
			}
		}
	}
}
