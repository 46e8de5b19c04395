package main

import (
	"bytes"
	"strings"
	"testing"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/faultinject"
	"bofl/internal/fl"
	"bofl/internal/ml"
)

func testServer(t *testing.T, n int) *fl.Server {
	t.Helper()
	global, err := ml.NewMLP(8, 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fl.NewServer(fl.ServerConfig{
		InitialParams: global.Params(),
		Jobs:          20,
		DeadlineRatio: 2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.JetsonAGX()
	for i := 0; i < n; i++ {
		model, err := ml.NewMLP(8, 16, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ml.Blobs(64, 8, 4, 0.6, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.NewPerformant(dev.Space())
		if err != nil {
			t.Fatal(err)
		}
		c, err := fl.NewClient(fl.ClientConfig{
			ID: "c" + string(rune('0'+i)), Device: dev, Workload: device.ViT,
			Model: model, Data: data, BatchSize: 8, LearnRate: 0.1,
			Controller: ctrl, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(&fl.LocalParticipant{Client: c})
	}
	return srv
}

func TestOrchestratePrintsRounds(t *testing.T) {
	srv := testServer(t, 2)
	var buf bytes.Buffer
	if err := orchestrate(srv, 3, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "round ") != 3 {
		t.Errorf("expected 3 round lines:\n%s", out)
	}
	if !strings.Contains(out, "0 misses") {
		t.Errorf("expected zero misses:\n%s", out)
	}
	if !strings.Contains(out, "done;") {
		t.Errorf("missing completion line:\n%s", out)
	}
}

// TestOrchestrateReportsCasualties drives a chaos-configured federation and
// checks the per-round summary surfaces dropped participants.
func TestOrchestrateReportsCasualties(t *testing.T) {
	global, err := ml.NewMLP(8, 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fl.NewServer(fl.ServerConfig{
		InitialParams: global.Params(),
		Jobs:          20,
		DeadlineRatio: 2,
		Seed:          1,
		Quorum:        0.5,
		Retry:         fl.RetryConfig{MaxAttempts: 1, Seed: 1},
		FaultPolicy: faultinject.Scripted{
			{Layer: faultinject.LayerParticipant, Client: "c1", Round: 1}: {Drop: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.JetsonAGX()
	for i := 0; i < 3; i++ {
		model, err := ml.NewMLP(8, 16, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ml.Blobs(64, 8, 4, 0.6, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.NewPerformant(dev.Space())
		if err != nil {
			t.Fatal(err)
		}
		c, err := fl.NewClient(fl.ClientConfig{
			ID: "c" + string(rune('0'+i)), Device: dev, Workload: device.ViT,
			Model: model, Data: data, BatchSize: 8, LearnRate: 0.1,
			Controller: ctrl, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(&fl.LocalParticipant{Client: c})
	}
	var buf bytes.Buffer
	if err := orchestrate(srv, 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 dropped") {
		t.Errorf("casualty summary missing:\n%s", buf.String())
	}
}

// TestValidateDispatch pins the -fanout / -tree-fanout / -retry-budget
// interplay: tree depth bounds useful concurrency (clamped), and widths past
// a shared retry budget are rejected as non-replayable.
func TestValidateDispatch(t *testing.T) {
	cases := []struct {
		name                    string
		workers, treeFanout     int
		tierQuorum              float64
		pool, retryBudget, want int
		wantErr                 bool
	}{
		{name: "flat passthrough", workers: 16, pool: 100, want: 16},
		{name: "tree clamps width", workers: 64, treeFanout: 4, pool: 64, want: 4 * 3},
		{name: "tree under bound untouched", workers: 6, treeFanout: 4, pool: 64, want: 6},
		{name: "single-tier pool", workers: 32, treeFanout: 8, pool: 8, want: 8},
		{name: "budget rejects wide dispatch", workers: 16, pool: 100, retryBudget: 8, wantErr: true},
		{name: "budget ok after tree clamp", workers: 64, treeFanout: 4, pool: 64, retryBudget: 12, want: 12},
		{name: "budget rejects even clamped", workers: 64, treeFanout: 4, pool: 64, retryBudget: 4, wantErr: true},
		{name: "tree fanout 1 invalid", workers: 4, treeFanout: 1, pool: 10, wantErr: true},
		{name: "tier quorum needs tree", workers: 4, tierQuorum: 0.5, pool: 10, wantErr: true},
		{name: "tier quorum out of range", workers: 4, treeFanout: 2, tierQuorum: 1.5, pool: 10, wantErr: true},
		{name: "zero workers invalid", workers: 0, pool: 10, wantErr: true},
	}
	for _, c := range cases {
		got, err := validateDispatch(c.workers, c.treeFanout, c.tierQuorum, c.pool, c.retryBudget)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: accepted, got width %d", c.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: width %d, want %d", c.name, got, c.want)
		}
	}
}

// TestOrchestrateTreeRound drives a real tree-configured federation end to
// end through the cmd-layer orchestrator.
func TestOrchestrateTreeRound(t *testing.T) {
	global, err := ml.NewMLP(8, 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fl.NewServer(fl.ServerConfig{
		InitialParams: global.Params(),
		Jobs:          20,
		DeadlineRatio: 2,
		Seed:          1,
		Tree:          &fl.TreeConfig{Fanout: 2, TierQuorum: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.JetsonAGX()
	for i := 0; i < 5; i++ {
		model, err := ml.NewMLP(8, 16, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ml.Blobs(64, 8, 4, 0.6, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.NewPerformant(dev.Space())
		if err != nil {
			t.Fatal(err)
		}
		c, err := fl.NewClient(fl.ClientConfig{
			ID: "c" + string(rune('0'+i)), Device: dev, Workload: device.ViT,
			Model: model, Data: data, BatchSize: 8, LearnRate: 0.1,
			Controller: ctrl, Seed: int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Register(&fl.LocalParticipant{Client: c})
	}
	var buf bytes.Buffer
	if err := orchestrate(srv, 2, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "round ") != 2 {
		t.Errorf("expected 2 tree rounds:\n%s", buf.String())
	}
}

func TestOrchestratePropagatesErrors(t *testing.T) {
	global, err := ml.NewMLP(2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fl.NewServer(fl.ServerConfig{InitialParams: global.Params(), Jobs: 1, DeadlineRatio: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orchestrate(srv, 1, &buf); err == nil {
		t.Error("empty federation accepted")
	}
}
