package bofl_test

// Determinism suite for the parallel acquisition engine: the worker pool
// must be a pure speedup. Every path that fans out — the EHVI candidate
// scan, the GP hyperparameter restarts and the experiment runner — is run
// serially (GOMAXPROCS=1, one worker) and in parallel (GOMAXPROCS=4, four
// workers) and the outputs are compared bit-for-bit. See DESIGN.md,
// "Performance architecture" for the contract these tests enforce.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/experiment"
	"bofl/internal/gp"
	"bofl/internal/mobo"
	"bofl/internal/parallel"
)

// execModes are the (GOMAXPROCS, pool width) configurations compared by the
// suite; the first entry is the serial reference.
var execModes = []struct {
	name    string
	procs   int
	workers int
}{
	{"serial", 1, 1},
	{"parallel4", 4, 4},
	{"parallel-default", 4, 0}, // width tracking GOMAXPROCS
}

// withExecMode runs fn under the given GOMAXPROCS and pool width, restoring
// both afterwards.
func withExecMode(procs, workers int, fn func()) {
	prevProcs := runtime.GOMAXPROCS(procs)
	prevWorkers := parallel.SetWorkers(workers)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		parallel.SetWorkers(prevWorkers)
	}()
	fn()
}

func TestFitHyperDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, d = 40, 3
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = rng.NormFloat64()
	}
	probes := make([][]float64, 25)
	for i := range probes {
		probes[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	// Fitted regressors are compared through their posterior at probe
	// points; bitwise equality there means the same restart won with the
	// same hyperparameters.
	type posterior struct{ Mu, Sigma float64 }
	results := make([][]posterior, len(execModes))
	for mi, mode := range execModes {
		withExecMode(mode.procs, mode.workers, func() {
			r, err := gp.FitHyper(xs, ys, gp.HyperOptions{Dim: d, Restarts: 6, Iters: 8, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			ps := make([]posterior, len(probes))
			for i, x := range probes {
				ps[i].Mu, ps[i].Sigma = r.Predict(x)
			}
			results[mi] = ps
		})
	}
	for mi := 1; mi < len(execModes); mi++ {
		if !reflect.DeepEqual(results[0], results[mi]) {
			t.Errorf("FitHyper posterior differs between %s and %s", execModes[0].name, execModes[mi].name)
		}
	}
}

// runSuggestBatchModes replays one batch selection on the Jetson AGX space
// under every execution mode and returns the per-mode suggestion lists.
func runSuggestBatchModes(t *testing.T) [][]mobo.Suggestion {
	t.Helper()
	dev := device.JetsonAGX()
	space := dev.Space()
	candidates := make([][]float64, space.Size())
	for i := range candidates {
		cfg, err := space.Config(i)
		if err != nil {
			t.Fatal(err)
		}
		candidates[i], err = space.Normalize(cfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	seedIdx, err := mobo.HaltonIndices(21, space.Dims())
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]mobo.Suggestion, len(execModes))
	for mi, mode := range execModes {
		withExecMode(mode.procs, mode.workers, func() {
			opt, err := mobo.NewOptimizer(candidates, mobo.Options{
				Seed: 5, Restarts: 2, Iters: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range seedIdx {
				cfg, err := space.Config(idx)
				if err != nil {
					t.Fatal(err)
				}
				lat, energy, err := dev.Perf(device.ViT, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := opt.Observe(mobo.Observation{Index: idx, Energy: energy, Latency: lat}); err != nil {
					t.Fatal(err)
				}
			}
			sugg, err := opt.SuggestBatch(10)
			if err != nil {
				t.Fatal(err)
			}
			results[mi] = sugg
		})
	}
	return results
}

// TestSuggestBatchDeterministicAcrossWorkers: the pre-screened batch
// selection is identical under every execution mode. Its equality with the
// pure float64 scan is pinned inside the mobo package
// (TestSuggestBatchMatchesFloat64Reference).
func TestSuggestBatchDeterministicAcrossWorkers(t *testing.T) {
	results := runSuggestBatchModes(t)
	for mi := 1; mi < len(execModes); mi++ {
		if !reflect.DeepEqual(results[0], results[mi]) {
			t.Errorf("SuggestBatch differs between %s and %s:\n  %v\nvs\n  %v",
				execModes[0].name, execModes[mi].name, results[0], results[mi])
		}
	}
}

func TestExperimentRunnerDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-task experiment replay in -short mode")
	}
	const rounds = 6
	opts := core.Options{Tau: 3, MBORestarts: 1, MBOIters: 3}
	type summary struct {
		Rows        []experiment.EnergyRow
		BoFL        float64
		Performant  float64
		Oracle      float64
		Improvement float64
		Regret      float64
	}
	results := make([][]summary, len(execModes))
	for mi, mode := range execModes {
		withExecMode(mode.procs, mode.workers, func() {
			cmps, err := experiment.Figure9(2.0, rounds, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			sums := make([]summary, len(cmps))
			for i, cmp := range cmps {
				sums[i] = summary{
					Rows:        cmp.Rows,
					BoFL:        cmp.BoFLTotal,
					Performant:  cmp.PerformantTotal,
					Oracle:      cmp.OracleTotal,
					Improvement: cmp.Improvement,
					Regret:      cmp.Regret,
				}
			}
			results[mi] = sums
		})
	}
	for mi := 1; mi < len(execModes); mi++ {
		if !reflect.DeepEqual(results[0], results[mi]) {
			t.Errorf("Figure9 output differs between %s and %s", execModes[0].name, execModes[mi].name)
		}
	}

	// The ratio × task grid fan-out must preserve sweep order and values.
	grids := make([][]experiment.Figure12Cell, len(execModes))
	for mi, mode := range execModes {
		withExecMode(mode.procs, mode.workers, func() {
			cells, err := experiment.Figure12([]float64{2.0, 3.0}, rounds, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			grids[mi] = cells
		})
	}
	for mi := 1; mi < len(execModes); mi++ {
		if !reflect.DeepEqual(grids[0], grids[mi]) {
			t.Errorf("Figure12 grid differs between %s and %s", execModes[0].name, execModes[mi].name)
		}
	}
}
