package bofl_test

// One benchmark per paper table and figure (DESIGN.md §3 maps ids to
// functions), plus microbenchmarks of the algorithmic kernels and ablation
// benches that report energy as a custom metric. Figure-level benches use
// reduced round counts so `go test -bench=.` completes in minutes; the full
// 100-round reproductions run via cmd/boflbench.

import (
	"math/rand"
	"testing"

	"bofl/internal/core"
	"bofl/internal/device"
	"bofl/internal/experiment"
	"bofl/internal/fl"
	"bofl/internal/gp"
	"bofl/internal/ilp"
	"bofl/internal/mobo"
	"bofl/internal/obs"
	"bofl/internal/parallel"
	"bofl/internal/pareto"
)

const benchRounds = 30

func benchOpts() core.Options {
	return core.Options{Tau: 5, MBORestarts: 2, MBOIters: 5}
}

// ---- Tables ----

func BenchmarkTable1Spaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.Table1()
		if len(rows) != 2 {
			b.Fatal("bad table 1")
		}
	}
}

func BenchmarkTable2TaskSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Table2()
		if err != nil || len(rows) != 6 {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Walkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiment.Table3(benchRounds, 1, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(data[0].TotalExp), "explored/task")
		b.ReportMetric(float64(data[0].TotalPareto), "pareto/task")
	}
}

// ---- Motivation figures ----

func BenchmarkFigure2(b *testing.B) {
	dev := device.JetsonAGX()
	for i := 0; i < b.N; i++ {
		d, err := experiment.Figure2(dev, device.ViT)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.SpeedLeverage, "speed-leverage")
		b.ReportMetric(d.EnergyLeverage, "energy-leverage")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Evaluation figures ----

func benchEnergyComparison(b *testing.B, ratio float64) {
	dev := device.JetsonAGX()
	tasks, err := fl.Tasks(dev, ratio, benchRounds)
	if err != nil {
		b.Fatal(err)
	}
	poolBefore := parallel.Stats()
	for i := 0; i < b.N; i++ {
		cmp, err := experiment.EnergyComparisonFor(dev, tasks[0], benchRounds, int64(i+1), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.Improvement*100, "improvement%")
		b.ReportMetric(cmp.Regret*100, "regret%")
	}
	reportPoolStats(b, poolBefore)
}

// reportPoolStats attaches the worker pool's fan-out behaviour over the
// benchmark loop as custom metrics, so bench.sh snapshots record how much of
// the run actually used helpers.
func reportPoolStats(b *testing.B, before parallel.PoolStats) {
	after := parallel.Stats()
	fanouts := after.Fanouts - before.Fanouts
	b.ReportMetric(float64(fanouts)/float64(b.N), "fanouts/op")
	if fanouts > 0 {
		b.ReportMetric(float64(after.HelperAcquires-before.HelperAcquires)/float64(fanouts), "helpers/fanout")
	}
}

func BenchmarkFigure9(b *testing.B)  { benchEnergyComparison(b, 2.0) }
func BenchmarkFigure10(b *testing.B) { benchEnergyComparison(b, 4.0) }

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		data, err := experiment.Figure11(2.0, benchRounds, int64(i+1), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(data[0].HVCoverage*100, "hv-coverage%")
		b.ReportMetric(data[0].ExploredFrac*100, "explored%")
	}
}

func BenchmarkFigure12(b *testing.B) {
	// Two ratios keep the grid affordable; the full five-ratio sweep runs
	// in cmd/boflbench.
	for i := 0; i < b.N; i++ {
		cells, err := experiment.Figure12([]float64{2.0, 4.0}, benchRounds, int64(i+1), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cells[0].Improvement*100, "improvement@2x%")
		b.ReportMetric(cells[len(cells)-1].Improvement*100, "improvement@4x%")
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure13(2.0, benchRounds, int64(i+1), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].OverheadFrac*100, "mbo-overhead%")
	}
}

// ---- Ablations (energy as reported metric; equal deadline sequences) ----

func benchAblation(b *testing.B, kind experiment.ControllerKind) {
	dev := device.JetsonAGX()
	tasks, err := fl.Tasks(dev, 2.5, benchRounds)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		run, err := experiment.RunTask(experiment.RunConfig{
			Device:      dev,
			Task:        tasks[0],
			Rounds:      benchRounds,
			Controller:  kind,
			Seed:        7,
			CtrlOptions: benchOpts(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(run.TotalEnergy, "J/task")
		b.ReportMetric(float64(run.DeadlineMisses), "misses/task")
	}
}

func BenchmarkAblationBoFL(b *testing.B)       { benchAblation(b, experiment.KindBoFL) }
func BenchmarkAblationBoFLParEGO(b *testing.B) { benchAblation(b, experiment.KindBoFLParEGO) }
func BenchmarkAblationPerformant(b *testing.B) { benchAblation(b, experiment.KindPerformant) }
func BenchmarkAblationOracle(b *testing.B)     { benchAblation(b, experiment.KindOracle) }
func BenchmarkAblationRandom(b *testing.B)     { benchAblation(b, experiment.KindRandom) }
func BenchmarkAblationLinearPace(b *testing.B) { benchAblation(b, experiment.KindLinearPace) }

// benchControllerVariant runs a full BoFL task with custom options and
// reports energy, deadline misses and exploration rounds as metrics.
func benchControllerVariant(b *testing.B, ratio float64, opts core.Options) {
	dev := device.JetsonAGX()
	tasks, err := fl.Tasks(dev, ratio, benchRounds)
	if err != nil {
		b.Fatal(err)
	}
	task := tasks[0]
	tmin, err := fl.TMin(dev, task)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		ctrl, err := core.New(dev.Space(), opts)
		if err != nil {
			b.Fatal(err)
		}
		meter := device.NewMeter(dev, device.DefaultNoise(), int64(i+1))
		exec := core.ExecutorFunc(func(c device.Config) (core.JobResult, error) {
			m, err := meter.Measure(task.Workload, c, 0.2)
			if err != nil {
				return core.JobResult{}, err
			}
			return core.JobResult{Latency: m.Latency, Energy: m.Energy}, nil
		})
		deadlines, err := fl.SampleDeadlines(tmin, task.DeadlineRatio, benchRounds, int64(i+3))
		if err != nil {
			b.Fatal(err)
		}
		var energy float64
		misses := 0
		for r := 0; r < benchRounds; r++ {
			rep, err := ctrl.RunRound(task.Jobs(), deadlines[r], exec)
			if err != nil {
				b.Fatal(err)
			}
			energy += rep.Energy
			if !rep.DeadlineMet {
				misses++
			}
			if _, err := ctrl.BetweenRounds(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(energy, "J/task")
		b.ReportMetric(float64(misses), "misses/task")
		b.ReportMetric(float64(ctrl.NumExplored()), "explored/task")
	}
}

// Guardian ablation (§4.2) at tight deadlines (ratio 1.4): the guardian's
// value is zero misses; disabling it trades deadline violations for nothing.
func BenchmarkAblationGuardianOn(b *testing.B) {
	benchControllerVariant(b, 1.4, core.Options{Tau: 5, MBORestarts: 2, MBOIters: 5})
}

func BenchmarkAblationGuardianOff(b *testing.B) {
	benchControllerVariant(b, 1.4, core.Options{Tau: 5, MBORestarts: 2, MBOIters: 5, DisableGuardian: true})
}

// Batch-size ablation (§4.3) at the paper's ratio 2.0: single-point
// suggestion vs the sequential-greedy batch of up to 10. The batch costs more
// MBO compute per round but needs far fewer rounds to finish construction.
func BenchmarkAblationBatchSize1(b *testing.B) {
	benchControllerVariant(b, 2.0, core.Options{Tau: 5, MBORestarts: 2, MBOIters: 5, MaxBatch: 1})
}

func BenchmarkAblationBatchSize10(b *testing.B) {
	benchControllerVariant(b, 2.0, core.Options{Tau: 5, MBORestarts: 2, MBOIters: 5, MaxBatch: 10})
}

// ---- Algorithmic kernels ----

func BenchmarkEHVIAnalytic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	front := make([]pareto.Point, 20)
	for i := range front {
		front[i] = pareto.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	ref := pareto.Point{X: 1.5, Y: 1.5}
	g := mobo.Gaussian2{MuX: 0.5, SigmaX: 0.2, MuY: 0.5, SigmaY: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mobo.EHVI(g, front, ref)
	}
}

func BenchmarkEHVIQuadrature(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	front := make([]pareto.Point, 20)
	for i := range front {
		front[i] = pareto.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	ref := pareto.Point{X: 1.5, Y: 1.5}
	g := mobo.Gaussian2{MuX: 0.5, SigmaX: 0.2, MuY: 0.5, SigmaY: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mobo.EHVIQuadrature(g, front, ref)
	}
}

func BenchmarkHypervolume2D(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]pareto.Point, 100)
	for i := range pts {
		pts[i] = pareto.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	ref := pareto.Point{X: 1, Y: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.Hypervolume(pts, ref)
	}
}

func BenchmarkGPFit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 70 // typical end-of-exploration dataset size
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = rng.NormFloat64()
	}
	k, err := gp.NewMatern52(1, []float64{0.3, 0.3, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Fit(k, 0.05, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n = 70
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = rng.NormFloat64()
	}
	k, err := gp.NewMatern52(1, []float64{0.3, 0.3, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	r, err := gp.Fit(k, 0.05, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Predict(x)
	}
}

// BenchmarkCholeskyBlocked and BenchmarkCholeskyScalar attribute the
// factorization speedup layer by layer: same SPD input, blocked panel kernel
// vs the historical scalar triple loop (which the blocked path matches
// bit-for-bit; see internal/gp/linalg_test.go).
func benchCholesky(b *testing.B, factor func(*gp.Matrix) error) {
	rng := rand.New(rand.NewSource(6))
	const n = 70
	spd := benchSPD(rng, n)
	work := gp.NewMatrix(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Data, spd.Data)
		if err := factor(work); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSPD(rng *rand.Rand, n int) *gp.Matrix {
	a := gp.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	spd := gp.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a.At(i, k) * a.At(j, k)
			}
			spd.Set(i, j, s)
		}
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

func BenchmarkCholeskyBlocked(b *testing.B) {
	benchCholesky(b, gp.CholeskyInPlace)
}

func BenchmarkCholeskyScalar(b *testing.B) {
	benchCholesky(b, func(m *gp.Matrix) error {
		_, err := gp.CholeskyScalar(m)
		return err
	})
}

// BenchmarkPredictBatchFused measures the fused batch predict (kernel sweep,
// mean dot and variance solve in one pass, zero allocations in steady state)
// over a candidate-scan-sized batch.
func BenchmarkPredictBatchFused(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n, batch = 70, 256
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = rng.NormFloat64()
	}
	k, err := gp.NewMatern52(1, []float64{0.3, 0.3, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	r, err := gp.Fit(k, 0.05, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([][]float64, batch)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	mus := make([]float64, batch)
	sigmas := make([]float64, batch)
	scratch := make([]float64, 2*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PredictBatchInto(pts, mus, sigmas, scratch)
	}
}

func BenchmarkILPSolve(b *testing.B) {
	// The paper reports ≤ 20 ms per exploitation solve via Gurobi; this
	// measures the branch-and-bound at realistic scale.
	rng := rand.New(rand.NewSource(5))
	const m = 25
	opts := make([]ilp.Option, m)
	for i := range opts {
		tm := 0.18 + 0.3*float64(i)/m
		opts[i] = ilp.Option{Time: tm, Energy: 5.2 - 3.5*float64(i)/m + 0.1*rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ilp.Solve(opts, 200, 0.28*200); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMBOSuggestBatch times the acquisition hot path with the given sink.
// The default benchmark runs the no-op sink (the production default); the
// Live variant quantifies the full-telemetry cost — BENCH snapshots compare
// the two to enforce the <2% NopSink-overhead budget.
func benchMBOSuggestBatch(b *testing.B, sink obs.Sink) {
	dev := device.JetsonAGX()
	space := dev.Space()
	candidates := make([][]float64, space.Size())
	for i := range candidates {
		cfg, err := space.Config(i)
		if err != nil {
			b.Fatal(err)
		}
		candidates[i], err = space.Normalize(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	seedIdx, err := mobo.HaltonIndices(21, space.Dims())
	if err != nil {
		b.Fatal(err)
	}
	poolBefore := parallel.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opt, err := mobo.NewOptimizer(candidates, mobo.Options{Seed: int64(i), Restarts: 2, Iters: 5})
		if err != nil {
			b.Fatal(err)
		}
		opt.SetSink(sink)
		for _, idx := range seedIdx {
			lat, energy, err := dev.Perf(device.ViT, mustConfig(b, space, idx))
			if err != nil {
				b.Fatal(err)
			}
			if err := opt.Observe(mobo.Observation{Index: idx, Energy: energy, Latency: lat}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := opt.SuggestBatch(10); err != nil {
			b.Fatal(err)
		}
	}
	reportPoolStats(b, poolBefore)
}

// BenchmarkMBOSuggestBatch is the headline acquisition benchmark: one
// 10-pick batch selection, float32 pre-screen included (its selections are
// bit-identical to a pure float64 scan, enforced by mobo's
// TestSuggestBatchMatchesFloat64Reference).
func BenchmarkMBOSuggestBatch(b *testing.B) { benchMBOSuggestBatch(b, obs.Nop) }

func BenchmarkMBOSuggestBatchLive(b *testing.B) {
	benchMBOSuggestBatch(b, obs.NewBoFL(obs.Real{}))
}

func mustConfig(b *testing.B, s device.Space, i int) device.Config {
	b.Helper()
	cfg, err := s.Config(i)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

func BenchmarkDevicePerf(b *testing.B) {
	dev := device.JetsonAGX()
	cfg := dev.Space().Max()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dev.Perf(device.ViT, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeterMeasure(b *testing.B) {
	dev := device.JetsonAGX()
	m := device.NewMeter(dev, device.DefaultNoise(), 1)
	cfg := dev.Space().Max()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Measure(device.ViT, cfg, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileAll(b *testing.B) {
	dev := device.JetsonAGX()
	for i := 0; i < b.N; i++ {
		if _, err := device.ProfileAll(dev, device.ViT); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerRound(b *testing.B) {
	// One full exploitation-phase round (200 jobs) including ILP planning.
	dev := device.JetsonAGX()
	ctrl, err := core.New(dev.Space(), benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	meter := device.NewMeter(dev, device.DefaultNoise(), 1)
	exec := core.ExecutorFunc(func(c device.Config) (core.JobResult, error) {
		m, err := meter.Measure(device.ViT, c, 0.2)
		if err != nil {
			return core.JobResult{}, err
		}
		return core.JobResult{Latency: m.Latency, Energy: m.Energy}, nil
	})
	// Warm up through exploration so the steady state is measured.
	tmin := 37.2
	for r := 0; r < 20; r++ {
		if _, err := ctrl.RunRound(200, tmin*2, exec); err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.BetweenRounds(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.RunRound(200, tmin*2, exec); err != nil {
			b.Fatal(err)
		}
	}
}
