package bofl_test

// BenchmarkFLScale measures the FL serving plane at fleet scale: a
// thousand-participant in-process round through the bounded dispatch +
// streaming-fold path, an HTTP loopback federation over the binary frame
// codec, and the codec's wire savings against a JSON encoding of the same
// request (the `wire_x` metric is the acceptance bar: ≥ 4× on a CNN-sized
// vector).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bofl/internal/core"
	"bofl/internal/fl"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

// scaleParams builds a CNN-sized parameter vector of float32-valued weights
// (models train in single precision; the float64 slice is just the API type).
func scaleParams(n int) []float64 {
	rng := rand.New(rand.NewSource(17))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(float32(rng.NormFloat64() * 0.05))
	}
	return out
}

// echoParticipant is a zero-training participant: it returns a deterministic
// transform of the incoming global vector, isolating the serving plane
// (dispatch, copy, fold) from model math.
type echoParticipant struct {
	id  string
	idx int
}

func (p *echoParticipant) ID() string                        { return p.id }
func (p *echoParticipant) TMinFor(jobs int) (float64, error) { return float64(jobs), nil }

func (p *echoParticipant) Round(req fl.RoundRequest) (fl.RoundResponse, error) {
	scale := 1 + float64(p.idx%13)/256
	for i := range req.Params {
		req.Params[i] *= scale
	}
	return fl.RoundResponse{
		ClientID:    p.id,
		Params:      req.Params,
		NumExamples: 1 + p.idx%29,
		Report:      core.RoundReport{Round: req.Round, DeadlineMet: true},
	}, nil
}

func newScaleServer(b *testing.B, params []float64) *fl.Server {
	b.Helper()
	srv, err := fl.NewServer(fl.ServerConfig{
		InitialParams: params,
		Jobs:          10,
		DeadlineRatio: 2,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

func BenchmarkFLScale(b *testing.B) {
	b.Run("inproc-1k", func(b *testing.B) {
		const clients, dim = 1000, 65_536
		// Explicit bounded width: on small CI boxes GOMAXPROCS is 1 and the
		// pool would run inline, leaving the concurrent fold path unexercised.
		defer parallel.SetWorkers(parallel.SetWorkers(8))
		srv := newScaleServer(b, scaleParams(dim))
		for i := 0; i < clients; i++ {
			srv.Register(&echoParticipant{id: fmt.Sprintf("edge-%d", i), idx: i})
		}
		poolBefore := parallel.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.RunRound()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Responses) != clients {
				b.Fatalf("%d responses", len(res.Responses))
			}
		}
		b.ReportMetric(float64(clients), "clients")
		reportPoolStats(b, poolBefore)
	})

	b.Run("inproc-1k-traced", func(b *testing.B) {
		// Same fleet with the full observability plane attached — live
		// telemetry sink, per-attempt spans, round ledger. Budget vs the
		// nop-sink inproc-1k run: ≈1.4% attributable CPU, ~2 allocs per
		// client per round; see DESIGN.md §10 for the full accounting
		// (wall-clock deltas also carry GC re-scan of the retained
		// journals, which scales with the ring bounds, not round rate).
		const clients, dim = 1000, 65_536
		defer parallel.SetWorkers(parallel.SetWorkers(8))
		led := ledger.New(0)
		srv, err := fl.NewServer(fl.ServerConfig{
			InitialParams: scaleParams(dim),
			Jobs:          10,
			DeadlineRatio: 2,
			Seed:          1,
			Ledger:        led,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv.SetSink(obs.NewBoFL(obs.Real{}))
		for i := 0; i < clients; i++ {
			srv.Register(&echoParticipant{id: fmt.Sprintf("edge-%d", i), idx: i})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.RunRound()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Responses) != clients {
				b.Fatalf("%d responses", len(res.Responses))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clients), "clients")
		b.ReportMetric((float64(led.Len())+float64(led.Evicted()))/float64(b.N), "ledger_ev/round")
	})

	b.Run("http-loopback", func(b *testing.B) {
		// A few dozen daemons behind real HTTP servers, speaking the
		// binary frame codec end to end. The daemon side is the cheap
		// codec-only handler below, so the measurement is transport + codec,
		// not model training.
		const clients, dim = 32, 16_384
		defer parallel.SetWorkers(parallel.SetWorkers(16))
		params := scaleParams(dim)
		srv := newScaleServer(b, params)
		for i := 0; i < clients; i++ {
			ts := httptest.NewServer(codecEchoHandler(fmt.Sprintf("loop-%d", i)))
			defer ts.Close()
			p, err := fl.DialParticipant(ts.URL, 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if p.Codec() != fl.CodecBinary {
				b.Fatalf("codec %s", p.Codec())
			}
			srv.Register(p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := srv.RunRound()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Responses) != clients {
				b.Fatalf("%d responses", len(res.Responses))
			}
		}
		b.ReportMetric(float64(clients), "clients")
	})

	b.Run("codec-bytes", func(b *testing.B) {
		// Wire accounting on one CNN-sized request: JSON bytes vs binary
		// frame bytes. wire_x ≥ 4 is the PR's acceptance criterion.
		req := fl.RoundRequest{Round: 1, Params: scaleParams(100_000), Jobs: 10, Deadline: 60}
		var jsonBuf, binBuf bytes.Buffer
		if err := json.NewEncoder(&jsonBuf).Encode(req); err != nil {
			b.Fatal(err)
		}
		if err := fl.EncodeRoundRequest(&binBuf, req); err != nil {
			b.Fatal(err)
		}
		frame := binBuf.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := fl.EncodeRoundRequest(&buf, req); err != nil {
				b.Fatal(err)
			}
			if _, err := fl.DecodeRoundRequest(bytes.NewReader(frame)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(jsonBuf.Len()), "json_B")
		b.ReportMetric(float64(binBuf.Len()), "bin_B")
		b.ReportMetric(float64(jsonBuf.Len())/float64(binBuf.Len()), "wire_x")
	})
}

// codecEchoHandler is a minimal daemon: /v1/info advertises
// the codec, /v1/round echoes the parameters back through the frame codec.
func codecEchoHandler(id string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", fl.ContentTypeJSON)
		json.NewEncoder(w).Encode(fl.InfoResponse{
			ClientID:    id,
			Device:      "bench",
			TMinPerJob:  0.001,
			NumExamples: 64,
			Codecs:      []string{fl.CodecBinary},
		})
	})
	mux.HandleFunc("POST /v1/round", func(w http.ResponseWriter, r *http.Request) {
		req, err := fl.DecodeRoundRequest(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := fl.RoundResponse{
			ClientID:    id,
			Params:      req.Params,
			NumExamples: 64,
			Report:      core.RoundReport{Round: req.Round, DeadlineMet: true},
		}
		w.Header().Set("Content-Type", fl.ContentTypeBinary)
		if err := fl.EncodeRoundResponse(w, resp); err != nil {
			return
		}
	})
	return mux
}
