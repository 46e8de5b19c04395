package fl

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bofl/internal/obs"
)

func wireCount(t *obs.Telemetry, metric, codec string) float64 {
	return t.Registry.Counter(metric, "", obs.L("codec", codec)).Value()
}

// TestNegotiationBinaryBothEnds: a server dialing a daemon settles on the
// binary codec, the round works, and wire bytes are accounted under the
// binary label on both ends — and under no other label.
func TestNegotiationBinaryBothEnds(t *testing.T) {
	daemonTel := obs.New(nil)
	h := NewClientHandler(newTestClient(t, "bin-client", 31))
	h.SetTelemetry(daemonTel)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.Codec() != CodecBinary {
		t.Fatalf("negotiated %q, want %q", p.Codec(), CodecBinary)
	}
	serverTel := obs.New(nil)
	p.SetSink(serverTel)

	params := h.client.Params()
	resp, err := p.Round(RoundRequest{Round: 1, Params: params, Jobs: 20, Deadline: 60})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ClientID != "bin-client" || len(resp.Params) != len(params) {
		t.Fatalf("bad response: %q, %d params", resp.ClientID, len(resp.Params))
	}
	for _, check := range []struct {
		tel    *obs.Telemetry
		metric string
	}{
		{serverTel, obs.MetricFLWireTx},
		{serverTel, obs.MetricFLWireRx},
		{daemonTel, obs.MetricFLWireRx},
		{daemonTel, obs.MetricFLWireTx},
	} {
		if got := wireCount(check.tel, check.metric, CodecBinary); got <= 0 {
			t.Errorf("%s[binary] = %v, want > 0", check.metric, got)
		}
		if got := wireCount(check.tel, check.metric, "json"); got != 0 {
			t.Errorf("%s[json] = %v, want 0", check.metric, got)
		}
	}
}

// TestCompatNewServerOldDaemon: a daemon whose info does not list
// CodecBinary (a build that predates the frame, or one that advertises only
// JSON) is refused at dial time instead of being spoken to in JSON.
func TestCompatNewServerOldDaemon(t *testing.T) {
	for _, codecs := range [][]string{nil, {"json"}} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, InfoResponse{ClientID: "old-daemon", Device: "agx", TMinPerJob: 1, NumExamples: 8, Codecs: codecs})
		})
		ts := httptest.NewServer(mux)
		p, err := DialParticipant(ts.URL, 30*time.Second)
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), CodecBinary) {
			t.Fatalf("codecs %q: dial returned %v, %v; want a refusal naming %s", codecs, p, err, CodecBinary)
		}
	}
}

// TestCompatOldServerNewDaemon: a JSON round body (what a server that
// predates the frame posts) is a decode error: 400 and kind=decode, and no
// round runs.
func TestCompatOldServerNewDaemon(t *testing.T) {
	tel := obs.New(nil)
	c := newTestClient(t, "new-daemon", 33)
	h := NewClientHandler(c)
	h.SetTelemetry(tel)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var body bytes.Buffer
	req := RoundRequest{Round: 1, Params: c.Params(), Jobs: 20, Deadline: 60}
	if err := json.NewEncoder(&body).Encode(req); err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(ts.URL+"/v1/round", ContentTypeJSON, &body)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for a JSON round body", hr.StatusCode)
	}
	if got := errCount(tel, "round", "decode"); got != 1 {
		t.Errorf("decode error count = %v, want 1", got)
	}
	if got := errCount(tel, "round", "round"); got != 0 {
		t.Errorf("round error count = %v, want 0 (no round may run)", got)
	}
}

// TestTraceRoundtripBinary: over the BFL1 codec, a valid trace context rides
// out in both the header and the frame meta, the daemon stamps its client
// spans with it, and the span summaries come back in the binary response.
func TestTraceRoundtripBinary(t *testing.T) {
	h := NewClientHandler(newTestClient(t, "traced-bin", 41))
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.MintTrace(7, 1)
	resp, err := p.Round(RoundRequest{Round: 1, Params: h.client.Params(), Jobs: 20, Deadline: 60, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	assertClientSpans(t, resp)
}

// TestTraceInBandFallbackAndSanitization: with no X-Bofl-Trace header the
// daemon falls back to the in-band frame-meta trace — and sanitizes it, so a
// valid body trace yields spans while a hostile one degrades to untraced.
func TestTraceInBandFallbackAndSanitization(t *testing.T) {
	c := newTestClient(t, "traced-raw", 43)
	ts := httptest.NewServer(NewClientHandler(c))
	defer ts.Close()

	post := func(tc obs.TraceContext) RoundResponse {
		t.Helper()
		var body bytes.Buffer
		req := RoundRequest{Round: 1, Params: c.Params(), Jobs: 20, Deadline: 60, Trace: tc}
		if err := EncodeRoundRequest(&body, req); err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(ts.URL+"/v1/round", ContentTypeBinary, &body)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(hr.Body)
			t.Fatalf("status %d: %s", hr.StatusCode, msg)
		}
		resp, err := DecodeRoundResponse(hr.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	assertClientSpans(t, post(obs.MintTrace(7, 3)))
	if resp := post(obs.TraceContext{TraceID: `"}# HELP evil`, SpanID: "tooshort"}); len(resp.Spans) != 0 {
		t.Errorf("hostile in-band trace produced spans: %+v", resp.Spans)
	}
}

// FuzzRoundHandler posts arbitrary bodies to the round endpoint of a daemon
// around a tiny test client, with and without an X-Bofl-Trace header. The
// handler must never panic, every body the frame decoder rejects must get
// 400, and every 200 must carry a body that decodes as a response frame.
func FuzzRoundHandler(f *testing.F) {
	c := newTestClient(f, "fuzz-daemon", 45)
	h := NewClientHandler(c)
	post := func(body []byte, trace string) *httptest.ResponseRecorder {
		hr := httptest.NewRequest(http.MethodPost, "/v1/round", bytes.NewReader(body))
		hr.Header.Set("Content-Type", ContentTypeBinary)
		if trace != "" {
			hr.Header.Set(obs.TraceHeader, trace)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hr)
		return rec
	}
	var valid bytes.Buffer
	if err := EncodeRoundRequest(&valid, RoundRequest{Round: 1, Params: c.Params(), Jobs: 2, Deadline: 60}); err != nil {
		f.Fatal(err)
	}
	frame := valid.Bytes()
	if rec := post(frame, ""); rec.Code != http.StatusOK {
		f.Fatalf("valid seed frame got status %d: %s", rec.Code, rec.Body)
	}
	limbs := bytes.Clone(frame)
	limbs[4] |= 1 << 2 // the retired partial-aggregate flag
	jsonBody, err := json.Marshal(RoundRequest{Round: 1, Params: c.Params(), Jobs: 2, Deadline: 60})
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range [][]byte{frame, frame[:len(frame)/2], limbs, jsonBody, {}} {
		f.Add(body, "")
		f.Add(body, obs.MintTrace(7, 5).String())
	}

	f.Fuzz(func(t *testing.T, body []byte, trace string) {
		req, decErr := DecodeRoundRequest(bytes.NewReader(body))
		if decErr == nil && req.Jobs > 32 {
			// Training cost scales with the server-set job count; the
			// ingress paths under test do not.
			t.Skip("job count too large for a fuzz iteration")
		}
		rec := post(body, trace)
		if decErr != nil && rec.Code != http.StatusBadRequest {
			t.Fatalf("undecodable body (%v) got status %d, want 400", decErr, rec.Code)
		}
		if rec.Code != http.StatusOK {
			return
		}
		if ct := rec.Header().Get("Content-Type"); ct != ContentTypeBinary {
			t.Fatalf("200 reply has Content-Type %q", ct)
		}
		if _, err := DecodeRoundResponse(rec.Body); err != nil {
			t.Fatalf("200 reply is not a frame: %v", err)
		}
	})
}

// TestTraceNoSpanReportOptOut: a daemon with span reporting disabled ignores
// the inbound trace entirely and returns no span summaries.
func TestTraceNoSpanReportOptOut(t *testing.T) {
	h := NewClientHandler(newTestClient(t, "opted-out", 44))
	h.SetNoSpanReport(true)
	ts := httptest.NewServer(h)
	defer ts.Close()

	p, err := DialParticipant(ts.URL, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Round(RoundRequest{Round: 1, Params: h.client.Params(), Jobs: 20, Deadline: 60, Trace: obs.MintTrace(7, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Spans) != 0 {
		t.Errorf("opted-out daemon reported spans: %+v", resp.Spans)
	}
}

// assertClientSpans checks a traced response carries the client-side round
// span with a plausible duration.
func assertClientSpans(t *testing.T, resp RoundResponse) {
	t.Helper()
	if len(resp.Spans) == 0 {
		t.Fatal("traced round returned no client spans")
	}
	found := false
	for _, ss := range resp.Spans {
		if ss.Name == obs.SpanClientRound {
			found = true
			if ss.DurNs < 0 {
				t.Errorf("client span has negative duration %d", ss.DurNs)
			}
		}
	}
	if !found {
		t.Errorf("no %s span in %+v", obs.SpanClientRound, resp.Spans)
	}
}
