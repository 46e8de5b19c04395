package fl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"bofl/internal/obs"
)

// HTTP transport: a client daemon serves its training endpoint over HTTP and
// the server drives it through an HTTPParticipant. Two endpoints:
//
//	GET  /v1/info           → InfoResponse
//	POST /v1/round          → RoundRequest ⇒ RoundResponse
//
// Info travels as JSON; both round bodies are always one BFL1 frame
// (codec.go). The daemon advertises CodecBinary in InfoResponse.Codecs and
// the server refuses, at dial time, a daemon that does not list it. A body
// that is not a frame is a decode error on either end: the daemon answers
// 400, the server reports ErrCorruptFrame, and the response decoder's
// model-size bound applies to every reply.
//
// This mirrors the configuration/execution/reporting flow of Figure 1 with a
// plain stdlib stack.

// InfoResponse advertises a client's identity and pace capabilities.
type InfoResponse struct {
	ClientID       string  `json:"clientId"`
	Device         string  `json:"device"`
	TMinPerJob     float64 `json:"tminPerJobSeconds"`
	NumExamples    int     `json:"numExamples"`
	ParamsChecksum int     `json:"paramsChecksum"`
	// Codecs lists the round codecs this daemon understands; the server
	// dials only daemons that list CodecBinary.
	Codecs []string `json:"codecs,omitempty"`
}

// flTransport is the process-wide HTTP transport shared by every
// HTTPParticipant and check-in call: connections to client daemons are kept
// alive across rounds instead of being re-dialed every round, and dials are
// individually bounded so one unreachable device cannot absorb the whole
// round timeout.
var flTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        0, // no global cap; per-host below
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// countingReader counts the bytes pulled through it, for wire accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ClientHandler exposes a *Client over HTTP.
type ClientHandler struct {
	client       *Client
	mux          *http.ServeMux
	sink         obs.Sink
	noSpanReport bool
}

var _ http.Handler = (*ClientHandler)(nil)

// NewClientHandler wraps a client.
func NewClientHandler(c *Client) *ClientHandler {
	h := &ClientHandler{client: c, mux: http.NewServeMux(), sink: obs.Nop}
	h.mux.HandleFunc("GET /v1/info", h.handleInfo)
	h.mux.HandleFunc("POST /v1/round", h.handleRound)
	return h
}

// SetNoSpanReport opts the daemon out of distributed tracing: incoming trace
// contexts are dropped at ingress, so local spans carry no trace labels and
// round responses return no span summaries (flclient -no-span-report).
func (h *ClientHandler) SetNoSpanReport(on bool) { h.noSpanReport = on }

// SetTelemetry installs a live telemetry backend: error counters flow into
// its registry and the introspection endpoints (/metrics, /healthz,
// /v1/telemetry) are mounted next to the API. Also propagates the sink to the
// wrapped client.
func (h *ClientHandler) SetTelemetry(t *obs.Telemetry) {
	if t == nil {
		return
	}
	h.sink = t
	h.client.SetSink(t)
	t.Mount(h.mux)
}

// ServeHTTP dispatches to the API endpoints.
func (h *ClientHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *ClientHandler) handleInfo(w http.ResponseWriter, r *http.Request) {
	perJob, err := h.client.TMin(1)
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "info"), obs.L("kind", "internal"))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	info := InfoResponse{
		ClientID:    h.client.ID(),
		Device:      h.client.dev.Name(),
		TMinPerJob:  perJob,
		NumExamples: h.client.NumExamples(),
		Codecs:      []string{CodecBinary},
	}
	writeJSON(w, info)
}

func (h *ClientHandler) handleRound(w http.ResponseWriter, r *http.Request) {
	// A round can only carry this daemon's model, so a frame claiming more
	// parameters is refused before any payload is read.
	body := &countingReader{r: io.LimitReader(r.Body, 64<<20)}
	req, err := decodeRoundRequest(body, h.client.Model().NumParams())
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "decode"))
		http.Error(w, fmt.Sprintf("decode round request: %v", err), http.StatusBadRequest)
		return
	}
	h.sink.Count(obs.MetricFLWireRx, float64(body.n), obs.L("codec", CodecBinary))

	// Trace-context ingress: the X-Bofl-Trace header wins (it survives even
	// proxies that re-encode the body); the codec meta fields are the in-band
	// fallback. Either way the value is sanitized here — a hostile or
	// oversized wire value degrades to "untraced", never into the span labels
	// or the exposition.
	if h.noSpanReport {
		req.Trace = obs.TraceContext{}
	} else if hdr, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		req.Trace = hdr
	} else {
		req.Trace = req.Trace.Sanitized()
	}

	p := &LocalParticipant{Client: h.client}
	resp, err := p.Round(req)
	if err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "round"))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	buf := getBuf()
	defer putBuf(buf)
	if err := EncodeRoundResponse(buf, resp); err != nil {
		h.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", "encode"))
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // headers already sent; nothing more we can do
	}
	h.sink.Count(obs.MetricFLWireTx, float64(buf.Len()), obs.L("codec", CodecBinary))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already sent; nothing more we can do.
		return
	}
}

// HTTPParticipant drives a remote client daemon.
type HTTPParticipant struct {
	baseURL string
	id      string
	perJob  float64
	client  *http.Client
	sink    obs.Sink

	// attemptTx/attemptRx record the serialized bytes the most recent Round
	// call moved, for per-attempt ledger attribution. The server calls one
	// participant sequentially within a round (retries are serial), so
	// last-write-wins is exact; atomics only guard cross-round races.
	attemptTx atomic.Int64
	attemptRx atomic.Int64
}

// lastWire reports the bytes moved by the most recent Round call,
// implementing the wireAccounter extension the round ledger reads.
func (p *HTTPParticipant) lastWire() (tx, rx int64) {
	return p.attemptTx.Load(), p.attemptRx.Load()
}

// SetSink installs a telemetry sink counting transport, status and decode
// failures against the remote daemon, plus wire bytes per codec.
func (p *HTTPParticipant) SetSink(s obs.Sink) { p.sink = obs.OrNop(s) }

// SetTransport replaces the participant's HTTP round-tripper — the hook the
// chaos harness uses to wrap the shared keep-alive transport in a
// faultinject.Transport. The client's timeout is preserved.
func (p *HTTPParticipant) SetTransport(rt http.RoundTripper) {
	p.client = &http.Client{Timeout: p.client.Timeout, Transport: rt}
}

// Codec reports the round codec, which is always CodecBinary.
func (p *HTTPParticipant) Codec() string { return CodecBinary }

// countErr increments the HTTP error counter for the round endpoint.
func (p *HTTPParticipant) countErr(kind string) {
	p.sink.Count(obs.MetricFLHTTPErrors, 1, obs.L("endpoint", "round"), obs.L("kind", kind))
}

var _ Participant = (*HTTPParticipant)(nil)

// DialParticipant contacts a client daemon, caches its identity and refuses
// a daemon that does not advertise CodecBinary. All
// participants share one keep-alive transport, so per-round requests reuse
// established connections.
func DialParticipant(baseURL string, timeout time.Duration) (*HTTPParticipant, error) {
	return dialParticipant(context.Background(), baseURL, timeout)
}

// DialParticipantContext is DialParticipant honoring a caller context, so a
// dial against a dead or hung endpoint aborts on cancellation instead of
// waiting out the full client timeout. It returns the Participant interface
// to match the Registry's dial hook.
func DialParticipantContext(ctx context.Context, baseURL string, timeout time.Duration) (Participant, error) {
	return dialParticipant(ctx, baseURL, timeout)
}

func dialParticipant(ctx context.Context, baseURL string, timeout time.Duration) (*HTTPParticipant, error) {
	hc := &http.Client{Timeout: timeout, Transport: flTransport}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/info", nil)
	if err != nil {
		return nil, fmt.Errorf("fl: dial %s: %w", baseURL, err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fl: dial %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fl: dial %s: status %s", baseURL, resp.Status)
	}
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("fl: dial %s: %w", baseURL, err)
	}
	if info.ClientID == "" || info.TMinPerJob <= 0 {
		return nil, fmt.Errorf("fl: dial %s: malformed info %+v", baseURL, info)
	}
	if !slices.Contains(info.Codecs, CodecBinary) {
		return nil, fmt.Errorf("fl: dial %s: daemon codecs %q lack %s", baseURL, info.Codecs, CodecBinary)
	}
	return &HTTPParticipant{
		baseURL: baseURL,
		id:      info.ClientID,
		perJob:  info.TMinPerJob,
		client:  hc,
		sink:    obs.Nop,
	}, nil
}

// ID returns the remote client's identifier.
func (p *HTTPParticipant) ID() string { return p.id }

// TMinFor scales the advertised per-job minimum latency.
func (p *HTTPParticipant) TMinFor(jobs int) (float64, error) {
	if jobs <= 0 {
		return 0, fmt.Errorf("fl: job count %d", jobs)
	}
	return p.perJob * float64(jobs), nil
}

// Round posts the round request to the daemon as one frame and decodes the
// reply as one frame.
func (p *HTTPParticipant) Round(req RoundRequest) (RoundResponse, error) {
	p.attemptTx.Store(0)
	p.attemptRx.Store(0)
	buf := getBuf()
	defer putBuf(buf)
	if err := EncodeRoundRequest(buf, req); err != nil {
		return RoundResponse{}, fmt.Errorf("fl: encode round: %w", err)
	}

	hreq, err := http.NewRequest(http.MethodPost, p.baseURL+"/v1/round", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return RoundResponse{}, fmt.Errorf("fl: round on %s: %w", p.id, err)
	}
	hreq.Header.Set("Content-Type", ContentTypeBinary)
	if req.Trace.Valid() {
		hreq.Header.Set(obs.TraceHeader, req.Trace.String())
	}
	resp, err := p.client.Do(hreq)
	if err != nil {
		p.countErr("transport")
		return RoundResponse{}, fmt.Errorf("fl: round on %s: %w", p.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.countErr("status")
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return RoundResponse{}, fmt.Errorf("fl: round on %s: %s: %s", p.id, resp.Status, bytes.TrimSpace(msg))
	}
	p.sink.Count(obs.MetricFLWireTx, float64(buf.Len()), obs.L("codec", CodecBinary))
	p.attemptTx.Store(int64(buf.Len()))

	// The reply is the client's update to req.Params, so neither of its
	// vectors can be longer: a frame claiming more, or a body that is not a
	// frame at all, is refused before it inflates anything.
	body := &countingReader{r: io.LimitReader(resp.Body, 64<<20)}
	out, err := decodeRoundResponse(body, len(req.Params))
	if err != nil {
		p.countErr("decode")
		return RoundResponse{}, fmt.Errorf("fl: decode round response: %w", err)
	}
	p.sink.Count(obs.MetricFLWireRx, float64(body.n), obs.L("codec", CodecBinary))
	p.attemptRx.Store(body.n)
	return out, nil
}
