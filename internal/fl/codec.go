package fl

// Wire codec for the FL data plane: the one format of RoundRequest and
// RoundResponse on the server↔daemon edge. A JSON array of float64s costs
// ~19 bytes per parameter once a value needs its full shortest-round-trip
// decimal form; the versioned binary frame costs 8 or 4:
//
//	offset  size  field
//	0       4     magic "BFL1" (version is part of the magic)
//	4       1     flags: bit0 payload gzipped, bit1 float32-narrowed,
//	              bit3 aux vector section present
//	5       4     uint32 LE: metadata length M
//	9       M     metadata (JSON: everything except Params)
//	9+M     4     uint32 LE: parameter count N
//	13+M    4     uint32 LE: payload length P in bytes
//	17+M    P     parameter payload, little-endian IEEE-754
//
// With flags bit3 set, a second self-describing vector section follows the
// parameter payload — the algorithm auxiliary vector (SCAFFOLD control
// variates): 1 byte of section flags (gzip/f32 only), then the same
// count/length/payload triplet. Aux-less frames are byte-identical to the
// pre-aux format.
//
// Two payload transforms, both lossless and both negotiated per frame by the
// encoder alone (the flags tell the decoder everything):
//
//   - float32 narrowing: when every parameter is exactly representable as a
//     float32 — the common case for models trained in single precision and
//     shipped through a float64 API — values are stored as 4-byte floats.
//     Widening on decode reproduces the input bit-for-bit.
//   - gzip: payloads at or above gzipThreshold are compressed. Model deltas
//     with structure (zero runs, repeated exponents) shrink further; fully
//     random mantissas cost a few header bytes and pass through.
//
// Frames are self-describing, so any decoder reads any frame any encoder
// produces. The codec advertised in InfoResponse.Codecs is CodecBinary.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"bofl/internal/core"
	"bofl/internal/obs"
)

// Codec and content-type identifiers of the HTTP transport.
const (
	// CodecBinary names the binary frame codec in InfoResponse.Codecs.
	CodecBinary = "bofl-frame-v1"
	// ContentTypeBinary is the Content-Type of a binary frame body.
	ContentTypeBinary = "application/x-bofl-frame"
	// ContentTypeJSON is the Content-Type of info and check-in bodies.
	ContentTypeJSON = "application/json"
)

var frameMagic = [4]byte{'B', 'F', 'L', '1'}

// ErrCorruptFrame tags every structural decode failure — truncation, bad
// magic, unknown flags, length-field lies, gzip damage, garbled metadata. The
// serving plane's quarantine path matches it with errors.Is to tell a client
// shipping damaged frames apart from a client that merely timed out, so the
// decoder must never surface a raw io or gzip error for hostile input.
var ErrCorruptFrame = errors.New("fl: corrupt frame")

const (
	flagGzip byte = 1 << 0 // payload section is gzip-compressed
	flagF32  byte = 1 << 1 // parameters stored as float32 (exact)
	// flagAux marks a frame carrying a second vector section after the
	// parameter payload — the algorithm auxiliary vector (SCAFFOLD control
	// variates). The section is self-describing: a 1-byte section flag
	// (gzip/f32, negotiated independently of the main payload) followed by
	// the same count/length/payload layout.
	flagAux byte = 1 << 3

	// gzipThreshold is the raw payload size in bytes at which the encoder
	// switches gzip on. Below it the ~20-byte gzip framing and the CPU cost
	// outweigh any win on small vectors.
	gzipThreshold = 64 << 10

	// Decoder sanity caps: a frame that claims more is rejected before any
	// allocation. Below them, payload buffers grow with the bytes that
	// arrive (readPayload), so truncated or hostile inputs cannot balloon
	// memory either.
	maxMetaBytes   = 1 << 20
	maxFrameParams = 1 << 26
)

// roundRequestMeta is RoundRequest minus the parameter vector. The trace
// fields carry the server-minted round trace context in-band, so a daemon
// behind a transport that strips custom headers still joins the stitched
// round trace.
type roundRequestMeta struct {
	Round    int     `json:"round"`
	Jobs     int     `json:"jobs"`
	Deadline float64 `json:"deadlineSeconds"`
	TraceID  string  `json:"traceId,omitempty"`
	SpanID   string  `json:"spanId,omitempty"`
	Alg      string  `json:"alg,omitempty"`
	Prox     float64 `json:"prox,omitempty"`
}

// roundResponseMeta is RoundResponse minus the parameter vector.
type roundResponseMeta struct {
	ClientID    string            `json:"clientId"`
	NumExamples int               `json:"numExamples"`
	Report      core.RoundReport  `json:"report"`
	Spans       []obs.SpanSummary `json:"spans,omitempty"`
	Steps       int               `json:"steps,omitempty"`
}

// Pooled scratch: frame assembly and payload staging reuse buffers across
// rounds so the steady-state encode path allocates only the caller-visible
// result. Buffers beyond maxPooledBytes are dropped instead of pinned.
const maxPooledBytes = 16 << 20

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBytes {
		bufPool.Put(b)
	}
}

var bytesPool = sync.Pool{New: func() any { return new([]byte) }}

// getBytes returns a pooled scratch slice of length n.
func getBytes(n int) *[]byte {
	p := bytesPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putBytes(p *[]byte) {
	if cap(*p) <= maxPooledBytes {
		bytesPool.Put(p)
	}
}

var gzipWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

var gzipReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

// f32Exact reports whether every parameter survives a round trip through
// float32 unchanged (NaNs never do, so they keep the 8-byte path and their
// payload bits).
func f32Exact(params []float64) bool {
	if len(params) == 0 {
		return false
	}
	for _, v := range params {
		if float64(float32(v)) != v {
			return false
		}
	}
	return true
}

// stageVec encodes one vector section into its wire form: the section flags
// (f32 narrowing, gzip) and the staged payload bytes. release returns the
// pooled scratch backing payload; callers must not touch payload after it.
func stageVec(vec []float64) (flags byte, payload []byte, release func(), err error) {
	elem := 8
	if f32Exact(vec) {
		flags |= flagF32
		elem = 4
	}
	raw := getBytes(len(vec) * elem)
	if elem == 4 {
		for i, v := range vec {
			binary.LittleEndian.PutUint32((*raw)[i*4:], math.Float32bits(float32(v)))
		}
	} else {
		for i, v := range vec {
			binary.LittleEndian.PutUint64((*raw)[i*8:], math.Float64bits(v))
		}
	}
	payload = *raw
	if len(payload) >= gzipThreshold {
		comp := getBuf()
		zw := gzipWriterPool.Get().(*gzip.Writer)
		zw.Reset(comp)
		_, werr := zw.Write(payload)
		cerr := zw.Close()
		gzipWriterPool.Put(zw)
		if werr != nil || cerr != nil {
			putBuf(comp)
			putBytes(raw)
			return 0, nil, func() {}, fmt.Errorf("fl: gzip frame payload: %w", firstErr(werr, cerr))
		}
		flags |= flagGzip
		payload = comp.Bytes()
		return flags, payload, func() { putBuf(comp); putBytes(raw) }, nil
	}
	return flags, payload, func() { putBytes(raw) }, nil
}

// writeVecSection writes a staged vector section: count, payload length,
// payload. scratch must have ≥ 8 bytes for the two length fields.
func writeVecSection(w io.Writer, scratch []byte, count int, payload []byte) error {
	binary.LittleEndian.PutUint32(scratch[:4], uint32(count))
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(len(payload)))
	if _, err := w.Write(scratch[:8]); err != nil {
		return fmt.Errorf("fl: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("fl: write frame payload: %w", err)
	}
	return nil
}

// encodeFrame writes one frame carrying meta, params and an optional aux
// vector to w. Aux-less frames are byte-identical to the pre-aux format.
func encodeFrame(w io.Writer, meta any, params, aux []float64) error {
	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("fl: encode frame meta: %w", err)
	}
	if len(mb) > maxMetaBytes {
		return fmt.Errorf("fl: frame meta %d bytes exceeds %d", len(mb), maxMetaBytes)
	}
	if len(params) > maxFrameParams || len(aux) > maxFrameParams {
		return fmt.Errorf("fl: %d params exceed frame limit %d", max(len(params), len(aux)), maxFrameParams)
	}

	flags, payload, release, err := stageVec(params)
	defer release()
	if err != nil {
		return err
	}
	if len(aux) > 0 {
		flags |= flagAux
	}

	var hdr [17]byte
	copy(hdr[:4], frameMagic[:])
	hdr[4] = flags
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(mb)))
	if _, err := w.Write(hdr[:9]); err != nil {
		return fmt.Errorf("fl: write frame header: %w", err)
	}
	if _, err := w.Write(mb); err != nil {
		return fmt.Errorf("fl: write frame meta: %w", err)
	}
	if err := writeVecSection(w, hdr[9:17], len(params), payload); err != nil {
		return err
	}
	if flags&flagAux == 0 {
		return nil
	}
	aflags, apayload, arelease, err := stageVec(aux)
	defer arelease()
	if err != nil {
		return err
	}
	hdr[8] = aflags
	if _, err := w.Write(hdr[8:9]); err != nil {
		return fmt.Errorf("fl: write frame header: %w", err)
	}
	return writeVecSection(w, hdr[9:17], len(aux), apayload)
}

// firstErr returns the first non-nil error (helper for the two-error gzip close).
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// payloadChunk is the buffer a payload read starts from when the pooled
// slice is smaller than the declared length; the buffer then doubles as
// bytes arrive.
const payloadChunk = 1 << 20

// readPayload reads exactly n bytes from r into a pooled slice (release it
// with putBytes, also on error). The slice grows only as bytes arrive, so a
// length field that lies costs the decoder about what the sender actually
// sent, not what it claimed.
func readPayload(r io.Reader, n int) (*[]byte, error) {
	p := bytesPool.Get().(*[]byte)
	buf := (*p)[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), payloadChunk), n-len(buf)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			*p = buf
			return p, err
		}
	}
	*p = buf
	return p, nil
}

// readVec reads one vector section (count, payload length, payload) under
// the given section flags, validating every declared length — count against
// limit — before reading, and growing its buffers only with the bytes that
// arrive.
func readVec(r io.Reader, flags byte, limit int) ([]float64, error) {
	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	count := binary.LittleEndian.Uint32(tail[:4])
	payloadLen := binary.LittleEndian.Uint32(tail[4:8])
	if int64(count) > int64(limit) {
		return nil, fmt.Errorf("%w: claims %d params, limit %d", ErrCorruptFrame, count, limit)
	}
	elem := 8
	if flags&flagF32 != 0 {
		elem = 4
	}
	rawLen := int(count) * elem
	if flags&flagGzip == 0 {
		if int(payloadLen) != rawLen {
			return nil, fmt.Errorf("%w: payload %d bytes, want %d", ErrCorruptFrame, payloadLen, rawLen)
		}
	} else if int64(payloadLen) > int64(rawLen)+(64<<10) {
		// gzip never expands beyond a small framing overhead; anything
		// bigger is a length-field lie.
		return nil, fmt.Errorf("%w: gzip payload %d bytes for %d raw", ErrCorruptFrame, payloadLen, rawLen)
	}

	payload, err := readPayload(r, int(payloadLen))
	defer putBytes(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: read payload: %w", ErrCorruptFrame, err)
	}

	raw := *payload
	if flags&flagGzip != 0 {
		// Truncated or bit-flipped gzip sections surface here as gzip.Reset,
		// short-inflate or checksum errors — all corrupt-frame conditions, so
		// the quarantine path can count them.
		zr := gzipReaderPool.Get().(*gzip.Reader)
		defer gzipReaderPool.Put(zr)
		if err := zr.Reset(bytes.NewReader(*payload)); err != nil {
			return nil, fmt.Errorf("%w: gzip payload: %w", ErrCorruptFrame, err)
		}
		inflated, err := readPayload(zr, rawLen)
		defer putBytes(inflated)
		if err != nil {
			return nil, fmt.Errorf("%w: inflate payload: %w", ErrCorruptFrame, err)
		}
		var one [1]byte
		if n, _ := zr.Read(one[:]); n != 0 {
			return nil, fmt.Errorf("%w: payload inflates past %d declared params", ErrCorruptFrame, count)
		}
		raw = *inflated
	}

	out := make([]float64, count)
	if elem == 4 {
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		}
	} else {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return out, nil
}

// decodeFrame reads one frame from r, unmarshals the metadata into meta and
// returns the parameter vector plus the aux vector (nil unless the frame set
// flagAux), each at most limit long. Truncated, oversized or malformed frames
// return an error wrapping ErrCorruptFrame; decodeFrame never panics on
// hostile input.
func decodeFrame(r io.Reader, meta any, limit int) ([]float64, []float64, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptFrame, hdr[:4])
	}
	flags := hdr[4]
	if flags&^(flagGzip|flagF32|flagAux) != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags %#x", ErrCorruptFrame, flags)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[5:9])
	if metaLen > maxMetaBytes {
		return nil, nil, fmt.Errorf("%w: meta %d bytes exceeds %d", ErrCorruptFrame, metaLen, maxMetaBytes)
	}
	mb := getBytes(int(metaLen))
	defer putBytes(mb)
	if _, err := io.ReadFull(r, *mb); err != nil {
		return nil, nil, fmt.Errorf("%w: read meta: %w", ErrCorruptFrame, err)
	}
	if err := json.Unmarshal(*mb, meta); err != nil {
		return nil, nil, fmt.Errorf("%w: decode meta: %w", ErrCorruptFrame, err)
	}

	params, err := readVec(r, flags, limit)
	if err != nil {
		return nil, nil, err
	}
	var aux []float64
	if flags&flagAux != 0 {
		var ab [1]byte
		if _, err := io.ReadFull(r, ab[:]); err != nil {
			return nil, nil, fmt.Errorf("%w: read aux header: %w", ErrCorruptFrame, err)
		}
		if ab[0]&^(flagGzip|flagF32) != 0 {
			return nil, nil, fmt.Errorf("%w: unknown aux flags %#x", ErrCorruptFrame, ab[0])
		}
		if aux, err = readVec(r, ab[0], limit); err != nil {
			return nil, nil, err
		}
	}
	return params, aux, nil
}

// EncodeRoundRequest writes req to w as one binary frame.
func EncodeRoundRequest(w io.Writer, req RoundRequest) error {
	return encodeFrame(w, roundRequestMeta{
		Round: req.Round, Jobs: req.Jobs, Deadline: req.Deadline,
		TraceID: req.Trace.TraceID, SpanID: req.Trace.SpanID,
		Alg: req.Alg, Prox: req.Prox,
	}, req.Params, req.Aux)
}

// DecodeRoundRequest reads one binary frame from r. Trace fields are decoded
// faithfully (the codec roundtrips whatever was framed); ingress validation
// against hostile values is the handler's job via TraceContext.Sanitized.
func DecodeRoundRequest(r io.Reader) (RoundRequest, error) {
	return decodeRoundRequest(r, maxFrameParams)
}

// decodeRoundRequest reads one binary frame from r whose params and aux
// hold at most limit values each.
func decodeRoundRequest(r io.Reader, limit int) (RoundRequest, error) {
	var meta roundRequestMeta
	params, aux, err := decodeFrame(r, &meta, limit)
	if err != nil {
		return RoundRequest{}, err
	}
	return RoundRequest{
		Round: meta.Round, Params: params, Jobs: meta.Jobs, Deadline: meta.Deadline,
		Trace: obs.TraceContext{TraceID: meta.TraceID, SpanID: meta.SpanID},
		Alg:   meta.Alg, Prox: meta.Prox, Aux: aux,
	}, nil
}

// EncodeRoundResponse writes resp to w as one binary frame.
func EncodeRoundResponse(w io.Writer, resp RoundResponse) error {
	return encodeFrame(w, roundResponseMeta{
		ClientID: resp.ClientID, NumExamples: resp.NumExamples,
		Report: resp.Report, Spans: resp.Spans, Steps: resp.Steps,
	}, resp.Params, resp.Aux)
}

// DecodeRoundResponse reads one binary frame from r.
func DecodeRoundResponse(r io.Reader) (RoundResponse, error) {
	return decodeRoundResponse(r, maxFrameParams)
}

// decodeRoundResponse reads one binary frame from r whose params and aux
// hold at most limit values each.
func decodeRoundResponse(r io.Reader, limit int) (RoundResponse, error) {
	var meta roundResponseMeta
	params, aux, err := decodeFrame(r, &meta, limit)
	if err != nil {
		return RoundResponse{}, err
	}
	return RoundResponse{
		ClientID: meta.ClientID, Params: params, NumExamples: meta.NumExamples,
		Report: meta.Report, Spans: meta.Spans, Steps: meta.Steps, Aux: aux,
	}, nil
}
