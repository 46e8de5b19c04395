package fl

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"bofl/internal/core"
	"bofl/internal/obs"
)

func sampleRequest(params []float64) RoundRequest {
	return RoundRequest{
		Round: 7, Params: params, Jobs: 40, Deadline: 61.5,
		Trace: obs.MintTrace(11, 7),
	}
}

func sampleResponse(params []float64) RoundResponse {
	return RoundResponse{
		ClientID:    "client-3",
		Params:      params,
		NumExamples: 128,
		Report: core.RoundReport{
			Round:       7,
			Energy:      12.5,
			Duration:    3.25,
			DeadlineMet: true,
			Phase:       2,
			FrontSize:   5,
		},
		Spans: []obs.SpanSummary{
			{Name: obs.SpanClientRound, StartNs: 0, DurNs: 3_250_000_000},
			{Name: obs.SpanClientWindow, StartNs: 3_250_000_000, DurNs: 1_000},
		},
	}
}

func paramsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	cases := map[string][]float64{
		"empty":    nil,
		"single":   {1.25},
		"f64":      {1.0 / 3.0, math.Pi, -2.7e-300, 1e300},
		"f32exact": {0.5, -1.25, 3, 0, 65504},
		"specials": {math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 42},
	}
	for name, params := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			req := sampleRequest(params)
			if err := EncodeRoundRequest(&buf, req); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeRoundRequest(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Round != req.Round || got.Jobs != req.Jobs || got.Deadline != req.Deadline {
				t.Errorf("meta mismatch: %+v vs %+v", got, req)
			}
			if got.Trace != req.Trace {
				t.Errorf("trace context mismatch: %+v vs %+v", got.Trace, req.Trace)
			}
			if !paramsEqual(got.Params, req.Params) {
				t.Errorf("params mismatch: %v vs %v", got.Params, req.Params)
			}

			buf.Reset()
			resp := sampleResponse(params)
			if err := EncodeRoundResponse(&buf, resp); err != nil {
				t.Fatal(err)
			}
			gotR, err := DecodeRoundResponse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotR.ClientID != resp.ClientID || gotR.NumExamples != resp.NumExamples ||
				gotR.Report.Round != resp.Report.Round || gotR.Report.Energy != resp.Report.Energy ||
				gotR.Report.DeadlineMet != resp.Report.DeadlineMet || gotR.Report.Phase != resp.Report.Phase {
				t.Errorf("meta mismatch: %+v vs %+v", gotR, resp)
			}
			if !paramsEqual(gotR.Params, resp.Params) {
				t.Errorf("params mismatch")
			}
			if len(gotR.Spans) != len(resp.Spans) {
				t.Fatalf("span summaries lost: %+v vs %+v", gotR.Spans, resp.Spans)
			}
			for i := range resp.Spans {
				if gotR.Spans[i] != resp.Spans[i] {
					t.Errorf("span %d mismatch: %+v vs %+v", i, gotR.Spans[i], resp.Spans[i])
				}
			}
		})
	}
}

// TestCodecF32Narrowing pins the flag choice: exactly-representable vectors
// take the 4-byte path, anything else (including NaN) the 8-byte path.
func TestCodecF32Narrowing(t *testing.T) {
	cases := []struct {
		name   string
		params []float64
		f32    bool
	}{
		{"exact", []float64{0.5, -1.25, float64(float32(0.1))}, true},
		{"inexact", []float64{0.1}, false},
		{"nan", []float64{math.NaN()}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(tc.params)); err != nil {
			t.Fatal(err)
		}
		flags := buf.Bytes()[4]
		if got := flags&flagF32 != 0; got != tc.f32 {
			t.Errorf("%s: f32 flag = %v, want %v", tc.name, got, tc.f32)
		}
	}
}

// TestCodecGzipThreshold drives payload sizes straddling gzipThreshold and
// checks the flag byte plus lossless decode on both sides of the boundary.
func TestCodecGzipThreshold(t *testing.T) {
	// Inexact values force the 8-byte element path, making the raw payload
	// size exactly 8·n.
	mk := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 0.1 + float64(i)
		}
		return out
	}
	cases := []struct {
		n    int
		gzip bool
	}{
		{gzipThreshold/8 - 1, false}, // one element below
		{gzipThreshold / 8, true},    // exactly at the threshold
		{gzipThreshold/8 + 1, true},  // one above
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		req := sampleRequest(mk(tc.n))
		if err := EncodeRoundRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		flags := buf.Bytes()[4]
		if got := flags&flagGzip != 0; got != tc.gzip {
			t.Errorf("n=%d: gzip flag = %v, want %v", tc.n, got, tc.gzip)
		}
		got, err := DecodeRoundRequest(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if !paramsEqual(got.Params, req.Params) {
			t.Errorf("n=%d: params corrupted through gzip boundary", tc.n)
		}
	}
}

// TestCodecTruncatedFrames cuts a valid frame at every byte offset; each
// prefix must produce an error, never a panic or a silent short decode.
func TestCodecTruncatedFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1.5, 2.5, 0.1})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for cut := 0; cut < len(frame); cut++ {
		_, err := DecodeRoundRequest(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(frame))
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("truncation at %d/%d bytes: error %v does not wrap ErrCorruptFrame", cut, len(frame), err)
		}
	}
	// The full frame still decodes.
	if _, err := DecodeRoundRequest(bytes.NewReader(frame)); err != nil {
		t.Fatal(err)
	}
}

// wantCorruptFrame asserts a decode failed with the typed corruption error,
// so callers (retry classification, quarantine) can rely on errors.Is.
func wantCorruptFrame(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s accepted", what)
		return
	}
	if !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("%s: error %v does not wrap ErrCorruptFrame", what, err)
	}
}

func TestCodecMalformedFrames(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1, 2})); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("bad magic", func(t *testing.T) {
		f := valid()
		f[0] = 'X'
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "bad magic")
	})
	t.Run("unknown flags", func(t *testing.T) {
		f := valid()
		f[4] |= 0x80
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "unknown flag bits")
	})
	t.Run("oversized meta claim", func(t *testing.T) {
		f := valid()
		binary.LittleEndian.PutUint32(f[5:9], maxMetaBytes+1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "oversized meta length")
	})
	t.Run("oversized param claim", func(t *testing.T) {
		f := valid()
		metaLen := binary.LittleEndian.Uint32(f[5:9])
		binary.LittleEndian.PutUint32(f[9+metaLen:], maxFrameParams+1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "oversized param count")
	})
	t.Run("payload length mismatch", func(t *testing.T) {
		f := valid()
		metaLen := binary.LittleEndian.Uint32(f[5:9])
		binary.LittleEndian.PutUint32(f[13+metaLen:], 1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "payload/count mismatch")
	})
	t.Run("non-json meta", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(frameMagic[:])
		buf.WriteByte(0)
		var lb [4]byte
		binary.LittleEndian.PutUint32(lb[:], 3)
		buf.Write(lb[:])
		buf.WriteString("{{{")
		binary.LittleEndian.PutUint32(lb[:], 0)
		buf.Write(lb[:]) // count 0
		buf.Write(lb[:]) // payload 0
		_, err := DecodeRoundRequest(&buf)
		wantCorruptFrame(t, err, "garbage meta")
	})
}

// TestPartialFrameRejectedByRoundDecoders pins the retired partial-aggregate
// flag: bit 2 once marked a tier frame of exact limbs, and neither round
// decoder may read such a frame's payload as params.
func TestPartialFrameRejectedByRoundDecoders(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	f := buf.Bytes()
	f[4] |= 1 << 2
	_, err := DecodeRoundRequest(bytes.NewReader(f))
	wantCorruptFrame(t, err, "retired limbs flag (request)")
	_, err = DecodeRoundResponse(bytes.NewReader(f))
	wantCorruptFrame(t, err, "retired limbs flag (response)")
}

// TestCodecTruncatedGzip cuts a gzip-compressed frame inside the deflate
// stream at every offset past the header: the inflater must surface a typed
// corruption error, never a panic, hang, or silent short read.
func TestCodecTruncatedGzip(t *testing.T) {
	// Inexact values force the 8-byte element path so 8·n crosses the gzip
	// threshold.
	params := make([]float64, gzipThreshold/8+64)
	for i := range params {
		params[i] = 0.1 + float64(i%7)
	}
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest(params)); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if frame[4]&flagGzip == 0 {
		t.Fatalf("frame of %d params did not take the gzip path", len(params))
	}
	// Step through the compressed payload region in strides; every prefix
	// must fail typed.
	for cut := len(frame) / 2; cut < len(frame); cut += 97 {
		_, err := DecodeRoundRequest(bytes.NewReader(frame[:cut]))
		wantCorruptFrame(t, err, fmt.Sprintf("gzip truncation at %d/%d", cut, len(frame)))
	}
	// A bit flip inside the deflate stream must also surface typed: either
	// the checksum or the payload-length check catches it.
	flipped := bytes.Clone(frame)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := DecodeRoundRequest(bytes.NewReader(flipped)); err != nil {
		wantCorruptFrame(t, err, "gzip bit flip")
	}
}

// TestCodecWireSavings pins the acceptance bar: on a CNN-sized vector of
// float32-valued weights (the realistic case — models train in single
// precision), the frame must be at least 4× smaller than the JSON encoding.
func TestCodecWireSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	params := make([]float64, 100_000)
	for i := range params {
		params[i] = float64(float32(rng.NormFloat64() * 0.05))
	}
	req := sampleRequest(params)

	var bin bytes.Buffer
	if err := EncodeRoundRequest(&bin, req); err != nil {
		t.Fatal(err)
	}
	jsonBytes := encodeJSONLen(t, req)
	ratio := float64(jsonBytes) / float64(bin.Len())
	if ratio < 4 {
		t.Errorf("binary frame only %.2fx smaller than JSON (%d vs %d bytes), want ≥4x",
			ratio, bin.Len(), jsonBytes)
	}
	got, err := DecodeRoundRequest(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !paramsEqual(got.Params, params) {
		t.Error("narrowed payload not lossless")
	}
}

func encodeJSONLen(t *testing.T, v any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// FuzzCodec feeds arbitrary bytes to the frame decoder: it must never panic,
// and whenever it does decode, a re-encode/re-decode cycle must reproduce the
// decoded value exactly (the codec is its own inverse on its image).
func FuzzCodec(f *testing.F) {
	seedVectors := [][]float64{
		nil,
		{1.5},
		{0.1, 0.2, 0.3},
		{math.NaN(), math.Inf(1)},
		make([]float64, gzipThreshold/8+4), // gzip path
	}
	for _, params := range seedVectors {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(params)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("BFL1"))
	f.Add([]byte{})
	// Damaged-wire seeds: truncations (including mid-gzip) and single bit
	// flips of otherwise valid frames, steering the fuzzer toward the
	// corruption-detection paths the chaos harness depends on.
	{
		big := make([]float64, gzipThreshold/8+16)
		for i := range big {
			big[i] = 0.1 + float64(i%5) // inexact → 8-byte path → gzip frame
		}
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, sampleRequest(big)); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame[:len(frame)/2]) // cut inside the deflate stream
		f.Add(frame[:9])            // cut inside the meta section
		f.Add(frame[:len(frame)-1]) // one byte short
		for _, off := range []int{0, 4, 9, len(frame) / 2, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[off] ^= 0x01
			f.Add(flipped)
		}
	}
	// Aux-section seeds: SCAFFOLD control-variate frames (plain, f32, gzip)
	// plus truncations and bit flips landing inside the aux section, steering
	// the fuzzer at the second vector section's structural checks.
	{
		bigAux := make([]float64, gzipThreshold/8+16)
		for i := range bigAux {
			bigAux[i] = 0.1 + float64(i%7)
		}
		for _, aux := range [][]float64{{0.25, -0.5}, {0.5, 1.25, -3}, bigAux} {
			var buf bytes.Buffer
			if err := EncodeRoundRequest(&buf, auxRequest([]float64{1.5, 0.1}, aux)); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, auxRequest([]float64{1, 2}, []float64{0.1, -0.2, 0.3})); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		off := auxSectionOffset(frame)
		f.Add(frame[:off+1])        // cut after the aux flags byte
		f.Add(frame[:off+5])        // cut inside the aux count
		f.Add(frame[:len(frame)-1]) // aux payload one byte short
		for _, at := range []int{4, off, off + 1, off + 9, len(frame) - 1} {
			flipped := bytes.Clone(frame)
			flipped[at] ^= 0x01
			f.Add(flipped)
		}
	}
	// Hostile trace-context seeds: the codec is deliberately faithful to
	// whatever trace strings were framed (sanitization is the HTTP handler's
	// job), so an oversized or injection-laden trace must still round-trip
	// byte-exactly without panicking or corrupting the frame.
	for _, hostile := range []obs.TraceContext{
		{TraceID: strings.Repeat("a", 4096), SpanID: strings.Repeat("f", 4096)},
		{TraceID: "\"}\n# HELP evil 1\nBFL1\x00\x01", SpanID: "-"},
	} {
		req := sampleRequest([]float64{1.5})
		req.Trace = hostile
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRoundRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		again, err := DecodeRoundRequest(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Round != req.Round || again.Jobs != req.Jobs || again.Deadline != req.Deadline {
			t.Fatalf("meta drift: %+v vs %+v", again, req)
		}
		if again.Trace != req.Trace {
			t.Fatalf("trace drift: %+v vs %+v", again.Trace, req.Trace)
		}
		if !paramsEqual(again.Params, req.Params) {
			t.Fatalf("param drift after round trip")
		}
		if again.Alg != req.Alg || again.Prox != req.Prox {
			t.Fatalf("alg meta drift: %q/%v vs %q/%v", again.Alg, again.Prox, req.Alg, req.Prox)
		}
		if !paramsEqual(again.Aux, req.Aux) {
			t.Fatalf("aux drift after round trip")
		}
	})
}

// auxRequest is sampleRequest carrying the SCAFFOLD protocol fields.
func auxRequest(params, aux []float64) RoundRequest {
	req := sampleRequest(params)
	req.Alg = AlgScaffold
	req.Prox = 0.25
	req.Aux = aux
	return req
}

// TestCodecAuxRoundTrip drives the control-variate payload section through
// every encoder path — f64, f32-narrowed, gzip-compressed, specials — and
// checks the aux vector and the new meta fields survive bit for bit.
func TestCodecAuxRoundTrip(t *testing.T) {
	big := make([]float64, gzipThreshold/8+32)
	for i := range big {
		big[i] = 0.1 + float64(i%9)
	}
	cases := map[string][]float64{
		"f64":      {1.0 / 3.0, -math.Pi, 2.5e-310},
		"f32exact": {0.5, -1.25, 3, 0},
		"specials": {math.NaN(), math.Inf(-1), math.Copysign(0, -1)},
		"gzip":     big,
	}
	for name, aux := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			req := auxRequest([]float64{1.5, 0.1}, aux)
			if err := EncodeRoundRequest(&buf, req); err != nil {
				t.Fatal(err)
			}
			if buf.Bytes()[4]&flagAux == 0 {
				t.Fatal("aux-carrying frame did not set flagAux")
			}
			got, err := DecodeRoundRequest(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Alg != req.Alg || got.Prox != req.Prox {
				t.Errorf("alg meta mismatch: %q/%v vs %q/%v", got.Alg, got.Prox, req.Alg, req.Prox)
			}
			if !paramsEqual(got.Params, req.Params) || !paramsEqual(got.Aux, req.Aux) {
				t.Error("vector sections corrupted")
			}

			buf.Reset()
			resp := sampleResponse([]float64{2.5})
			resp.Steps = 13
			resp.Aux = aux
			if err := EncodeRoundResponse(&buf, resp); err != nil {
				t.Fatal(err)
			}
			gotR, err := DecodeRoundResponse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotR.Steps != resp.Steps {
				t.Errorf("steps = %d, want %d", gotR.Steps, resp.Steps)
			}
			if !paramsEqual(gotR.Aux, resp.Aux) {
				t.Error("response aux corrupted")
			}
		})
	}
}

// TestCodecAuxlessFrameUnchanged pins backward compatibility: a frame with no
// aux vector must not set flagAux and must end exactly where the pre-aux
// format ended (no trailing section).
func TestCodecAuxlessFrameUnchanged(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRoundRequest(&buf, sampleRequest([]float64{1.5, 0.1})); err != nil {
		t.Fatal(err)
	}
	f := buf.Bytes()
	if f[4]&flagAux != 0 {
		t.Fatal("aux-less frame set flagAux")
	}
	metaLen := binary.LittleEndian.Uint32(f[5:9])
	payloadLen := binary.LittleEndian.Uint32(f[13+metaLen:])
	if want := int(17 + metaLen + payloadLen); len(f) != want {
		t.Fatalf("aux-less frame is %d bytes, want %d", len(f), want)
	}
}

// auxSectionOffset locates the aux section flag byte of an encoded frame.
func auxSectionOffset(f []byte) int {
	metaLen := binary.LittleEndian.Uint32(f[5:9])
	payloadLen := binary.LittleEndian.Uint32(f[13+metaLen:])
	return int(17 + metaLen + payloadLen)
}

// TestCodecAuxMalformed damages the aux section specifically — truncation at
// every offset, unknown section flags, count/length lies — and requires the
// typed corruption error every time.
func TestCodecAuxMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := EncodeRoundRequest(&buf, auxRequest([]float64{1, 2}, []float64{0.1, -0.2, 0.3})); err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(buf.Bytes())
	}
	full := valid()
	off := auxSectionOffset(full)

	t.Run("truncated", func(t *testing.T) {
		for cut := off; cut < len(full); cut++ {
			_, err := DecodeRoundRequest(bytes.NewReader(full[:cut]))
			wantCorruptFrame(t, err, fmt.Sprintf("aux truncation at %d/%d", cut, len(full)))
		}
	})
	t.Run("unknown section flags", func(t *testing.T) {
		f := valid()
		f[auxSectionOffset(f)] |= flagAux // aux flags allow only gzip|f32
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "reserved aux section flag")
	})
	t.Run("oversized count claim", func(t *testing.T) {
		f := valid()
		binary.LittleEndian.PutUint32(f[auxSectionOffset(f)+1:], maxFrameParams+1)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "oversized aux count")
	})
	t.Run("length mismatch", func(t *testing.T) {
		f := valid()
		binary.LittleEndian.PutUint32(f[auxSectionOffset(f)+5:], 7)
		_, err := DecodeRoundRequest(bytes.NewReader(f))
		wantCorruptFrame(t, err, "aux payload length lie")
	})
	t.Run("payload bit flip", func(t *testing.T) {
		// A flipped payload bit is undetectable without a checksum (the values
		// are arbitrary floats) but must never panic, and structural bits
		// (count, flags) are covered above. Flip and require decode to either
		// fail typed or produce a same-shape vector.
		f := valid()
		f[auxSectionOffset(f)+9] ^= 0x40
		req, err := DecodeRoundRequest(bytes.NewReader(f))
		if err != nil {
			wantCorruptFrame(t, err, "aux payload bit flip")
		} else if len(req.Aux) != 3 {
			t.Fatalf("bit flip changed aux shape: %d values", len(req.Aux))
		}
	})
}

// inflationBombFrame is a binary round response that claims claimed params
// behind a gzip section of zeros: concatenated 1 MiB gzip members, which
// inflate as one stream to claimed·8 bytes from about 1 KB each.
func inflationBombFrame(t *testing.T, claimed int) []byte {
	t.Helper()
	var member bytes.Buffer
	zw := gzip.NewWriter(&member)
	if _, err := zw.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(roundResponseMeta{ClientID: "bomb", NumExamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat(member.Bytes(), claimed*8/(1<<20))
	var f bytes.Buffer
	f.Write(frameMagic[:])
	f.WriteByte(flagGzip)
	binary.Write(&f, binary.LittleEndian, uint32(len(meta)))
	f.Write(meta)
	binary.Write(&f, binary.LittleEndian, uint32(claimed))
	binary.Write(&f, binary.LittleEndian, uint32(len(payload)))
	f.Write(payload)
	return f.Bytes()
}

// lyingFrame is a round-request frame whose header claims count params in
// a payload of payloadLen bytes under flags, followed by the given payload
// bytes only.
func lyingFrame(flags byte, count, payloadLen uint32, payload []byte) []byte {
	meta := []byte(`{"round":1}`)
	var f bytes.Buffer
	f.Write(frameMagic[:])
	f.WriteByte(flags)
	binary.Write(&f, binary.LittleEndian, uint32(len(meta)))
	f.Write(meta)
	binary.Write(&f, binary.LittleEndian, count)
	binary.Write(&f, binary.LittleEndian, payloadLen)
	f.Write(payload)
	return f.Bytes()
}

// TestRoundRequestBoundedByBytesReceived: a round request whose header
// claims 2^26 params (512 MiB) but carries no payload — 28 bytes in all —
// costs the daemon no memory, a daemon decodes no more params than its
// model has, and the frame decoder grows its buffers only with the bytes
// that arrive, for plain and gzip payloads alike.
func TestRoundRequestBoundedByBytesReceived(t *testing.T) {
	const claimed = 1 << 26
	lie := lyingFrame(0, claimed, claimed*8, nil)
	if len(lie) != 28 {
		t.Fatalf("lying frame is %d bytes, want 28", len(lie))
	}
	var member bytes.Buffer
	zw := gzip.NewWriter(&member)
	zw.Write(make([]byte, 64))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	gzipLie := lyingFrame(flagGzip, claimed, uint32(member.Len()), member.Bytes())
	h := NewClientHandler(newTestClient(t, "bounded", 46))

	const budget = 16 << 20
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if d := allocated(func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/round", bytes.NewReader(lie)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("daemon answered %d to the lying frame, want 400", rec.Code)
		}
	}); d >= budget {
		t.Errorf("daemon allocated %d MiB refusing a 28-byte request", d>>20)
	}
	// A complete frame one param longer than the daemon's model is refused
	// at decode, before the round runs.
	var over bytes.Buffer
	if err := EncodeRoundRequest(&over, RoundRequest{Round: 1, Params: make([]float64, h.client.Model().NumParams()+1), Jobs: 1, Deadline: 60}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/round", &over))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "decode round request") {
		t.Errorf("frame longer than the model: status %d, body %q; want 400 from the decoder", rec.Code, rec.Body)
	}
	for _, c := range []struct {
		name  string
		frame []byte
	}{{"plain", lie}, {"gzip", gzipLie}} {
		if d := allocated(func() {
			if _, err := DecodeRoundRequest(bytes.NewReader(c.frame)); !errors.Is(err, ErrCorruptFrame) {
				t.Errorf("%s: err %v, want ErrCorruptFrame", c.name, err)
			}
		}); d >= budget {
			t.Errorf("%s: decoding a %d-byte frame allocated %d MiB", c.name, len(c.frame), d>>20)
		}
	}
}

// TestRoundResponseBoundedByModel: a client that answers a 16-param round
// with more than 16 params is refused as a corrupt frame before anything is
// inflated or allocated, whatever it claims the body is. The inputs are a
// frame claiming 2^26 params — about half a megabyte of gzip that would
// inflate to 1 GiB — and a JSON body of ~60 MiB of "0," (31M params, just
// under the 64 MiB read cap) labelled application/json.
func TestRoundResponseBoundedByModel(t *testing.T) {
	jsonBomb := []byte(`{"clientId":"bomb","params":[` + strings.Repeat("0,", 30<<20) + `0]}`)
	for _, c := range []struct {
		name, contentType string
		body              []byte
	}{
		{"inflation bomb frame", ContentTypeBinary, inflationBombFrame(t, maxFrameParams)},
		{"json reply", ContentTypeJSON, jsonBomb},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", c.contentType)
				w.Write(c.body)
			}))
			defer ts.Close()
			p := &HTTPParticipant{baseURL: ts.URL, id: "bomb", perJob: 1, client: ts.Client(), sink: obs.Nop}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := p.Round(RoundRequest{Round: 1, Params: make([]float64, 16), Jobs: 1})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("oversized response: err %v, want ErrCorruptFrame", err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<20 {
				t.Fatalf("refusing the reply allocated %d MiB", d>>20)
			}
		})
	}
}
