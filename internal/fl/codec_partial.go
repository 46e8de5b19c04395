package fl

// Partial-aggregate frames: the tier-to-tier wire format of hierarchical
// aggregation across a process edge. A tier aggregator folds its children
// exactly (internal/exact) and ships the accumulator window — not a rounded
// float64 vector — to its parent, so the root commit is bit-identical to the
// flat fold no matter how the tree is shaped. In-process tiers (tree.go, the
// fleet simulator) merge limbs directly and never build a frame; the codec is
// the format a multi-process tier deployment would move. The frame reuses the
// BFL1 layout with a new flag bit (flagLimbs): the payload section carries
// little-endian uint64 limbs instead of IEEE-754 parameters, and the metadata
// section carries the tier topology plus the exact-accumulator window
// descriptor. Round request/response decoders keep rejecting the bit — a
// partial frame can never be smuggled into the client data plane.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"bofl/internal/exact"
	"bofl/internal/obs"
)

// flagLimbs marks a partial-aggregate frame: payload is uint64 limbs of an
// exact accumulator window, not float64 parameters.
const flagLimbs byte = 1 << 2

// PartialAggregate is one tier aggregator's weighted partial sum plus the
// topology needed to audit it: which tier and node produced it, which leaf
// span it covers, how many leaves survived into it and their total integer
// weight. Sum is the exact accumulator window; the parent absorbs it without
// rounding.
type PartialAggregate struct {
	Round     int
	Tier      int // tier of the producing aggregator (leaves fold into tier 0)
	Node      int // tier-local node ordinal, left to right
	LeafLo    int // first leaf index of the node's span (inclusive)
	LeafHi    int // last leaf index of the node's span (inclusive)
	Survivors int // leaves folded into the partial
	Weight    int64
	Sum       exact.Serialized
	Trace     obs.TraceContext
}

// partialMeta is the frame metadata section of a partial-aggregate frame.
type partialMeta struct {
	Round     int     `json:"round"`
	Tier      int     `json:"tier"`
	Node      int     `json:"node"`
	LeafLo    int     `json:"leafLo"`
	LeafHi    int     `json:"leafHi"`
	Survivors int     `json:"survivors"`
	Weight    int64   `json:"weight"`
	Dim       int     `json:"dim"`
	WindowLo  int     `json:"windowLo"`
	WindowHi  int     `json:"windowHi"`
	Adds      int64   `json:"adds"`
	Specials  []uint8 `json:"specials,omitempty"` // JSON base64
	TraceID   string  `json:"traceId,omitempty"`
	SpanID    string  `json:"spanId,omitempty"`
}

// EncodePartialAggregate writes pa to w as one BFL1 frame with the limbs flag
// set. Large windows gzip like any other payload.
func EncodePartialAggregate(w io.Writer, pa PartialAggregate) error {
	meta := partialMeta{
		Round: pa.Round, Tier: pa.Tier, Node: pa.Node,
		LeafLo: pa.LeafLo, LeafHi: pa.LeafHi,
		Survivors: pa.Survivors, Weight: pa.Weight,
		Dim: pa.Sum.Dim, WindowLo: pa.Sum.Lo, WindowHi: pa.Sum.Hi, Adds: pa.Sum.Adds,
		Specials: pa.Sum.Specials,
		TraceID:  pa.Trace.TraceID, SpanID: pa.Trace.SpanID,
	}
	mb, err := jsonMarshalMeta(meta)
	if err != nil {
		return err
	}
	if len(pa.Sum.Limbs) > maxFrameParams {
		return fmt.Errorf("fl: %d limbs exceed frame limit %d", len(pa.Sum.Limbs), maxFrameParams)
	}
	flags := flagLimbs
	raw := getBytes(len(pa.Sum.Limbs) * 8)
	defer putBytes(raw)
	for i, l := range pa.Sum.Limbs {
		binary.LittleEndian.PutUint64((*raw)[i*8:], l)
	}
	payload := *raw
	var comp *bytes.Buffer
	if len(payload) >= gzipThreshold {
		comp = getBuf()
		defer putBuf(comp)
		zw := gzipWriterPool.Get().(*gzip.Writer)
		zw.Reset(comp)
		_, werr := zw.Write(payload)
		cerr := zw.Close()
		gzipWriterPool.Put(zw)
		if werr != nil || cerr != nil {
			return fmt.Errorf("fl: gzip partial payload: %w", firstErr(werr, cerr))
		}
		flags |= flagGzip
		payload = comp.Bytes()
	}

	var hdr [17]byte
	copy(hdr[:4], frameMagic[:])
	hdr[4] = flags
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(mb)))
	if _, err := w.Write(hdr[:9]); err != nil {
		return fmt.Errorf("fl: write partial header: %w", err)
	}
	if _, err := w.Write(mb); err != nil {
		return fmt.Errorf("fl: write partial meta: %w", err)
	}
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(pa.Sum.Limbs)))
	binary.LittleEndian.PutUint32(hdr[13:17], uint32(len(payload)))
	if _, err := w.Write(hdr[9:17]); err != nil {
		return fmt.Errorf("fl: write partial header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("fl: write partial payload: %w", err)
	}
	return nil
}

// DecodePartialAggregate reads one partial-aggregate frame. Structural damage
// returns ErrCorruptFrame exactly like the round codecs; a decoded frame still
// has to pass exact.Vec.Absorb's window validation before it can touch an
// accumulator.
func DecodePartialAggregate(r io.Reader) (PartialAggregate, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return PartialAggregate{}, fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return PartialAggregate{}, fmt.Errorf("%w: bad magic %q", ErrCorruptFrame, hdr[:4])
	}
	flags := hdr[4]
	if flags&flagLimbs == 0 || flags&^(flagGzip|flagLimbs) != 0 {
		return PartialAggregate{}, fmt.Errorf("%w: not a partial-aggregate frame (flags %#x)", ErrCorruptFrame, flags)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[5:9])
	if metaLen > maxMetaBytes {
		return PartialAggregate{}, fmt.Errorf("%w: meta %d bytes exceeds %d", ErrCorruptFrame, metaLen, maxMetaBytes)
	}
	mb := make([]byte, metaLen)
	if _, err := io.ReadFull(r, mb); err != nil {
		return PartialAggregate{}, fmt.Errorf("%w: read meta: %w", ErrCorruptFrame, err)
	}
	var meta partialMeta
	if err := jsonUnmarshalMeta(mb, &meta); err != nil {
		return PartialAggregate{}, err
	}

	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return PartialAggregate{}, fmt.Errorf("%w: read header: %w", ErrCorruptFrame, err)
	}
	count := binary.LittleEndian.Uint32(tail[:4])
	payloadLen := binary.LittleEndian.Uint32(tail[4:8])
	if count > maxFrameParams {
		return PartialAggregate{}, fmt.Errorf("%w: claims %d limbs, limit %d", ErrCorruptFrame, count, maxFrameParams)
	}
	rawLen := int(count) * 8
	if flags&flagGzip == 0 {
		if int(payloadLen) != rawLen {
			return PartialAggregate{}, fmt.Errorf("%w: payload %d bytes, want %d", ErrCorruptFrame, payloadLen, rawLen)
		}
	} else if int64(payloadLen) > int64(rawLen)+(64<<10) {
		return PartialAggregate{}, fmt.Errorf("%w: gzip payload %d bytes for %d raw", ErrCorruptFrame, payloadLen, rawLen)
	}

	payload := getBytes(int(payloadLen))
	defer putBytes(payload)
	if _, err := io.ReadFull(r, *payload); err != nil {
		return PartialAggregate{}, fmt.Errorf("%w: read payload: %w", ErrCorruptFrame, err)
	}
	raw := *payload
	if flags&flagGzip != 0 {
		zr := gzipReaderPool.Get().(*gzip.Reader)
		defer gzipReaderPool.Put(zr)
		if err := zr.Reset(bytes.NewReader(*payload)); err != nil {
			return PartialAggregate{}, fmt.Errorf("%w: gzip payload: %w", ErrCorruptFrame, err)
		}
		inflated := getBytes(rawLen)
		defer putBytes(inflated)
		if _, err := io.ReadFull(zr, *inflated); err != nil {
			return PartialAggregate{}, fmt.Errorf("%w: inflate payload: %w", ErrCorruptFrame, err)
		}
		var one [1]byte
		if n, _ := zr.Read(one[:]); n != 0 {
			return PartialAggregate{}, fmt.Errorf("%w: payload inflates past %d declared limbs", ErrCorruptFrame, count)
		}
		raw = *inflated
	}

	var limbs []uint64
	if count > 0 {
		limbs = make([]uint64, count)
		for i := range limbs {
			limbs[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
	}
	return PartialAggregate{
		Round: meta.Round, Tier: meta.Tier, Node: meta.Node,
		LeafLo: meta.LeafLo, LeafHi: meta.LeafHi,
		Survivors: meta.Survivors, Weight: meta.Weight,
		Sum: exact.Serialized{
			Dim: meta.Dim, Lo: meta.WindowLo, Hi: meta.WindowHi,
			Adds: meta.Adds, Limbs: limbs, Specials: meta.Specials,
		},
		Trace: obs.TraceContext{TraceID: meta.TraceID, SpanID: meta.SpanID},
	}, nil
}
