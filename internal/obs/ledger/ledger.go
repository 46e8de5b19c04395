// Package ledger is the serving plane's replayable round ledger: an
// append-only, structured event journal recording every attempt verdict the
// fault-injected call path produced (drop, crash, straggler, corrupt, retry),
// every quarantine and quorum decision, and per-client energy / latency /
// wire-byte attribution for each committed update.
//
// The ledger is the audit layer BoFL's per-round energy argument needs: a
// chaos round no longer just *happens* — it leaves a deterministic record of
// which client was dropped at which attempt and what the round paid for it.
// Determinism is structural: events are appended in participant index order
// (the server's round drain settles slots in that order independent of
// goroutine scheduling), every recorded quantity is derived from seeded
// virtual-time simulation or pure hash draws, and no wall-clock timestamp is
// ever recorded. Two runs of the same scenario under the same
// BOFL_CHAOS_SEED therefore serialize to byte-identical JSONL.
//
// Storage is a bounded in-memory ring (oldest events evicted first, eviction
// counted) with an optional streaming JSONL sink for durable journals.
package ledger

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Event kinds, in the order they appear within one round.
const (
	// KindRoundBegin opens a round: trace ID, selection size and deadline.
	KindRoundBegin = "round_begin"
	// KindAttempt records one participant attempt's verdict.
	KindAttempt = "attempt"
	// KindQuarantine records a client's exclusion for a corrupt frame.
	KindQuarantine = "quarantine"
	// KindQuorum records a round committing below full participation.
	KindQuorum = "quorum"
	// KindPartial records a tier aggregator forwarding its weighted partial
	// sum to its parent (hierarchical aggregation only).
	KindPartial = "partial"
	// KindSubtreeDrop records a tier aggregator discarding its whole subtree
	// for missing the per-tier quorum; the parent renormalizes over the
	// surviving siblings.
	KindSubtreeDrop = "subtree_drop"
	// KindCommit closes a successful round with survivor accounting.
	KindCommit = "commit"
	// KindAbort closes a failed round (no survivors / quorum miss /
	// validation failure).
	KindAbort = "abort"
)

// Attempt verdicts. "ok" is a folded update; everything else explains an
// attempt that produced none.
const (
	VerdictOK        = "ok"
	VerdictDrop      = "drop"
	VerdictCrash     = "crash"
	VerdictTimeout   = "timeout"
	VerdictStraggler = "straggler"
	VerdictCorrupt   = "corrupt"
	VerdictInvalid   = "invalid" // delivered, refused before the fold
	VerdictBudget    = "budget"
	VerdictError     = "error"
)

// Event is one ledger entry. Field order is the JSONL serialization order;
// numeric fields are omitted when zero so healthy rounds stay compact.
type Event struct {
	// Seq is the ledger-assigned sequence number (monotonic, starts at 1).
	Seq uint64 `json:"seq"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Round is the server round the event belongs to.
	Round int `json:"round"`
	// TraceID ties the event to the round's stitched distributed trace.
	TraceID string `json:"traceId,omitempty"`
	// SpanID is the attempt span carrying this event in the trace.
	SpanID string `json:"spanId,omitempty"`
	// Client is the participant id (attempt/quarantine events).
	Client string `json:"client,omitempty"`
	// Attempt is the zero-based attempt index within the round.
	Attempt int `json:"attempt,omitempty"`
	// Verdict is one of the Verdict* constants (attempt events).
	Verdict string `json:"verdict,omitempty"`
	// Deadline is the round deadline in seconds (round_begin events).
	Deadline float64 `json:"deadlineSeconds,omitempty"`
	// Selected is the number of participants chosen this round.
	Selected int `json:"selected,omitempty"`
	// Survivors is the number of updates folded into the commit.
	Survivors int `json:"survivors,omitempty"`
	// Tier is the aggregation-tree tier of a partial/subtree_drop event
	// (leaves fold into tier 0).
	Tier int `json:"tier,omitempty"`
	// Node is the tier-local node ordinal of a partial/subtree_drop event.
	Node int `json:"node,omitempty"`
	// Weight is the integer example-count weight a partial carries upward.
	Weight int64 `json:"weight,omitempty"`
	// EnergyJoules attributes the client's reported round energy.
	EnergyJoules float64 `json:"energyJoules,omitempty"`
	// LatencySeconds attributes the client's reported round busy time.
	LatencySeconds float64 `json:"latencySeconds,omitempty"`
	// WireTxBytes / WireRxBytes attribute serialized bytes moved for the
	// attempt (zero for in-process participants).
	WireTxBytes int64 `json:"wireTxBytes,omitempty"`
	WireRxBytes int64 `json:"wireRxBytes,omitempty"`
	// DelayNs is injected straggle latency charged to the attempt.
	DelayNs int64 `json:"delayNs,omitempty"`
	// BackoffNs is the seeded backoff wait that followed a failed attempt.
	BackoffNs int64 `json:"backoffNs,omitempty"`
	// Detail carries the failure message, if any.
	Detail string `json:"detail,omitempty"`
}

// DefaultMaxEvents bounds the in-memory ring: roomy enough for thousands of
// chaos rounds while capping worst-case memory in the tens of MB.
const DefaultMaxEvents = 1 << 16

// Ledger is an append-only event journal: a bounded in-memory ring plus an
// optional streaming JSONL sink. Safe for concurrent use, though the serving
// plane appends from its index-order round drain precisely so the order is
// deterministic.
type Ledger struct {
	mu      sync.Mutex
	events  []Event // ring storage, len ≤ max
	head    int     // index of the oldest event once the ring wrapped
	full    bool
	max     int
	seq     uint64
	evicted uint64

	sink    *bufio.Writer
	sinkErr error

	// roundCap bounds events journaled per round (0 = unlimited). Million-leaf
	// tree rounds emit one partial per aggregator node; the cap keeps a single
	// round from flushing the whole ring, and every suppressed event is
	// counted instead of silently vanishing.
	roundCap     int
	capRound     int    // round the in-round counter tracks
	capCount     int    // events journaled for capRound
	roundDropped uint64 // events suppressed by the cap, total
}

// New builds a ledger holding at most max events in memory (≤ 0 selects
// DefaultMaxEvents).
func New(max int) *Ledger {
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &Ledger{events: make([]Event, 0, min(max, 1024)), max: max}
}

// SetSink streams every subsequent append to w as one JSON line — the
// durable journal. The first write error latches (SinkErr) and stops further
// sink writes; in-memory appends continue, because the ledger must never take
// a round down.
func (l *Ledger) SetSink(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = bufio.NewWriter(w)
	l.sinkErr = nil
}

// SinkErr reports the latched sink write error, if any.
func (l *Ledger) SinkErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinkErr
}

// Flush drains the buffered sink writer. Nil-safe, like Append.
func (l *Ledger) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sink == nil {
		return l.sinkErr
	}
	if err := l.sink.Flush(); err != nil && l.sinkErr == nil {
		l.sinkErr = err
	}
	return l.sinkErr
}

// SetRoundCap bounds how many events any single round may journal (0 removes
// the bound). Events beyond the cap are dropped and counted via RoundDropped.
func (l *Ledger) SetRoundCap(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		n = 0
	}
	l.roundCap = n
}

// RoundDropped reports how many events the per-round cap suppressed.
func (l *Ledger) RoundDropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.roundDropped
}

// Append stamps the event with the next sequence number and journals it.
// Nil-safe, so call sites need no ledger-enabled branch.
func (l *Ledger) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.roundCap > 0 {
		if ev.Round != l.capRound {
			l.capRound, l.capCount = ev.Round, 0
		}
		if l.capCount >= l.roundCap {
			l.roundDropped++
			l.mu.Unlock()
			return
		}
		l.capCount++
	}
	l.seq++
	ev.Seq = l.seq
	if len(l.events) < l.max && !l.full {
		l.events = append(l.events, ev)
		if len(l.events) == l.max {
			l.full = true
		}
	} else {
		l.full = true
		l.events[l.head] = ev
		l.head = (l.head + 1) % l.max
		l.evicted++
	}
	if l.sink != nil && l.sinkErr == nil {
		b, err := json.Marshal(ev)
		if err == nil {
			_, err = l.sink.Write(append(b, '\n'))
		}
		if err != nil {
			l.sinkErr = err
		}
	}
	l.mu.Unlock()
}

// Len returns the number of events held in memory.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Evicted returns how many events the ring displaced.
func (l *Ledger) Evicted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Events returns a copy of the in-memory events, oldest first.
func (l *Ledger) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.events))
	if l.full && l.head > 0 {
		out = append(out, l.events[l.head:]...)
		out = append(out, l.events[:l.head]...)
	} else {
		out = append(out, l.events...)
	}
	return out
}

// WriteJSONL serializes the in-memory events as one JSON object per line.
// The encoding is deterministic (fixed field order, no timestamps), so two
// replays of a seeded scenario produce byte-identical output.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, l.Events())
}

// WriteJSONL writes events as JSONL.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL journal (as written by WriteJSONL or a sink).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("ledger: parse event %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}

// Handler serves the ledger over HTTP as JSONL (the /v1/ledger admin
// endpoint). ?round=N narrows to one round; ?kind=attempt narrows by kind.
// ?offset=K and ?limit=M page through the (seq-ordered, so stable) filtered
// stream — a million-leaf round's journal is never served as one unbounded
// body. X-Bofl-Ledger-Total carries the filtered count so clients know when
// to stop paging; X-Bofl-Ledger-Dropped surfaces the per-round cap counter.
func (l *Ledger) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := l.Events()
		if q := r.URL.Query().Get("round"); q != "" {
			round, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad round: "+q, http.StatusBadRequest)
				return
			}
			events = filter(events, func(ev Event) bool { return ev.Round == round })
		}
		if kind := r.URL.Query().Get("kind"); kind != "" {
			events = filter(events, func(ev Event) bool { return ev.Kind == kind })
		}
		total := len(events)
		offset, limit := 0, 0
		if q := r.URL.Query().Get("offset"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "bad offset: "+q, http.StatusBadRequest)
				return
			}
			offset = v
		}
		if q := r.URL.Query().Get("limit"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "bad limit: "+q, http.StatusBadRequest)
				return
			}
			limit = v
		}
		if offset > len(events) {
			offset = len(events)
		}
		events = events[offset:]
		if limit > 0 && limit < len(events) {
			events = events[:limit]
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Bofl-Ledger-Total", strconv.Itoa(total))
		w.Header().Set("X-Bofl-Ledger-Dropped", strconv.FormatUint(l.RoundDropped(), 10))
		_ = WriteJSONL(w, events)
	})
}

func filter(events []Event, keep func(Event) bool) []Event {
	out := events[:0:0]
	for _, ev := range events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// ClientSummary aggregates one client's ledger history.
type ClientSummary struct {
	Client       string  `json:"client"`
	Attempts     int     `json:"attempts"`
	Folded       int     `json:"folded"`
	Drops        int     `json:"drops"`
	Crashes      int     `json:"crashes"`
	Stragglers   int     `json:"stragglers"`
	Corrupt      int     `json:"corrupt"`
	Retries      int     `json:"retries"` // attempts beyond the first, per round
	Quarantines  int     `json:"quarantines"`
	EnergyJoules float64 `json:"energyJoules"`
	LatencySecs  float64 `json:"latencySeconds"`
	WireTxBytes  int64   `json:"wireTxBytes"`
	WireRxBytes  int64   `json:"wireRxBytes"`
}

// Summary is the roll-up of one ledger: per-client attribution plus round
// counts, the output of `boflprofile -ledger`.
type Summary struct {
	Rounds   int `json:"rounds"`
	Commits  int `json:"commits"`
	Aborts   int `json:"aborts"`
	Quorums  int `json:"quorums"`
	Attempts int `json:"attempts"`
	// Partials / SubtreeDrops count hierarchical-aggregation tier events.
	Partials     int             `json:"partials,omitempty"`
	SubtreeDrops int             `json:"subtreeDrops,omitempty"`
	Clients      []ClientSummary `json:"clients"`
	EnergyJ      float64         `json:"energyJoules"`
	LatencyS     float64         `json:"latencySeconds"`
	WireBytes    int64           `json:"wireBytes"`
}

// Summarize rolls a ledger up into per-client attribution (sorted by client
// id) and whole-run totals.
func Summarize(events []Event) Summary {
	var s Summary
	byClient := map[string]*ClientSummary{}
	rounds := map[int]bool{}
	for _, ev := range events {
		if ev.Round != 0 {
			rounds[ev.Round] = true
		}
		switch ev.Kind {
		case KindCommit:
			s.Commits++
		case KindAbort:
			s.Aborts++
		case KindQuorum:
			s.Quorums++
		case KindPartial:
			s.Partials++
		case KindSubtreeDrop:
			s.SubtreeDrops++
		case KindQuarantine:
			c := clientOf(byClient, ev.Client)
			c.Quarantines++
		case KindAttempt:
			s.Attempts++
			c := clientOf(byClient, ev.Client)
			c.Attempts++
			if ev.Attempt > 0 {
				c.Retries++
			}
			switch ev.Verdict {
			case VerdictOK:
				c.Folded++
				c.EnergyJoules += ev.EnergyJoules
				c.LatencySecs += ev.LatencySeconds
				s.EnergyJ += ev.EnergyJoules
				s.LatencyS += ev.LatencySeconds
			case VerdictDrop:
				c.Drops++
			case VerdictCrash:
				c.Crashes++
			case VerdictTimeout, VerdictStraggler:
				c.Stragglers++
			case VerdictCorrupt:
				c.Corrupt++
			}
			c.WireTxBytes += ev.WireTxBytes
			c.WireRxBytes += ev.WireRxBytes
			s.WireBytes += ev.WireTxBytes + ev.WireRxBytes
		}
	}
	s.Rounds = len(rounds)
	s.Clients = make([]ClientSummary, 0, len(byClient))
	for _, c := range byClient {
		s.Clients = append(s.Clients, *c)
	}
	sort.Slice(s.Clients, func(i, j int) bool { return s.Clients[i].Client < s.Clients[j].Client })
	return s
}

func clientOf(m map[string]*ClientSummary, id string) *ClientSummary {
	c := m[id]
	if c == nil {
		c = &ClientSummary{Client: id}
		m[id] = c
	}
	return c
}
