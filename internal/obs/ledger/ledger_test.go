package ledger

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

func TestAppendStampsMonotonicSeq(t *testing.T) {
	l := New(0) // 0 → DefaultMaxEvents
	for i := 0; i < 5; i++ {
		l.Append(Event{Kind: KindAttempt, Round: i, Client: "c0"})
	}
	evs := l.Events()
	if len(evs) != 5 {
		t.Fatalf("Len = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if l.Evicted() != 0 {
		t.Errorf("Evicted = %d, want 0", l.Evicted())
	}
}

func TestRingEvictionKeepsNewestInOrder(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{Kind: KindAttempt, Round: i})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("Len = %d, want 4", len(evs))
	}
	if got := l.Evicted(); got != 6 {
		t.Errorf("Evicted = %d, want 6", got)
	}
	for i, ev := range evs {
		wantRound := 6 + i
		wantSeq := uint64(7 + i)
		if ev.Round != wantRound || ev.Seq != wantSeq {
			t.Errorf("event %d = round %d seq %d, want round %d seq %d",
				i, ev.Round, ev.Seq, wantRound, wantSeq)
		}
	}
}

func TestNilLedgerSafe(t *testing.T) {
	var l *Ledger
	l.Append(Event{Kind: KindCommit}) // must not panic
	if l.Len() != 0 || l.Evicted() != 0 || l.Events() != nil {
		t.Error("nil ledger reported state")
	}
	if err := l.Flush(); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
}

func sampleEvents() []Event {
	return []Event{
		{Kind: KindRoundBegin, Round: 1, TraceID: "aaaaaaaaaaaaaaaa", SpanID: "bbbbbbbbbbbbbbbb", Deadline: 12.5, Selected: 2},
		{Kind: KindAttempt, Round: 1, Client: "cli-0", Attempt: 0, Verdict: VerdictCrash, DelayNs: 100, Detail: "injected crash"},
		{Kind: KindAttempt, Round: 1, Client: "cli-0", Attempt: 1, Verdict: VerdictOK, EnergyJoules: 42.5, LatencySeconds: 9.25, WireTxBytes: 2048, WireRxBytes: 512, BackoffNs: 1000},
		{Kind: KindAttempt, Round: 1, Client: "cli-1", Attempt: 0, Verdict: VerdictOK, EnergyJoules: 40, LatencySeconds: 8.5},
		{Kind: KindCommit, Round: 1, Survivors: 2, Selected: 2},
	}
}

func TestJSONLRoundtripAndDeterminism(t *testing.T) {
	l := New(0)
	for _, ev := range sampleEvents() {
		l.Append(ev)
	}
	var a, b bytes.Buffer
	if err := l.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteJSONL calls over identical state differ")
	}
	back, err := ReadJSONL(&a)
	if err != nil {
		t.Fatal(err)
	}
	evs := l.Events()
	if len(back) != len(evs) {
		t.Fatalf("roundtrip length %d, want %d", len(back), len(evs))
	}
	for i := range back {
		if back[i] != evs[i] {
			t.Errorf("event %d mutated in roundtrip:\n got %+v\nwant %+v", i, back[i], evs[i])
		}
	}
	// Optional fields stay omitted: a commit event carries no verdict/client.
	if strings.Contains(a.String(), `"verdict":""`) {
		t.Error("empty optional fields serialized")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"kind\":\"attempt\"}\nnot json\n")); err == nil {
		t.Error("ReadJSONL accepted malformed input")
	}
	evs, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(evs) != 0 {
		t.Errorf("empty input: %v, %d events", err, len(evs))
	}
}

func TestSinkStreamsEveryAppend(t *testing.T) {
	l := New(2) // ring smaller than the event count: sink must still see all
	var buf bytes.Buffer
	l.SetSink(&buf)
	for _, ev := range sampleEvents() {
		l.Append(ev)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(sampleEvents()) {
		t.Fatalf("sink saw %d events, want %d (ring eviction must not drop sink writes)", len(evs), len(sampleEvents()))
	}
	if l.Len() != 2 {
		t.Errorf("ring Len = %d, want 2", l.Len())
	}
}

type failWriter struct{ err error }

func (w failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestSinkErrorLatches(t *testing.T) {
	l := New(0)
	boom := errors.New("disk full")
	l.SetSink(failWriter{boom})
	for i := 0; i < 3; i++ {
		l.Append(Event{Kind: KindAttempt})
	}
	if err := l.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want latched %v", err, boom)
	}
	if err := l.SinkErr(); !errors.Is(err, boom) {
		t.Errorf("SinkErr = %v, want %v", err, boom)
	}
	// In-memory ring keeps working after the sink dies.
	if l.Len() != 3 {
		t.Errorf("Len = %d after sink failure, want 3", l.Len())
	}
}

func TestHandlerFilters(t *testing.T) {
	l := New(0)
	for _, ev := range sampleEvents() {
		l.Append(ev)
	}
	l.Append(Event{Kind: KindRoundBegin, Round: 2, Selected: 1})

	get := func(target string) ([]Event, string) {
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		evs, err := ReadJSONL(rec.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", target, err)
		}
		return evs, rec.Header().Get("Content-Type")
	}

	all, ctype := get("/v1/ledger")
	if len(all) != 6 {
		t.Errorf("unfiltered: %d events, want 6", len(all))
	}
	if !strings.Contains(ctype, "ndjson") {
		t.Errorf("Content-Type = %q, want ndjson", ctype)
	}
	round1, _ := get("/v1/ledger?round=1")
	if len(round1) != 5 {
		t.Errorf("round=1: %d events, want 5", len(round1))
	}
	attempts, _ := get("/v1/ledger?kind=attempt")
	for _, ev := range attempts {
		if ev.Kind != KindAttempt {
			t.Errorf("kind filter leaked %q", ev.Kind)
		}
	}
	if len(attempts) != 3 {
		t.Errorf("kind=attempt: %d events, want 3", len(attempts))
	}
	both, _ := get("/v1/ledger?round=2&kind=round_begin")
	if len(both) != 1 || both[0].Round != 2 {
		t.Errorf("combined filter: %+v", both)
	}

	rec := httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ledger?round=notanint", nil))
	if rec.Code != 400 {
		t.Errorf("bad round filter: status %d, want 400", rec.Code)
	}
}

func TestSummarize(t *testing.T) {
	evs := []Event{
		{Kind: KindRoundBegin, Round: 1, Selected: 2},
		{Kind: KindAttempt, Round: 1, Client: "cli-1", Attempt: 0, Verdict: VerdictStraggler},
		{Kind: KindAttempt, Round: 1, Client: "cli-1", Attempt: 1, Verdict: VerdictOK, EnergyJoules: 10, LatencySeconds: 2, WireTxBytes: 100, WireRxBytes: 50},
		{Kind: KindAttempt, Round: 1, Client: "cli-0", Attempt: 0, Verdict: VerdictCrash},
		{Kind: KindAttempt, Round: 1, Client: "cli-0", Attempt: 1, Verdict: VerdictDrop},
		{Kind: KindAttempt, Round: 1, Client: "cli-0", Attempt: 2, Verdict: VerdictOK, EnergyJoules: 20, LatencySeconds: 3, WireTxBytes: 200, WireRxBytes: 60},
		{Kind: KindQuarantine, Round: 1, Client: "cli-0"},
		{Kind: KindCommit, Round: 1, Survivors: 2, Selected: 2},
	}
	sum := Summarize(evs)
	if sum.Rounds != 1 || sum.Commits != 1 || sum.Aborts != 0 {
		t.Errorf("totals: %+v", sum)
	}
	if len(sum.Clients) != 2 {
		t.Fatalf("clients: %d, want 2", len(sum.Clients))
	}
	// Sorted by client ID.
	c0, c1 := sum.Clients[0], sum.Clients[1]
	if c0.Client != "cli-0" || c1.Client != "cli-1" {
		t.Fatalf("client order: %q, %q", c0.Client, c1.Client)
	}
	if c0.Attempts != 3 || c0.Crashes != 1 || c0.Drops != 1 || c0.Folded != 1 || c0.Retries != 2 || c0.Quarantines != 1 {
		t.Errorf("cli-0 rollup: %+v", c0)
	}
	if c0.EnergyJoules != 20 || c0.LatencySecs != 3 || c0.WireTxBytes != 200 || c0.WireRxBytes != 60 {
		t.Errorf("cli-0 attribution: %+v", c0)
	}
	if c1.Attempts != 2 || c1.Stragglers != 1 || c1.Folded != 1 || c1.Retries != 1 {
		t.Errorf("cli-1 rollup: %+v", c1)
	}
	if c1.EnergyJoules != 10 {
		t.Errorf("cli-1 energy: %v", c1.EnergyJoules)
	}
}

// TestHandlerPagination checks ?offset=/?limit= paging: stable seq ordering,
// a total header for termination, and graceful edges.
func TestHandlerPagination(t *testing.T) {
	l := New(0)
	for i := 1; i <= 25; i++ {
		l.Append(Event{Kind: KindAttempt, Round: 1, Client: "c"})
	}
	get := func(target string) ([]Event, http.Header) {
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		evs, err := ReadJSONL(rec.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", target, err)
		}
		return evs, rec.Header()
	}
	page1, hdr := get("/v1/ledger?limit=10")
	if len(page1) != 10 || page1[0].Seq != 1 {
		t.Fatalf("page 1: %d events, first seq %d", len(page1), page1[0].Seq)
	}
	if hdr.Get("X-Bofl-Ledger-Total") != "25" {
		t.Errorf("total header %q, want 25", hdr.Get("X-Bofl-Ledger-Total"))
	}
	page2, _ := get("/v1/ledger?offset=10&limit=10")
	if len(page2) != 10 || page2[0].Seq != 11 {
		t.Fatalf("page 2: %d events, first seq %d", len(page2), page2[0].Seq)
	}
	page3, _ := get("/v1/ledger?offset=20&limit=10")
	if len(page3) != 5 || page3[0].Seq != 21 {
		t.Fatalf("page 3: %d events, first seq %d", len(page3), page3[0].Seq)
	}
	past, _ := get("/v1/ledger?offset=99")
	if len(past) != 0 {
		t.Fatalf("past-the-end offset returned %d events", len(past))
	}
	// Paging composes with filters: the total reflects the filtered count.
	_, hdr = get("/v1/ledger?kind=attempt&offset=0&limit=5")
	if hdr.Get("X-Bofl-Ledger-Total") != "25" {
		t.Errorf("filtered total %q", hdr.Get("X-Bofl-Ledger-Total"))
	}
	for _, bad := range []string{"?offset=-1", "?limit=-2", "?offset=x", "?limit=x"} {
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ledger"+bad, nil))
		if rec.Code != 400 {
			t.Errorf("GET %s: status %d, want 400", bad, rec.Code)
		}
	}
}

// TestRoundCapDropsAndCounts checks the per-round growth bound: events past
// the cap are suppressed (not ring-evicted) and counted, and the counter is
// surfaced through the HTTP handler.
func TestRoundCapDropsAndCounts(t *testing.T) {
	l := New(0)
	l.SetRoundCap(3)
	for round := 1; round <= 2; round++ {
		for i := 0; i < 5; i++ {
			l.Append(Event{Kind: KindAttempt, Round: round})
		}
	}
	if got := l.Len(); got != 6 {
		t.Fatalf("kept %d events, want 6", got)
	}
	if got := l.RoundDropped(); got != 4 {
		t.Fatalf("dropped %d events, want 4", got)
	}
	for _, ev := range l.Events() {
		if ev.Seq == 0 {
			t.Fatal("kept event missing seq")
		}
	}
	rec := httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ledger", nil))
	if got := rec.Header().Get("X-Bofl-Ledger-Dropped"); got != "4" {
		t.Errorf("dropped header %q, want 4", got)
	}
	// Lifting the cap resumes journaling.
	l.SetRoundCap(0)
	l.Append(Event{Kind: KindCommit, Round: 2})
	if got := l.Len(); got != 7 {
		t.Fatalf("post-uncap kept %d, want 7", got)
	}
}

// FuzzLedgerHandler drives /v1/ledger with arbitrary round, kind, offset and
// limit query values. The handler must never panic and must answer 200 or
// 400; a 200 must carry the filtered count in X-Bofl-Ledger-Total and a
// seq-ordered body that is exactly the [offset, offset+limit) window of the
// filtered stream, so never more lines than a positive limit.
func FuzzLedgerHandler(f *testing.F) {
	l := New(0)
	for round := 1; round <= 3; round++ {
		for _, ev := range sampleEvents() {
			ev.Round = round
			l.Append(ev)
		}
	}
	events := l.Events()
	for _, seed := range [][4]string{
		{"", "", "", ""},
		{"1", "attempt", "0", "2"},
		{"2", "commit", "99", "0"},
		{"", "attempt", "1", "3"},
		{"x", "", "", ""},
		{"", "", "-1", ""},
		{"", "", "", "-2"},
		{"3", "quorum", "", "1"},
		{"99999999999999999999", "", "", ""},
		{"", "", "9223372036854775807", "9223372036854775807"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}

	f.Fuzz(func(t *testing.T, round, kind, offset, limit string) {
		q := url.Values{"round": {round}, "kind": {kind}, "offset": {offset}, "limit": {limit}}
		rec := httptest.NewRecorder()
		l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/ledger?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for %s", rec.Code, q.Encode())
		}

		// A 200 means every non-empty value parsed.
		atoi := func(s string) int {
			if s == "" {
				return 0
			}
			v, err := strconv.Atoi(s)
			if err != nil {
				t.Fatalf("200 for unparsable %q in %s", s, q.Encode())
			}
			return v
		}
		var want []Event
		for _, ev := range events {
			if (round == "" || ev.Round == atoi(round)) && (kind == "" || ev.Kind == kind) {
				want = append(want, ev)
			}
		}
		if got := rec.Header().Get("X-Bofl-Ledger-Total"); got != strconv.Itoa(len(want)) {
			t.Fatalf("total header %q, filtered count %d, for %s", got, len(want), q.Encode())
		}
		want = want[min(atoi(offset), len(want)):]
		if n := atoi(limit); n > 0 && n < len(want) {
			want = want[:n]
		}
		got, err := ReadJSONL(rec.Body)
		if err != nil {
			t.Fatalf("body for %s: %v", q.Encode(), err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d lines, want %d, for %s", len(got), len(want), q.Encode())
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || (i > 0 && got[i].Seq <= got[i-1].Seq) {
				t.Fatalf("line %d has seq %d, want %d in seq order, for %s", i, got[i].Seq, want[i].Seq, q.Encode())
			}
		}
	})
}
