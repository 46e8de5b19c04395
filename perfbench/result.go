package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

// minRounds is the smallest measured sample per pass: round_s.tail is the
// highest percentile with at least ten rounds beyond it, so twenty rounds
// keep it at or above the median.
const minRounds = 20

// digestRound is the round whose model and ledger prefix are digested; every
// pass runs at least this many rounds, so digests compare across passes and
// runs at one seed whatever the measured round count.
const digestRound = 2

// result is what one pass of a workload measured.
type result struct {
	setup  []float64 // seconds per set-up
	rounds []float64 // wall seconds per measured round

	// Client updates: selected (attempted), committed into the model, and
	// reported past their deadline. energyJ is the virtual energy charged
	// to the committed updates (all simulated energy for the fleet).
	attempted, committed, misses int64
	energyJ                      float64

	modelDigest, ledgerDigest string
	checked                   int
	mismatches                []string

	// peakRSSMB is the process's resident-set high-water mark when the last
	// round ended, before any deferred output check ran.
	peakRSSMB float64

	// Runtime and pool counters summed over the measured rounds only.
	mallocs, gcCycles, fanouts, helperAcquires uint64
	ledgerEvents                               uint64

	// layers holds the per-layer breakdown (seconds per round, summed over
	// concurrent callers, and counts per round); filled by traced passes and,
	// for the cheap counters, by untraced ones too.
	layers map[string]float64
}

func (r *result) correct() bool {
	return len(r.mismatches) == 0 && r.checked > 0 && len(r.rounds) > 0
}

func (r *result) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func (r *result) energyPerUpdate() float64 {
	if r.committed == 0 {
		return 0
	}
	return r.energyJ / float64(r.committed)
}

func (r *result) roundTotal() float64 {
	s := 0.0
	for _, v := range r.rounds {
		s += v
	}
	return s
}

// perRound scales a pass total to a per-round figure.
func (r *result) perRound(v float64) float64 {
	if len(r.rounds) == 0 {
		return 0
	}
	return v / float64(len(r.rounds))
}

// roundLoop is the closed loop shared by every workload: round r+1 starts
// only after round r committed. It runs rounds until their summed wall time
// reaches o.seconds and at least minRounds ran, and it stops only after a
// whole number of units of unit rounds (a workload's episode), so a pass
// measures for the time it was given and never a partial episode. When
// o.rounds is set it runs exactly that many rounds instead. before and after
// run untimed around each round (oracles, checks, digests); only round itself
// is timed. Once the rounds are done and peak memory is read, it times
// setupRepeats throwaway builds of the workload's system with rebuild.
// Workloads build the system they measure once before the loop: the garbage
// of more builds would decide whether the program's large accumulators land
// on fresh or reused pages, and so whether their untouched pages count toward
// peak_rss_mb. No build runs between rounds either, where its garbage would
// pace the program's collections.
func roundLoop(res *result, o options, unit int, rebuild func() error, before, round, after func(r int) error) error {
	more := func(done int, measured float64) bool {
		if o.rounds > 0 {
			return done < o.rounds
		}
		return done < minRounds || done%unit != 0 || measured < o.seconds
	}
	// Every pass starts from a collected heap: the garbage of set-up does
	// not pace the first rounds' collections.
	runtime.GC()
	measured := 0.0
	for done := 0; more(done, measured); done++ {
		r := done + 1
		if err := before(r); err != nil {
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ps0 := parallel.Stats()
		t0 := time.Now()
		err := round(r)
		dt := time.Since(t0).Seconds()
		ps1 := parallel.Stats()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		measured += dt
		res.rounds = append(res.rounds, dt)
		res.mallocs += ms1.Mallocs - ms0.Mallocs
		res.gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		res.fanouts += ps1.Fanouts - ps0.Fanouts
		res.helperAcquires += ps1.HelperAcquires - ps0.HelperAcquires
		if err := after(r); err != nil {
			return err
		}
	}
	res.peakRSSMB = peakRSSMB()
	// Each throwaway build starts from a collected heap, so it reuses the
	// pages its predecessor freed instead of faulting in fresh ones; left to
	// the collector's pacing, which of the two happens varies run to run.
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		if err := timed(res, rebuild); err != nil {
			return err
		}
	}
	return nil
}

// setupRepeats is how many throwaway set-ups a pass times after its last
// round; setup_s is the median of these and the workload's own builds.
const setupRepeats = 24

// timed runs build and records its duration as a set-up sample.
func timed(res *result, build func() error) error {
	t0 := time.Now()
	if err := build(); err != nil {
		return err
	}
	res.setup = append(res.setup, time.Since(t0).Seconds())
	return nil
}

// modelDigest hashes a model's float64 bits.
func modelDigest(params []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ledgerTap follows a ledger round by round: it hands out the events
// appended since the last call and hashes them into the ledger digest until
// the digest round. The ring must hold at least one round of events.
type ledgerTap struct {
	led  *ledger.Ledger
	seen uint64
	h    hash.Hash
	// skipRx leaves response byte counts out of the digest. An HTTP client's
	// response meta carries its wall-clock span durations as JSON numbers,
	// so the frame length varies by a few bytes from run to run.
	skipRx bool
}

func newLedgerTap(led *ledger.Ledger) *ledgerTap {
	return &ledgerTap{led: led, h: sha256.New()}
}

// next returns the events appended since the previous call, or nil and false
// when more were appended than the ring holds.
func (t *ledgerTap) next() ([]ledger.Event, bool) {
	fresh := t.skip()
	if fresh > uint64(t.led.Len()) {
		return nil, false
	}
	evs := t.led.Events()
	return evs[len(evs)-int(fresh):], true
}

// skip counts the events appended since the previous call without copying
// them out of the ring.
func (t *ledgerTap) skip() uint64 {
	total := uint64(t.led.Len()) + t.led.Evicted()
	fresh := total - t.seen
	t.seen = total
	return fresh
}

func (t *ledgerTap) digest(evs []ledger.Event) error {
	if t.skipRx {
		evs = append([]ledger.Event(nil), evs...)
		for i := range evs {
			evs[i].WireRxBytes = 0
		}
	}
	w := bufio.NewWriter(t.h)
	if err := ledger.WriteJSONL(w, evs); err != nil {
		return err
	}
	return w.Flush()
}

func (t *ledgerTap) sum() string { return hex.EncodeToString(t.h.Sum(nil))[:16] }

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the highest whole percentile with at least ten of n
// samples beyond it, floored at the median.
func tailPercentile(n int) int {
	if n <= 0 {
		return 50
	}
	q := int(math.Floor(100 * float64(n-10) / float64(n)))
	if q < 50 {
		q = 50
	}
	return q
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	return procStatusKB("VmHWM:") / 1024
}

func procStatusKB(key string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				v, _ := strconv.ParseFloat(f[1], 64)
				return v
			}
		}
	}
	return 0
}

// host records where a result was taken, so results from different hosts
// are never compared.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go"`
}

func hostInfo(seed int64, name string, traced bool) host {
	return host{
		Workload: name, Seed: seed, Traced: traced,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: parallel.Workers(), GoVersion: runtime.Version(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}
