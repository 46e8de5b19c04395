package main

import (
	"fmt"

	"bofl/internal/faultinject"
	"bofl/internal/fleet"
	"bofl/internal/obs"
	"bofl/internal/obs/ledger"
	"bofl/internal/parallel"
)

// fleetUpdate is the benchmark's local update: an affine map whose
// coefficients and weight are hashed from (seed, client index), so no two
// clients share an update the way fleet.DefaultUpdate's 1,015-client cycle
// does. Real training updates do not repeat either.
func fleetUpdate(seed int64) fleet.UpdateFn {
	return func(i int, global, out []float64) int {
		h := mix(seed, i)
		a := 1 + (float64(h%1024)-512)/65536
		b := (float64((h>>10)%1024) - 512) / 8192
		for j, v := range global {
			out[j] = v*a + b
		}
		return 1 + int((h>>20)%29)
	}
}

// fleetFaults drops or crashes clients at the fleet layer.
func fleetFaults(seed int64) *faultinject.Plan {
	return &faultinject.Plan{Seed: seed, Default: faultinject.Profile{Drop: 0.03, Crash: 0.02}}
}

// shardSlot is one shard's UpdateFn timing for the current round, padded to
// its own cache line. A shard runs on one worker at a time, and rounds are
// separated by the engine's fan-out join, so plain fields suffice.
type shardSlot struct {
	first, last, sum, calls int64
	_                       [32]byte
}

// fleetTrace times the benchmark's own UpdateFn per shard. The first and
// last call of a shard bound the time a worker spent in it.
type fleetTrace struct {
	clk   clock
	span  int // leaves per shard
	slots []shardSlot
	off   bool // oracle calls are not recorded
}

func (t *fleetTrace) wrap(inner fleet.UpdateFn) fleet.UpdateFn {
	return func(i int, global, out []float64) int {
		if t.off {
			return inner(i, global, out)
		}
		t0 := t.clk.now()
		w := inner(i, global, out)
		t1 := t.clk.now()
		s := &t.slots[i/t.span]
		if s.calls == 0 {
			s.first = t0
		}
		s.last = t1
		s.sum += t1 - t0
		s.calls++
		return w
	}
}

// fleetSystem is one built fleet workload; ft and tel are nil when
// untraced.
type fleetSystem struct {
	eng *fleet.Engine
	ft  *fleetTrace
	tel *obs.Telemetry
	led *ledger.Ledger
}

func buildFleet(seed int64, clients, dim, fanout int, traced bool, clk clock) (*fleetSystem, error) {
	sys := &fleetSystem{}
	update := fleetUpdate(seed)
	var sink obs.Sink
	if traced {
		sys.ft = &fleetTrace{clk: clk}
		update = sys.ft.wrap(update)
		sys.tel = newSink()
		sink = sys.tel
	}
	// Two rounds of partial-frame events (one per aggregator) fit in the
	// ring.
	sys.led = ledger.New(2*clients/(fanout-1) + 4096)
	e, err := fleet.New(fleet.Config{
		Clients: clients, Dim: dim, Fanout: fanout, Jobs: 1,
		Seed: seed, TierQuorum: 0, Fault: fleetFaults(seed),
		Ledger: sys.led, Update: update, Sink: sink,
	})
	if err != nil {
		return nil, err
	}
	if sys.ft != nil {
		n, span := e.Shards()
		sys.ft.span, sys.ft.slots = span, make([]shardSlot, n)
	}
	sys.eng = e
	return sys, nil
}

func runFleet(o options, traced bool) (*result, error) {
	clients, dim, fanout := 1_000_000, 256, 64
	if o.small {
		clients, dim, fanout = 50_000, 64, 16
	}
	res := &result{layers: map[string]float64{}}
	clk := newClock()
	build := func() (*fleetSystem, error) { return buildFleet(o.seed, clients, dim, fanout, traced, clk) }
	var sys *fleetSystem
	if err := timed(res, func() error {
		var err error
		sys, err = build()
		return err
	}); err != nil {
		return nil, err
	}
	rebuild := func() error {
		_, err := build()
		return err
	}
	eng, ft, tel, led := sys.eng, sys.ft, sys.tel, sys.led
	tap := newLedgerTap(led)

	var (
		want                  []float64
		wantW                 int64
		st                    fleet.RoundStats
		flatSec, flatRoundSec float64
		updateNs, shardNs     int64
		mergeNs               int64
		partials, survivors   int64
		wireBytes             int64
		roundStart            int64
	)
	before := func(r int) error {
		if r <= digestRound {
			if ft != nil {
				ft.off = true
			}
			t0 := clk.now()
			var err error
			want, wantW, err = eng.FlatRound()
			flatSec += secs(clk.since(t0))
			if ft != nil {
				ft.off = false
			}
			if err != nil {
				return fmt.Errorf("round %d: flat oracle: %w", r, err)
			}
		}
		if ft != nil {
			for i := range ft.slots {
				ft.slots[i] = shardSlot{}
			}
		}
		roundStart = clk.now()
		return nil
	}
	round := func(r int) error {
		var err error
		st, err = eng.RunRound()
		return err
	}
	after := func(r int) error {
		end := clk.now()
		res.attempted += int64(st.Clients)
		res.committed += int64(st.Survivors)
		res.misses += int64(st.DeadlineMisses)
		res.energyJ += st.EnergyJ
		partials += int64(st.Partials)
		survivors += int64(st.Survivors)
		wireBytes += st.WireBytes
		if r <= digestRound {
			res.checked++
			flatRoundSec += res.rounds[len(res.rounds)-1]
			if i := firstBitDiff(want, eng.Global()); i >= 0 || wantW != st.TotalWeight {
				res.mismatch("round %d: model differs from the FlatRound oracle (param %d, weight %d vs %d)", r, i, st.TotalWeight, wantW)
			}
			evs, ok := tap.next()
			if !ok {
				return fmt.Errorf("round %d: ledger ring overflowed", r)
			}
			if err := tap.digest(evs); err != nil {
				return err
			}
			res.ledgerEvents += uint64(len(evs))
		} else {
			res.ledgerEvents += tap.skip()
		}
		if r == digestRound {
			res.modelDigest = modelDigest(eng.Global())
			res.ledgerDigest = tap.sum()
		}
		if ft != nil {
			var lastEnd int64
			for i := range ft.slots {
				s := &ft.slots[i]
				if s.calls == 0 {
					continue
				}
				updateNs += s.sum
				shardNs += s.last - s.first
				if s.last > lastEnd {
					lastEnd = s.last
				}
			}
			if lastEnd > roundStart {
				mergeNs += end - lastEnd
			}
		}
		return nil
	}
	if err := roundLoop(res, o, 1, rebuild, before, round, after); err != nil {
		return res, err
	}

	n, _ := eng.Shards()
	res.layers["exact.acc_bytes_per_param"] = float64(eng.SpineBytes()) / float64(dim)
	res.layers["fleet.flat_round_s"] = flatSec / float64(res.checked)
	res.layers["fleet.parallel_speedup"] = flatSec / flatRoundSec
	res.layers["fleet.partials"] = res.perRound(float64(partials))
	res.layers["fleet.wire_bytes"] = res.perRound(float64(wireBytes))
	res.layers["fleet.spine_bytes"] = float64(eng.SpineBytes())
	res.layers["fleet.shards"] = float64(n)
	res.layers["fleet.survivors"] = res.perRound(float64(survivors))
	if traced {
		if got := counter(tel, obs.MetricFleetClients); int64(got) != res.attempted {
			res.mismatch("bofl_fleet_clients_total %v, simulated %d", got, res.attempted)
		}
		w := float64(parallel.Workers())
		res.layers["fleet.update_s"] = res.perRound(secs(updateNs))
		res.layers["fleet.shard_s"] = res.perRound(secs(shardNs))
		res.layers["fleet.merge_s"] = res.perRound(secs(mergeNs))
		res.layers["trace.coverage"] = (res.layers["fleet.shard_s"]/w + res.layers["fleet.merge_s"]) /
			res.perRound(res.roundTotal())
	}
	return res, nil
}
