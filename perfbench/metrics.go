package main

// endToEnd derives the end-to-end metrics of an untraced pass (peak_rss_mb
// is added by the caller).
func endToEnd(r *result) map[string]metric {
	q := tailPercentile(len(r.rounds))
	m := map[string]metric{
		"setup_s":             {median(r.setup), "s"},
		"round_s.p50":         {median(r.rounds), "s"},
		"round_s.tail":        {percentile(r.rounds, float64(q)), "s"},
		"clients_per_s":       {float64(r.attempted) / r.roundTotal(), "1/s"},
		"committed_ratio":     {ratio(r.committed, r.attempted), "ratio"},
		"energy_j_per_update": {r.energyPerUpdate(), "J"},
		"deadline_met_ratio":  {1 - ratio(r.misses, r.attempted), "ratio"},
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerUnits lists every per-layer metric a traced run prints, with its
// unit. Times are seconds per round summed over concurrent callers; counts
// are per round unless the name says otherwise. A layer that does not run on
// a workload reads 0 there.
var layerUnits = []struct{ name, unit string }{
	{"fl.participant_s", "s"},
	{"fl.dispatch_s", "s"},
	{"fl.turnstile_wait_s", "s"},
	{"fl.contribute_s", "s"},
	{"fl.fold_s", "s"},
	{"fl.commit_s", "s"},
	{"fl.execute_s", "s"},
	{"fl.round_self_s", "s"},
	{"fl.select_s", "s"},
	{"fl.configure_s", "s"},
	{"fl.dispatch_busy_ratio", "ratio"},
	{"fl.tier_fold_s", "s"},
	{"fl.partials", "count"},
	{"fl.attempts", "count"},
	{"fl.retries", "count"},
	{"fl.retry_yield", "ratio"},
	{"fl.batch_reference_s", "s"},
	{"exact.add_s", "s"},
	{"exact.acc_bytes_per_param", "B"},
	{"fl.handler_s", "s"},
	{"fl.transport_s", "s"},
	{"fl.handler_self_s", "s"},
	{"fl.wire_bytes_per_update", "B"},
	{"core.round_s", "s"},
	{"core.decide_s", "s"},
	{"ml.job_s", "s"},
	{"ml.jobs", "count"},
	{"core.between_s", "s"},
	{"gp.fit_s", "s"},
	{"gp.fits", "count"},
	{"mobo.ehvi_scan_s", "s"},
	{"mobo.scans", "count"},
	{"ilp.solve_s", "s"},
	{"ilp.solves", "count"},
	{"ilp.nodes", "count"},
	{"core.explore_rounds", "count"},
	{"fleet.update_s", "s"},
	{"fleet.shard_s", "s"},
	{"fleet.merge_s", "s"},
	{"fleet.flat_round_s", "s"},
	{"fleet.parallel_speedup", "ratio"},
	{"fleet.partials", "count"},
	{"fleet.wire_bytes", "B"},
	{"fleet.spine_bytes", "B"},
	{"fleet.shards", "count"},
	{"fleet.survivors", "count"},
	{"ledger.events_per_round", "count"},
	{"parallel.fanouts", "count"},
	{"parallel.helpers_per_fanout", "count"},
	{"go.allocs_per_update", "count"},
	{"go.gc_cycles_per_round", "count"},
	{"failed_ratio", "ratio"},
	{"deadline_miss_ratio", "ratio"},
	{"trace.coverage", "ratio"},
	{"obs.trace_overhead", "ratio"},
}

// perLayer assembles the traced run's metrics: the layer breakdown of the
// traced pass, plus the runtime, pool and ledger counters of the untraced
// pass (tracing allocates, so those are taken where it is off).
func perLayer(base, tr *result) map[string]metric {
	vals := map[string]float64{}
	for k, v := range tr.layers {
		vals[k] = v
	}
	vals["ledger.events_per_round"] = base.perRound(float64(base.ledgerEvents))
	vals["parallel.fanouts"] = base.perRound(float64(base.fanouts))
	if base.fanouts > 0 {
		vals["parallel.helpers_per_fanout"] = float64(base.helperAcquires) / float64(base.fanouts)
	}
	vals["go.allocs_per_update"] = float64(base.mallocs) / float64(base.attempted)
	vals["go.gc_cycles_per_round"] = base.perRound(float64(base.gcCycles))
	vals["failed_ratio"] = 1 - ratio(base.committed, base.attempted)
	vals["deadline_miss_ratio"] = ratio(base.misses, base.attempted)
	vals["obs.trace_overhead"] = median(tr.rounds)/median(base.rounds) - 1
	m := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		m[l.name] = metric{vals[l.name], l.unit}
	}
	return m
}
