package main

import (
	"fmt"
)

// counters are the named /metrics deltas of a window, summed over
// shards, plus the gateway's view and the fleet's balance.
type counters struct {
	Requests                                           map[string]float64 // by endpoint label
	CacheHits, CacheDedups, CacheComputes, CacheEvicts float64
	MemoRequests, MemoDesigns                          float64
	SweepRows                                          float64
	DiskHits, DiskMisses, DiskPuts, DiskQuarantined    float64
	DiskReadErrors                                     float64
	JobsEnqueued, JobsCompleted, JobsFailed            float64
	JobsRetried, JobsInFlightChange                    float64
	GatewayRouted, GatewayRetried, GatewayRedirect     float64
	// RequestSkew is the hottest shard's request share over the ideal
	// 1/N, so a single node reads 1; HitRateSpread is the max minus min
	// shard cache hit rate.
	RequestSkew, HitRateSpread float64
}

// window is the /metrics deltas of measured windows, per shard and for
// the gateway, summed over rounds; shards match by position.
type window struct {
	shards []series
	gw     series
}

// add accumulates the deltas between scrapes taken around one measured
// window; gwAfter is nil outside a fleet.
func (w *window) add(before, after []series, gwBefore, gwAfter series) {
	for len(w.shards) < len(after) {
		w.shards = append(w.shards, series{})
	}
	for i := range after {
		w.shards[i].addDelta(before[i], after[i])
	}
	if gwAfter != nil {
		if w.gw == nil {
			w.gw = series{}
		}
		w.gw.addDelta(gwBefore, gwAfter)
	}
}

// counters derives the named counters and the fleet balance figures.
func (w *window) counters() counters {
	c := counters{Requests: map[string]float64{}}
	var total, hottest float64
	lo, hi := 1.0, 0.0
	for _, d := range w.shards {
		var reqs float64
		for _, ep := range []string{"optimize", "sweep", "compare", "jobs"} {
			c.Requests[ep] += d[endpoint(ep)]
			reqs += d[endpoint(ep)]
		}
		hits := d.sum("multisite_cache_hits_total")
		dedups := d.sum("multisite_cache_dedups_total")
		computes := d.sum("multisite_cache_computes_total")
		lookups := hits + dedups + computes
		c.CacheHits += hits
		c.CacheDedups += dedups
		c.CacheComputes += computes
		c.CacheEvicts += d.sum("multisite_cache_evictions_total")
		c.MemoRequests += d.sum("multisite_memo_requests_total")
		c.MemoDesigns += d.sum("multisite_memo_designs_total")
		c.SweepRows += d.sum("multisite_sweep_rows_total")
		c.DiskHits += d.sum("multisite_diskcache_hits_total")
		c.DiskMisses += d.sum("multisite_diskcache_misses_total")
		c.DiskPuts += d.sum("multisite_diskcache_puts_total")
		c.DiskQuarantined += d.sum("multisite_diskcache_quarantined_total")
		c.DiskReadErrors += d.sum("multisite_diskcache_read_errors_total")
		c.JobsEnqueued += d.sum("multisite_jobs_enqueued_total")
		c.JobsCompleted += d.sum("multisite_jobs_completed_total")
		c.JobsFailed += d.sum("multisite_jobs_failed_total")
		c.JobsRetried += d.sum("multisite_jobs_retried_total")
		c.JobsInFlightChange += d.sum("multisite_jobs_pending") + d.sum("multisite_jobs_running")
		total += reqs
		hottest = max(hottest, reqs)
		rate := 0.0
		if lookups > 0 {
			rate = hits / lookups
		}
		lo, hi = min(lo, rate), max(hi, rate)
	}
	if total > 0 {
		c.RequestSkew = hottest / total * float64(len(w.shards))
		c.HitRateSpread = hi - lo
	}
	c.GatewayRouted = w.gw.sum("multisite_fleet_routed_total")
	c.GatewayRetried = w.gw.sum("multisite_fleet_retried_total")
	c.GatewayRedirect = w.gw.sum("multisite_fleet_redirected_total")
	return c
}

// classCounts counts a sequence's operations per class.
func classCounts(ops []op) [numClasses]float64 {
	var n [numClasses]float64
	for _, o := range ops {
		n[o.class]++
	}
	return n
}

// checkCounters applies the conservation laws and the workload's
// predicted-idle claims to one measured window, returning every
// violation. A run with a violation is reported incorrect.
func checkCounters(name string, ops []op, c counters) []string {
	var bad []string
	expect := func(what string, got, want float64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: got %v, want %v", what, got, want))
		}
	}
	n := classCounts(ops)
	// Every operation reaches its endpoint exactly once; a job lifecycle
	// is a submit plus one result stream.
	expect("requests{optimize}", c.Requests["optimize"], n[classOptimize])
	expect("requests{sweep}", c.Requests["sweep"], n[classSweep])
	expect("requests{jobs}", c.Requests["jobs"], 2*n[classJob])
	expect("requests{compare}", c.Requests["compare"], 0)
	// Jobs: enqueued = completed + failed + the change in pending+running.
	expect("jobs enqueued", c.JobsEnqueued, c.JobsCompleted+c.JobsFailed+c.JobsInFlightChange)
	expect("jobs enqueued vs submitted", c.JobsEnqueued, n[classJob])
	switch name {
	case "design":
		expect("design: resultcache hits", c.CacheHits, 0)
	case "explore", "fleet":
		expect(name+": resultcache hits", c.CacheHits, n[classOptimize]+sweepRows*n[classSweep])
		expect(name+": resultcache computes", c.CacheComputes, 0)
		expect(name+": memo designs", c.MemoDesigns, 0)
		expect(name+": disk ops", c.DiskHits+c.DiskMisses+c.DiskPuts, 0)
		expect(name+": sweep rows", c.SweepRows, sweepRows*n[classSweep])
	case "durable":
		if c.DiskHits <= 0 {
			bad = append(bad, "durable: no diskcache hits, so reads never reached the disk tier")
		}
		expect("durable: quarantined", c.DiskQuarantined, 0)
	}
	if name == "fleet" {
		expect("fleet: gateway redirected", c.GatewayRedirect, 0)
		expect("fleet: gateway retried", c.GatewayRetried, 0)
		expect("fleet: gateway routed", c.GatewayRouted, float64(len(ops)))
	}
	return bad
}
