package main

import (
	"net/http"
	"sort"
	"time"
)

// A run reports medians over parts of its measured phase, so a burst of
// contention from outside (this benchmark shares its machine) moves a few
// parts, not the run's figure. Latency percentiles are medians over blocks
// of requests in send order; rates are medians over rateSlice stretches of
// time. Closed-loop blocks hold latBlock requests. Open-loop blocks hold
// openBlock: at match-small's fixed rate that is under 0.2 s, well inside
// the seconds a burst lasts, so a burst spoils whole blocks that the median
// then passes over. Measured over twelve 20-second runs, the median of
// 100-request blocks' p99 spread about half as much between runs as that of
// 250-request blocks, and the p99 of the whole phase twice as much again.
const (
	latBlock  = 250
	openBlock = 100
	rateSlice = 2 * time.Second
)

// latency is the median over blocks of block requests of the q-quantile of
// the phase's successful latencies; with fewer than two blocks it is the
// plain quantile.
func (p *phase) latency(q float64, block int) float64 {
	ok := make([]sample, 0, len(p.samples))
	for _, x := range p.samples {
		if x.outcome == outOK {
			ok = append(ok, x)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].sentNs < ok[j].sentNs })
	lats := func(xs []sample) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x.latMs
		}
		sort.Float64s(out)
		return out
	}
	if len(ok) < 2*block {
		return quantile(lats(ok), q)
	}
	var blocks []float64
	for i := 0; i+block <= len(ok); i += block {
		blocks = append(blocks, quantile(lats(ok[i:i+block]), q))
	}
	return median(blocks)
}

// rates returns the median over whole rateSlice stretches of the phase of
// successful requests and of their input MB completed per second; a phase
// shorter than one slice gives its overall rates.
func (p *phase) rates() (rps, mbps float64) {
	n := int(p.dur / rateSlice)
	if n == 0 {
		st := p.stats()
		return float64(len(st.lats)) / p.dur.Seconds(), float64(st.okBytes) / 1e6 / p.dur.Seconds()
	}
	reqs, bytes := make([]float64, n), make([]float64, n)
	for _, x := range p.samples {
		if k := int(x.doneNs / int64(rateSlice)); x.outcome == outOK && k < n {
			reqs[k]++
			bytes[k] += float64(x.bytes)
		}
	}
	secs := rateSlice.Seconds()
	for k := range reqs {
		reqs[k] /= secs
		bytes[k] /= 1e6 * secs
	}
	return median(reqs), median(bytes)
}

// stdMetrics computes the end-to-end metrics every workload shares from its
// measured phase: latency percentiles over successful requests, and
// successful requests and input text bytes per second, latencies in blocks
// of block requests. capacity_rps is the
// closed-loop definition, the saturated rate at nproc clients; match-small
// replaces it with its ladder's result.
func stdMetrics(p *phase, block int) map[string]metric {
	n := len(p.stats().lats)
	rps, mbps := p.rates()
	return map[string]metric{
		"p50_ms":       {p.latency(0.50, block), "ms", n},
		"p99_ms":       {p.latency(0.99, block), "ms", n},
		"rps":          {rps, "req/s", n},
		"capacity_rps": {rps, "req/s", n},
		"text_MBps":    {mbps, "MB/s", n},
	}
}

// delta sums a counter over the nodes' /metrics snapshots, after minus
// before.
func delta(before, after []metricsSnap, f func(*metricsSnap) int64) int64 {
	var d int64
	for i := range after {
		d += f(&after[i]) - f(&before[i])
	}
	return d
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histQuantile reads the q-quantile of a power-of-two histogram (bucket i
// counts values in [2^(i-1), 2^i), bucket 0 counts zeros), interpolating
// linearly inside the bucket.
func histQuantile(h []int64, q float64) float64 {
	var total int64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i == 0 {
				return 0
			}
			lo, hi := float64(int64(1)<<(i-1)), float64(int64(1)<<i)
			return lo + (target-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	return float64(int64(1) << (len(h) - 1))
}

// counterLayers adds the per-layer metrics read from outside the program:
// /metrics counter deltas over the measured phase, and what the load
// generator saw.
func counterLayers(p *phase, before, after []metricsSnap, m map[string]metric) {
	d := func(f func(*metricsSnap) int64) float64 { return float64(delta(before, after, f)) }
	n := len(p.samples)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit, n} }

	set("loadgen.late_p99_ms", "ms", p.lateP99())

	var notFound, respBytes, textBytes float64
	kindBytes := map[string]float64{}
	kindCount := map[string]float64{}
	attempts := map[string][]float64{}
	for _, x := range p.samples {
		if x.status == http.StatusNotFound {
			notFound++
		}
		respBytes += float64(x.respBytes)
		textBytes += float64(x.bytes)
		kindBytes[x.kind] += float64(x.bytes)
		kindCount[x.kind]++
		if x.attempts > 0 {
			attempts[x.kind] = append(attempts[x.kind], float64(x.attempts))
		}
	}
	set("server.not_found", "count", notFound)
	set("server.resp_bytes_per_text_byte", "B/B", ratio(respBytes, textBytes))
	set("server.rejected", "count", d(func(s *metricsSnap) int64 { return s.Limiter.Rejected }))
	set("server.timeouts", "count", d(func(s *metricsSnap) int64 { return s.Timeouts }))
	set("server.registry_evictions", "count", d(func(s *metricsSnap) int64 { return s.Registry.Evictions }))

	batches := d(func(s *metricsSnap) int64 { return s.Batch.Batches })
	batched := d(func(s *metricsSnap) int64 { return s.Batch.Requests })
	solo := d(func(s *metricsSnap) int64 { return s.Batch.SoloFallbacks })
	set("batch.occupancy_mean", "req", ratio(batched, batches))
	set("batch.solo_share", "1", ratio(solo, solo+batched))
	var hist []int64
	for i := range after {
		for j, c := range after[i].Batch.DelayHist {
			if j >= len(hist) {
				hist = append(hist, 0)
			}
			if j < len(before[i].Batch.DelayHist) {
				c -= before[i].Batch.DelayHist[j]
			}
			hist[j] += c
		}
	}
	set("batch.delay_p50_us", "us", histQuantile(hist, 0.50))
	set("batch.delay_p99_us", "us", histQuantile(hist, 0.99))

	served := d(func(s *metricsSnap) int64 { return s.Dense.Served })
	fallback := d(func(s *metricsSnap) int64 { return s.Dense.Fallback })
	verified := d(func(s *metricsSnap) int64 { return s.Dense.VerifyPass + s.Dense.VerifyFail })
	set("dense.served_share", "1", ratio(served, served+fallback))
	set("core.oracle_share", "1", ratio(verified, served))
	set("core.attempts_mean", "1", meanOr0(attempts["match"]))

	work := func(alg string) float64 { return d(func(s *metricsSnap) int64 { return s.PRAM[alg].Work }) }
	set("pram.work_per_byte.match", "ops/B", ratio(work("match"), kindBytes["match"]))
	set("pram.work_per_byte.compress", "ops/B", ratio(work("compress"), kindBytes["compress"]))
	set("pram.work_per_byte.parse", "ops/B", ratio(work("parse"), kindBytes["parse"]))
	set("pram.depth_per_req.compress", "steps/req", ratio(d(func(s *metricsSnap) int64 { return s.PRAM["compress"].Depth }),
		d(func(s *metricsSnap) int64 { return s.PRAM["compress"].Ops })))
	set("lz.attempts_mean", "1", meanOr0(attempts["compress"]))

	czServed := d(func(s *metricsSnap) int64 { return s.Cz.Served })
	czFallback := d(func(s *metricsSnap) int64 { return s.Cz.Fallback })
	set("czsearch.fallback_share", "1", ratio(czFallback, czServed+czFallback))

	hits := d(func(s *metricsSnap) int64 { return s.Persist.CacheHits })
	misses := d(func(s *metricsSnap) int64 { return s.Persist.CacheMisses })
	set("persist.loads", "count", d(func(s *metricsSnap) int64 { return s.Persist.Loads }))
	set("persist.cache_hit_ratio", "1", ratio(hits, hits+misses))

	dictReqs := kindCount["match"] + kindCount["parse"] + kindCount["czmatch"]
	hedged := d(func(s *metricsSnap) int64 { return s.Cluster.Hedged })
	set("cluster.proxied_share", "1", ratio(d(func(s *metricsSnap) int64 { return s.Cluster.Proxied }), dictReqs))
	set("cluster.replication_pulls", "count", d(func(s *metricsSnap) int64 { return s.Cluster.ReplicationPulls }))
	set("cluster.hedge_waste", "1", ratio(hedged-d(func(s *metricsSnap) int64 { return s.Cluster.HedgeWon }), hedged))

	rpc := func(f func(r *rpcSnap) int64) float64 {
		return d(func(s *metricsSnap) int64 {
			if s.Resilience.RPC == nil {
				return 0
			}
			return f(s.Resilience.RPC)
		})
	}
	set("resilience.retries_spent", "count", rpc(func(r *rpcSnap) int64 { return r.RetriesSpent }))
	set("resilience.breaker_fast_fails", "count", rpc(func(r *rpcSnap) int64 { return r.BreakerFastFails }))
	set("resilience.slow_strikes", "count", rpc(func(r *rpcSnap) int64 { return r.SlowStrikes }))
}

func meanOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
