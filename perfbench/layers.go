package main

import (
	"fmt"

	"repro/internal/loadgen"
)

// endpoints are the request stream's endpoints in report order.
var endpoints = []string{
	loadgen.EpImportance, loadgen.EpFootprint, loadgen.EpCompleteness,
	loadgen.EpSuggest, loadgen.EpPath, loadgen.EpAnalyze,
}

// layerMetrics assembles the per-layer metrics of a traced run in
// BENCHMARK.json order. Times of pipeline layers are per traced publish
// cycle and sum the layer's calls across workers (busy time, which can
// exceed the cycle's wall time); counts are per traced cycle too.
func (e *env) layerMetrics(m *measured) []metric {
	total, self, calls := e.tr.layerTimes()
	n := float64(max(len(m.tracedBuildS), 1))
	k := &e.counts
	perCycle := func(name, span string) metric {
		return metric{name: name, value: total[span].Seconds() / n, unit: "s",
			info: fmt.Sprintf("%d calls over %d traced cycles", calls[span], len(m.tracedBuildS))}
	}
	count := func(name string, v float64, unit string) metric {
		return metric{name: name, value: v, unit: unit}
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	hits, misses := float64(k.cacheHits.Load())/n, float64(k.cacheMisses.Load())/n
	before, after := m.svcBefore, m.svcAfter
	pushes := m.pushS
	shed := m.fixed.shed + m.ladderShed
	sent := m.fixed.sent + m.ladderSent

	out := []metric{
		perCycle("corpus.load_s", "corpus.Load"),
		count("corpus.bytes", float64(k.corpusBytes.Load())/n, "bytes"),
		perCycle("anacache.get_s", "anacache.Get"),
		perCycle("anacache.put_s", "anacache.Put"),
		count("anacache.hits", hits, "count"),
		count("anacache.misses", misses, "count"),
		count("anacache.hit_ratio", ratio(hits, misses), "ratio"),
		perCycle("elfx.open_s", "elfx.Open"),
		count("elfx.binaries", float64(k.binaries.Load())/n, "count"),
		perCycle("x86.decode_s", "x86.DecodeAll"),
		count("x86.insts", float64(k.insts.Load())/n, "count"),
		perCycle("callgraph.build_s", "callgraph.Build"),
		count("callgraph.nodes", float64(k.nodes.Load())/n, "count"),
		count("callgraph.edges", float64(k.edges.Load())/n, "count"),
		perCycle("footprint.analyze_s", "footprint.Analyze"),
		perCycle("footprint.summarize_s", "footprint.Summarize"),
		count("footprint.sites", float64(k.sites.Load())/n, "count"),
		count("footprint.unresolved", float64(k.unresolved.Load())/n, "count"),
		{name: "core.aggregate_s", value: self["core.RunWith"].Seconds() / n, unit: "s",
			info: "pipeline wall time minus the analyzer's, per traced cycle"},
		perCycle("metrics.record_s", "metrics.Record"),
		count("metrics.record_alloc_mb", float64(k.recordAlloc.Load())/n/(1<<20), "MiB"),
		perCycle("snapshot.encode_s", "snapshot.Encode"),
		perCycle("snapshot.decode_s", "snapshot.Decode"),
		count("snapshot.bytes", float64(k.snapshotBytes.Load()), "bytes"),
		perCycle("service.swap_s", "service.Swap"),
		count("service.hotset_entries", float64(after.HotsetEntries), "count"),
		count("service.hotset_bytes", float64(after.HotsetBytes), "bytes"),
		{name: "service.push_s", value: pushes.median(), unit: "s", info: pushes.describe("s")},
	}
	for _, ep := range endpoints {
		s := m.direct[ep]
		out = append(out, metric{name: "service." + ep + "_ms", value: s.median(), unit: "ms", info: "direct replay, " + s.describe("ms")})
	}
	bcHits := float64(after.ByteCacheHits - before.ByteCacheHits)
	bcMisses := float64(after.ByteCacheMisses - before.ByteCacheMisses)
	out = append(out,
		count("service.hotset_hits", float64(after.HotsetHits-before.HotsetHits), "count"),
		count("service.bytecache_hit_ratio", ratio(bcHits, bcMisses), "ratio"),
		count("service.bytecache_evictions", float64(after.ByteCacheEvictions-before.ByteCacheEvictions), "count"),
		count("service.singleflight_shared", float64(after.SingleflightShared-before.SingleflightShared), "count"),
	)
	var direct samples
	for _, ep := range endpoints {
		s := m.fixed.byEndpoint[ep]
		direct = append(direct, m.direct[ep]...)
		out = append(out,
			metric{name: "httpapi." + ep + ".p50_ms", value: s.median(), unit: "ms", info: s.describe("ms")},
			metric{name: "httpapi." + ep + ".p99_ms", value: s.quantile(0.99), unit: "ms", info: fmt.Sprintf("n=%d", len(s))},
		)
	}
	out = append(out,
		metric{name: "httpapi.p99_ms", value: m.fixed.lat.quantile(0.99), unit: "ms",
			info: fmt.Sprintf("every endpoint at %d rps, n=%d", fixedRPS, len(m.fixed.lat))},
		metric{name: "httpapi.max_rps_under_slo", value: m.maxRPS, unit: "1/s", info: m.ladderInfo},
		metric{name: "httpapi.overhead_ms", value: m.fixed.lat.median() - direct.median(), unit: "ms",
			info: fmt.Sprintf("socket p50 %.4g ms minus direct p50 %.4g ms", m.fixed.lat.median(), direct.median())},
		count("httpapi.shed", float64(shed), "count"),
		count("gc.cycles", float64(m.gcCycles), "count"),
		count("gc.pause_s", m.gcPause.Seconds(), "s"),
		count("runtime.alloc_mb_per_build", m.buildAllocMB, "MiB"),
		count("runtime.alloc_kb_per_request", m.requestAllocKB, "KiB"),
		metric{name: "loadgen.late_ms", value: m.fixed.late.quantile(0.99), unit: "ms", info: "p99 pacer lateness at the fixed rate"},
		count("loadgen.sent", float64(sent), "count"),
		metric{name: "self.study.build_s", value: self["study.build"].Seconds() / n, unit: "s"},
		metric{name: "self.core.JobAnalyzer_s", value: self["core.JobAnalyzer"].Seconds() / n, unit: "s",
			info: "analyzer wall time not covered by any per-binary call"},
		metric{name: "self.publish_s", value: self["publish"].Seconds() / n, unit: "s"},
		metric{name: "trace.build_overhead_s", value: m.tracedBuildS.median() - m.buildS.median(), unit: "s",
			info: fmt.Sprintf("traced build %s; untraced %s", m.tracedBuildS.describe("s"), m.buildS.describe("s"))},
		count("trace.spans", float64(len(e.tr.spans)), "count"),
	)
	return out
}
