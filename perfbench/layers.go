package main

import (
	"time"

	"lasagne/internal/opt"
)

// optPasses is the distinct passes of opt.StandardPipeline, in order of
// first appearance.
func optPasses() []string {
	seen := map[string]bool{}
	var ps []string
	for _, p := range opt.StandardPipeline {
		if !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	return ps
}

// perLayer lists the per-layer metrics every traced run reports. A layer a
// workload does not exercise reports 0. Times are self time per workload
// iteration (README.md gives the iteration of each workload).
func perLayer() []Metric {
	ms := func(names ...string) []Metric {
		var out []Metric
		for _, n := range names {
			out = append(out, Metric{n, "ms"})
		}
		return out
	}
	count := func(names ...string) []Metric {
		var out []Metric
		for _, n := range names {
			out = append(out, Metric{n, "count"})
		}
		return out
	}
	ratio := func(names ...string) []Metric {
		var out []Metric
		for _, n := range names {
			out = append(out, Metric{n, "ratio"})
		}
		return out
	}
	var l []Metric
	add := func(ms ...[]Metric) {
		for _, m := range ms {
			l = append(l, m...)
		}
	}
	add(ms("lifter.ms"), count("lifter.funcs", "lifter.ir_instrs"),
		ms("pipeline.snapshot_ms", "refine.ms"), count("refine.rewrites", "refine.ptr_casts_removed"),
		ms("fences.prepass_ms", "fences.classify_ms", "fences.place_ms", "fences.merge_ms", "fences.strengthen_ms"))
	for _, p := range optPasses() {
		add(ms("opt." + p + ".ms"))
	}
	add(count("fences.placed", "fences.merged", "fences.acq_rel", "fences.final",
		"opt.passes_run", "opt.passes_skipped", "opt.ir_instrs"),
		ratio("opt.skipped_per_run"),
		ms("backend.arm64_ms"),
		ms("armlifter.ms", "rev.refine_ms", "rev.fences_ms", "rev.opt_ms", "backend.x86_64_ms"),
		count("translate.arm_text_bytes"),
		ms("cache.key_ms", "cache.get_ms", "cache.decode_ms", "cache.encode_ms", "cache.disk_put_ms"),
		ratio("cache.hit_ratio"), count("cache.flight_waits", "cache.quarantined", "cache.disk_errors"),
		ms("serve.handler_hit_ms_p50", "serve.handler_miss_ms_p50", "serve.handler_stream_ms_p50", "serve.transport_ms_p50"),
		count("serve.queue_depth_mean"),
		ms("sim.load_ms", "sim.run_ms.x86", "sim.run_ms.arm_native", "sim.run_ms.arm_translated"), count("sim.instrs"))
	for _, k := range suiteNames() {
		add(ms("sim."+k+".run_ms"), ratio("sim."+k+".cycles_ratio"))
	}
	add(count("campaign.generated", "campaign.orbits"), ratio("campaign.prune_factor"),
		ms("campaign.canon_ms", "memmodel.check_ms"), count("memmodel.checks"),
		ms("campaign.store_claim_ms", "campaign.store_record_ms", "campaign.store_flush_ms"),
		ratio("campaign.warm_hit_ratio"),
		ms("trace.unattributed_ms"), ratio("trace.coverage", "trace.overhead"))
	return l
}

// layerTimes maps span names to the per-layer metric that reports their
// self time.
var layerTimes = map[string]string{
	"lifter":            "lifter.ms",
	"pipeline.snapshot": "pipeline.snapshot_ms",
	"refine":            "refine.ms",
	"fences.prepass":    "fences.prepass_ms",
	"fences.classify":   "fences.classify_ms",
	"fences.place":      "fences.place_ms",
	"fences.merge":      "fences.merge_ms",
	"fences.strengthen": "fences.strengthen_ms",
	"backend.arm64":     "backend.arm64_ms",
	"armlifter":         "armlifter.ms",
	"rev.refine":        "rev.refine_ms",
	"rev.fences":        "rev.fences_ms",
	"rev.opt":           "rev.opt_ms",
	"backend.x86_64":    "backend.x86_64_ms",
	"cache.key":         "cache.key_ms",
	"cache.get":         "cache.get_ms",
	"cache.decode":      "cache.decode_ms",
	"cache.encode":      "cache.encode_ms",
	"cache.put":         "cache.disk_put_ms",
	"sim.load":          "sim.load_ms",
	"campaign.canon":    "campaign.canon_ms",
	"memmodel.check":    "memmodel.check_ms",
	"campaign.claim":    "campaign.store_claim_ms",
	"campaign.record":   "campaign.store_record_ms",
	"campaign.flush":    "campaign.store_flush_ms",
}

func init() {
	for _, p := range optPasses() {
		layerTimes["opt."+p] = "opt." + p + ".ms"
	}
}

// addLayerTimes adds the self time of every span that maps to a layer
// metric, divided by iters, to the per-layer metrics, and returns the
// summed self time it attributed.
func addLayerTimes(out map[string]float64, layers map[string]*Layer, iters int) (attributed time.Duration) {
	for name, l := range layers {
		if metric, ok := layerTimes[name]; ok {
			out[metric] += ms(l.Self) / float64(iters)
			attributed += l.Self
		}
	}
	return attributed
}

// addTraceCoverage reports trace.unattributed_ms — the traced wall time
// minus the layer self times, per iteration — and trace.coverage, the share
// of the traced wall time the layers account for.
func addTraceCoverage(out map[string]float64, wall, attributed time.Duration, iters int) float64 {
	out["trace.unattributed_ms"] = ms(wall-attributed) / float64(iters)
	coverage := 0.0
	if wall > 0 {
		coverage = float64(attributed) / float64(wall)
	}
	out["trace.coverage"] = coverage
	return coverage
}

// addCounts reports the replay's work counts per iteration.
func addCounts(out map[string]float64, c counts, iters int) {
	per := func(v int) float64 { return float64(v) / float64(iters) }
	out["lifter.funcs"] = per(c.Funcs)
	out["lifter.ir_instrs"] = per(c.LiftedInstrs)
	out["refine.rewrites"] = per(c.Rewrites)
	out["refine.ptr_casts_removed"] = per(c.CastsRemoved)
	out["fences.placed"] = per(c.Placed)
	out["fences.merged"] = per(c.Merged)
	out["fences.acq_rel"] = per(c.AcqRel)
	out["fences.final"] = per(c.FencesFinal)
	out["opt.passes_run"] = per(c.PassesRun)
	out["opt.passes_skipped"] = per(c.PassesSkipped)
	out["opt.ir_instrs"] = per(c.FinalInstrs)
	if c.PassesRun > 0 {
		out["opt.skipped_per_run"] = float64(c.PassesSkipped) / float64(c.PassesRun)
	}
}
