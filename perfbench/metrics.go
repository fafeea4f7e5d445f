package main

import (
	"math"
	"sort"
)

type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
)

// metricDef is one metric the benchmark prints. BENCHMARK.json lists the
// same names and units; the smoke test keeps the two in step.
type metricDef struct {
	name string
	unit string
	kind metricKind
}

// catalog lists every metric in print order. Every workload prints all of
// them: an end-to-end metric has a definition on every workload (README.md
// gives each), and a per-layer metric of a layer the workload does not
// drive reads zero.
var catalog = []metricDef{
	{"setup_s", "s", endToEnd},
	{"peak_rss_mb", "MiB", endToEnd},
	{"success_frac", "frac", endToEnd},
	{"captures_per_s", "1/s", endToEnd},
	{"down_bytes_per_capture", "B", endToEnd},
	{"psnr_db", "dB", endToEnd},
	{"uplink_bytes_per_sat_day", "B", endToEnd},
	{"p50_ms", "ms", endToEnd},
	{"p99_ms", "ms", endToEnd},
	{"max_rate_rps", "1/s", endToEnd},

	{"error_frac", "frac", perLayer},
	{"sim.day_end_s", "s", perLayer},
	{"sim.day_end_share", "frac", perLayer},
	{"core.on_capture_ms.p50", "ms", perLayer},
	{"core.on_capture_ms.p99", "ms", perLayer},
	{"core.captures", "count", perLayer},
	{"core.dropped", "count", perLayer},
	{"core.bootstrap_s", "s", perLayer},
	{"sat.cloud_ms", "ms", perLayer},
	{"sat.change_ms", "ms", perLayer},
	{"sat.encode_ms", "ms", perLayer},
	{"ground.ms", "ms", perLayer},
	{"sat.ref_decodes", "count", perLayer},
	{"sat.ref_lru_hits", "count", perLayer},
	{"sat.ref_lru_hit_ratio", "frac", perLayer},
	{"sat.ref_decode_s", "s", perLayer},
	{"sat.ref_misses", "count", perLayer},
	{"sat.evictions", "count", perLayer},
	{"link.down_frames", "count", perLayer},
	{"link.down_lost", "count", perLayer},
	{"link.retransmits", "count", perLayer},
	{"link.retransmit_bytes", "B", perLayer},
	{"constellation.contacts", "count", perLayer},
	{"constellation.stalls", "count", perLayer},
	{"scene.capture_ms", "ms", perLayer},
	{"sim.eval_psnr_ms", "ms", perLayer},
	{"codec.encode_mb_s", "MB/s", perLayer},
	{"codec.decode_mb_s", "MB/s", perLayer},
	{"codec.region_decode_ms", "ms", perLayer},
	{"go.allocs_per_capture", "count", perLayer},
	{"serve.encode_unique_p50_ms", "ms", perLayer},
	{"serve.encode_unique_p99_ms", "ms", perLayer},
	{"serve.encode_repeat_p50_ms", "ms", perLayer},
	{"serve.encode_repeat_p99_ms", "ms", perLayer},
	{"serve.decode_full_p50_ms", "ms", perLayer},
	{"serve.decode_full_p99_ms", "ms", perLayer},
	{"serve.decode_region_p50_ms", "ms", perLayer},
	{"serve.decode_region_p99_ms", "ms", perLayer},
	{"serve.cache_hit_ratio", "frac", perLayer},
	{"serve.coalesced", "count", perLayer},
	{"serve.rejected_503", "count", perLayer},
	{"serve.rejected_429", "count", perLayer},
	{"loadgen.lag_p99_ms", "ms", perLayer},
	{"trace.overhead_pct", "%", perLayer},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN when xs is empty). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if xs[lo] == xs[hi] {
		return xs[lo] // also keeps +Inf samples from interpolating to NaN
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
