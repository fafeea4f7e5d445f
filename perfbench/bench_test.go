package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every check passes and that each metric BENCHMARK.json
// names is printed with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	want := map[metricKind]map[string]string{endToEnd: {}, perLayer: {}}
	for _, m := range b.EndToEnd {
		want[endToEnd][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[perLayer][m.Name] = m.Unit
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		runner, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", wl.Name)
		}
		for _, kind := range []metricKind{endToEnd, perLayer} {
			opts := options{workload: wl.Name, seed: 1, seconds: 0.2, trace: kind == perLayer, tiny: true, traceDir: t.TempDir()}
			res, host, err := execute(opts, runner, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, opts.trace, err)
			}
			if !host.Valid {
				t.Skipf("host is not valid for measuring: %s", host.Reason)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, opts.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[kind]) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, opts.trace, len(res.Metrics), len(want[kind]))
			}
			for name, unit := range want[kind] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", wl.Name, opts.trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s printed in %q, BENCHMARK.json says %q", wl.Name, opts.trace, name, m.Unit, unit)
				case kind == endToEnd && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", wl.Name, name)
				}
			}
		}
	}
}

// TestSelfTimes checks the span arithmetic: a parent's self time excludes
// the union of its children, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if got := self["run"].Nanoseconds(); got != 100-40-10 {
		t.Errorf("run self time = %d ns, want 50", got)
	}
	if got := self["child"].Nanoseconds(); got != 30+20+30 {
		t.Errorf("child self time = %d ns, want 80", got)
	}
}

// TestQuantileKeepsInf checks that failed requests (+Inf latency) push a
// percentile to +Inf instead of NaN, so a rung with failures misses the
// limit.
func TestQuantileKeepsInf(t *testing.T) {
	xs := []float64{1, 2, 3}
	for i := 0; i < 10; i++ {
		xs = append(xs, math.Inf(1))
	}
	if q := quantile(xs, 0.99); !math.IsInf(q, 1) {
		t.Errorf("p99 = %v, want +Inf", q)
	}
}
