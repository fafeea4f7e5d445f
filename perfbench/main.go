// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed measuring time, checks that the outputs are correct
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separately traced run of the same workload gives the per-layer ones. The
// line before the result is the host block. See README.md for the
// workloads, the metric map and the baseline.
//
//	perfbench --workload sentinel-rich --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package inside the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: the operation counts, the
// problems its output checks found, and every metric it measured.
type outcome struct {
	attempted, failed int64
	problems          []string
	skipped           []string
	metrics           map[string]float64
	// discarded counts measurement windows left out for host steal.
	discarded int
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// fail records a failed check; the run then reports correct=false.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// skip records a check the host cannot run, with the reason; the run
// stays correct.
func (o *outcome) skip(format string, args ...any) {
	o.skipped = append(o.skipped, fmt.Sprintf(format, args...))
}

// options is one invocation's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// traceDir receives the traced run's spans ("" = not written).
	traceDir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options, *outcome){
	"sentinel-rich": func(ctx context.Context, o options, out *outcome) { runSim(ctx, sentinelRich(o), o, out) },
	"doves-fleet":   func(ctx context.Context, o options, out *outcome) { runSim(ctx, dovesFleet(o), o, out) },
	"serve-mixed":   runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sentinel-rich, doves-fleet or serve-mixed")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	traceDir := fs.String("tracedir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	res, host, err := execute(opts, runner, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// execute pins the scheduler to the usable cores, runs one workload and
// assembles its result line. An invalid host (GOMAXPROCS forced above the
// usable cores) or a failed check makes the result incorrect.
func execute(opts options, runner func(context.Context, options, *outcome), log io.Writer) (*result, hostInfo, error) {
	host := probeHost()
	if host.Valid {
		runtime.GOMAXPROCS(host.UsableCores)
		host.GOMAXPROCS = host.UsableCores
	}
	out := &outcome{metrics: map[string]float64{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cpu := readCPUTimes()
	runner(ctx, opts, out)
	host.StealPct = 100 * cpu.stealShare(readCPUTimes())
	host.Discarded = out.discarded
	out.set("peak_rss_mb", peakRSSMB())
	if out.attempted < 1 {
		return nil, host, fmt.Errorf("%s attempted no operation", opts.workload)
	}
	errFrac := float64(out.failed) / float64(out.attempted)
	out.set("error_frac", errFrac)
	out.set("success_frac", 1-errFrac)
	if !host.Valid {
		out.fail("host: %s", host.Reason)
	}
	for _, p := range out.problems {
		fmt.Fprintf(log, "perfbench: check failed: %s\n", p)
	}
	for _, p := range out.skipped {
		fmt.Fprintf(log, "perfbench: check skipped: %s\n", p)
	}

	kind := endToEnd
	if opts.trace {
		kind = perLayer
	}
	res := &result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range catalog {
		if d.kind != kind {
			continue
		}
		v, ok := out.metrics[d.name]
		if !ok && kind == endToEnd {
			return nil, host, fmt.Errorf("%s did not measure %s", opts.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, host, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, host, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// since is the wall-clock time from t in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
