package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"time"

	"earthplus/internal/core"
	"earthplus/internal/link"
	"earthplus/internal/orbit"
	"earthplus/internal/registry"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// simWorkload is one Earth+ simulation: a scene, a constellation, the
// system's registry spec and the simulated window.
type simWorkload struct {
	name  string
	scene scene.Config
	orbit orbit.Constellation
	// uplinkDivisor sets the flat per-satellite daily uplink budget to the
	// raw size of one reference set divided by this.
	uplinkDivisor float64
	spec          registry.Spec
	// Bootstrap searches [bootFrom, start); the measured window is
	// [start, start+days).
	bootFrom, start, days int
	// mustFire lists per-layer counters that must be non-zero, or the
	// workload did not exercise the mechanism it exists for.
	mustFire []string
	// setupSamples is how many set-ups are timed on their own, on top of
	// the one each repetition starts with, for the set-up median.
	setupSamples int
}

// sentinelRich is the RichContent dataset (11 locations, 13 bands) under
// 8 satellites on a 4-day revisit and the flat Doves-style uplink budget:
// many independent location shards, the 13-band on-board pipeline, the
// ground masks and the serial day-end barrier.
func sentinelRich(o options) simWorkload {
	w := simWorkload{
		name:          "sentinel-rich",
		scene:         scene.RichContent(scene.Quick),
		orbit:         orbit.Constellation{Satellites: 8, RevisitDays: 4},
		uplinkDivisor: 50,
		bootFrom:      10,
		start:         40,
		days:          4,
		setupSamples:  10,
	}
	if o.tiny {
		w.scene.Locations = w.scene.Locations[:2]
		w.days, w.setupSamples = 2, 1
	}
	return w
}

// dovesFleet is the LargeConstellation dataset (one coastal location, 4
// bands, natural clouds) under 48 satellites on a 2-day revisit, with the
// compressed reference store, two contended ground stations and a lossy
// link: one shard, so the capture chain runs serially through reference
// decode, link faults, retransmits and contact scheduling.
func dovesFleet(o options) simWorkload {
	w := simWorkload{
		name:          "doves-fleet",
		scene:         scene.LargeConstellation(scene.Quick),
		orbit:         orbit.Constellation{Satellites: 48, RevisitDays: 2},
		uplinkDivisor: 50,
		spec: registry.Spec{
			Params:    map[string]float64{"stations": 2, "link_loss": 0.02, "link_seed": 1},
			StrParams: map[string]string{"ref_compression": "on"},
		},
		bootFrom:     10,
		start:        40,
		days:         12,
		mustFire:     []string{"sat.ref_lru_hits", "link.retransmits", "constellation.stalls"},
		setupSamples: 10,
	}
	if o.tiny {
		w.orbit.Satellites = 24
		w.days, w.setupSamples = 6, 1
		w.mustFire = nil
	}
	return w
}

// env builds a fresh environment: every repetition starts from a new
// scene so none inherits another's synthesis caches.
func (w simWorkload) env(parallel int) *sim.Env {
	spec := orbit.DovesSpec()
	rawRefs := int64(w.scene.Width) * int64(w.scene.Height) * int64(len(w.scene.Bands)) * 2 * int64(len(w.scene.Locations))
	return &sim.Env{
		Scene:             scene.New(w.scene),
		Orbit:             w.orbit,
		Downlink:          link.Budget{Bps: spec.DownlinkBps, SecondsPerContact: spec.ContactSeconds, ContactsPerDay: spec.ContactsPerDay},
		UplinkBytesPerDay: int64(float64(rawRefs) / w.uplinkDivisor),
		Parallelism:       parallel,
	}
}

// expectedCaptures counts the visits in the measured window.
func (w simWorkload) expectedCaptures() int64 {
	var n int64
	for day := w.start; day < w.start+w.days; day++ {
		for loc := range w.scene.Locations {
			n += int64(len(w.orbit.VisitsOn(loc, day)))
		}
	}
	return n
}

// simRep is one repetition of a workload: a fresh system run over the
// window, with everything the metrics and checks need.
type simRep struct {
	captures    int64
	setup       float64 // environment + system construction + the engine's bootstrap phase
	bootstrap   float64 // time inside System.Bootstrap
	run         float64 // RunStream wall after the bootstrap phase
	busy        float64 // time the system itself was busy
	dayEnd      float64
	steal       float64 // share of CPU time the host stole during the run
	digest      [32]byte
	downBytes   int64
	psnrSum     float64
	psnrN       int
	upBytes     int64
	nonDropped  int64
	dropped     int64
	cloudSec    float64
	changeSec   float64
	encodeSec   float64
	groundSec   float64
	latenciesMs []float64
	mallocs     uint64
	visits      []visitKey
	scored      []visitKey
	spans       []span
	layers      map[string]float64
}

// runRep runs one repetition. parallel is the engine's worker count; tr,
// when non-nil, traces the run; memstats brackets it with allocation
// counts.
func runRep(w simWorkload, parallel int, tr *tracer, memstats bool) (*simRep, error) {
	// Every repetition starts from a collected heap, so none pays for the
	// garbage of the one before.
	runtime.GC()
	rep := &simRep{}
	var ms runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms)
		rep.mallocs = ms.Mallocs
	}
	t0 := time.Now()
	env := w.env(parallel)
	var log *visitLog
	if tr != nil {
		log = &visitLog{}
		env.Observer = log
	}
	inner, err := registry.New(core.SystemName, env, w.spec)
	if err != nil {
		return nil, err
	}
	var runSpan int64
	if tr != nil {
		runSpan = tr.reserve()
	}
	probe := newProbe(inner, tr, runSpan)
	construct := since(t0)

	h := sha256.New()
	cpu := readCPUTimes()
	t1 := time.Now()
	res, err := sim.RunStream(env, probe, w.bootFrom, w.start, w.start+w.days, func(r *sim.Record) {
		rep.captures++
		digestRecord(h, r)
		rep.visits = append(rep.visits, visitKey{r.Loc, r.Day, r.Sat})
		if r.Dropped {
			rep.dropped++
			return
		}
		rep.nonDropped++
		rep.latenciesMs = append(rep.latenciesMs, float64(probe.capture[visitKey{r.Loc, r.Day, r.Sat}].Nanoseconds())/1e6)
		rep.downBytes += r.DownBytes
		if !math.IsNaN(r.PSNR) && !math.IsInf(r.PSNR, 0) {
			rep.psnrSum += r.PSNR
			rep.psnrN++
		}
		rep.cloudSec += r.CloudSec
		rep.changeSec += r.ChangeSec
		rep.encodeSec += r.EncodeSec
		rep.groundSec += probe.capture[visitKey{r.Loc, r.Day, r.Sat}].Seconds() - r.CloudSec - r.ChangeSec - r.EncodeSec
	})
	end := time.Now()
	rep.steal = cpu.stealShare(readCPUTimes())
	if err != nil {
		return nil, err
	}
	if memstats {
		runtime.ReadMemStats(&ms)
		rep.mallocs = ms.Mallocs - rep.mallocs
	}
	if tr != nil {
		tr.recordAs(runSpan, "sim.run", 0, t1, end)
		rep.scored = log.scored
	}
	digestResult(h, res)
	copy(rep.digest[:], h.Sum(nil))
	for _, b := range res.UpBytesByDay {
		rep.upBytes += b
	}
	// The engine's bootstrap phase (scans for a clear day, one capture and
	// one Bootstrap call per location) ends when the last Bootstrap call
	// returns; setupOnce times the same phase on its own.
	bootEnd := probe.bootEnd
	if bootEnd.IsZero() {
		bootEnd = t1
	}
	rep.bootstrap = probe.bootstrap.Seconds()
	rep.setup = construct + bootEnd.Sub(t1).Seconds()
	rep.run = end.Sub(bootEnd).Seconds()
	rep.busy = probe.busySeconds()
	rep.dayEnd = probe.dayEnd.Seconds()
	rep.layers = layerMetrics(rep, inner.(*core.System))
	return rep, nil
}

// digestRecord hashes every Record field except the measured timings
// (EncodeSec, CloudSec, ChangeSec) — the fields EqualIgnoringTimings
// compares — with NaN PSNRs folded to one value.
func digestRecord(h hash.Hash, r *sim.Record) {
	psnr := r.PSNR
	if math.IsNaN(psnr) {
		psnr = math.NaN()
	}
	var b []byte
	for _, v := range []int64{int64(r.Day), int64(r.Loc), int64(r.Sat), r.DownBytes, int64(r.RefAge),
		int64(math.Float64bits(r.TrueCoverage)), int64(math.Float64bits(r.DownTileFrac)), int64(math.Float64bits(psnr)),
		boolInt(r.Dropped), boolInt(r.RefMiss), boolInt(r.Guaranteed), boolInt(r.DownDropped), boolInt(r.DownCorrupted),
		int64(len(r.PerBandBytes))} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, n := range r.PerBandBytes {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	h.Write(b)
}

// digestResult hashes the run-level outputs: per-day uplink bytes in day
// order and the contact log.
func digestResult(h hash.Hash, res *sim.Result) {
	days := make([]int, 0, len(res.UpBytesByDay))
	for d := range res.UpBytesByDay {
		days = append(days, d)
	}
	sort.Ints(days)
	var b []byte
	for _, d := range days {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
		b = binary.LittleEndian.AppendUint64(b, uint64(res.UpBytesByDay[d]))
	}
	for _, c := range res.Contacts {
		for _, v := range []int64{int64(c.Station), int64(c.Day), int64(c.Sat), int64(c.Window), c.Bytes} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	h.Write(b)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runSim measures one simulation workload. Untraced repetitions run
// until the measuring time is spent (at least three, for medians); a
// traced run alternates traced and untraced repetitions so the tracing
// overhead is measured on the same inputs. Every repetition's record
// digest must equal that of a serial (Parallelism=1) reference run.
func runSim(ctx context.Context, w simWorkload, o options, out *outcome) {
	ref, err := runRep(w, 1, nil, false)
	expected := w.expectedCaptures()
	if err != nil {
		out.attempted += expected
		out.failed += expected
		out.fail("%s serial reference run: %v", w.name, err)
		return
	}

	var plain, traced []*simRep
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ctx.Err() == nil && (i < 3 || time.Now().Before(deadline)) && i < 200; i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = newTracer()
		}
		rep, err := runRep(w, 0, tr, o.trace && tr == nil)
		out.attempted += expected
		if err != nil {
			out.failed += expected
			out.fail("%s repetition %d: %v", w.name, i, err)
			continue
		}
		if rep.captures != expected {
			out.fail("%s repetition %d: %d captures, want %d", w.name, i, rep.captures, expected)
		}
		if rep.digest != ref.digest {
			out.failed += rep.captures
			out.fail("%s repetition %d (traced=%v): record digest differs from the serial run's", w.name, i, tr != nil)
		}
		if tr != nil {
			rep.spans = tr.spans
			traced = append(traced, rep)
		} else {
			plain = append(plain, rep)
		}
	}
	if len(plain) == 0 {
		return
	}

	first := plain[0]
	// Repetitions during which the host stole more than maxSteal of the
	// CPU time are left out of the timing metrics while three others
	// remain.
	timed := plain
	var clean []*simRep
	for _, r := range plain {
		if r.steal <= maxSteal {
			clean = append(clean, r)
		}
	}
	if len(clean) >= 3 {
		out.discarded += len(plain) - len(clean)
		timed = clean
	}
	// Latency percentiles are taken per repetition and their median
	// reported: a repetition holds only 36-119 scored captures, so one
	// slow stretch would otherwise set the pooled p99.
	var setups, rates, sysRates, p50, p99 []float64
	for _, r := range timed {
		setups = append(setups, r.setup)
		rates = append(rates, float64(r.captures)/r.run)
		sysRates = append(sysRates, float64(r.captures)/r.busy)
		p50 = append(p50, quantile(r.latenciesMs, 0.50))
		p99 = append(p99, quantile(r.latenciesMs, 0.99))
	}
	for i := 0; i < w.setupSamples; i++ {
		sec, err := setupOnce(w)
		if err != nil {
			out.fail("%s set-up: %v", w.name, err)
			break
		}
		setups = append(setups, sec)
	}
	out.set("setup_s", median(setups))
	out.set("captures_per_s", median(rates))
	out.set("max_rate_rps", median(sysRates))
	out.set("p50_ms", median(p50))
	out.set("p99_ms", median(p99))
	out.set("down_bytes_per_capture", float64(first.downBytes)/float64(first.captures))
	if first.psnrN > 0 {
		out.set("psnr_db", first.psnrSum/float64(first.psnrN))
	}
	out.set("uplink_bytes_per_sat_day", float64(first.upBytes)/float64(w.orbit.Satellites*w.days))

	for _, name := range w.mustFire {
		if first.layers[name] == 0 {
			out.fail("%s: %s is zero, so the workload did not exercise its mechanism", w.name, name)
		}
	}
	if !o.trace {
		return
	}
	for k, v := range first.layers {
		out.set(k, v)
	}
	if len(traced) == 0 {
		out.fail("%s: no traced repetition ran", w.name)
		return
	}
	tracedLayers(w, plain, traced, out)
	if err := writeTrace(o.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed), traced[0].spans); err != nil {
		out.fail("writing trace: %v", err)
	}
}

// setupOnce times one set-up on its own: environment and system
// construction plus the engine's bootstrap phase, over an empty window.
func setupOnce(w simWorkload) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	env := w.env(0)
	sys, err := registry.New(core.SystemName, env, w.spec)
	if err != nil {
		return 0, err
	}
	if _, err := sim.RunStream(env, sys, w.bootFrom, w.start, w.start, nil); err != nil {
		return 0, err
	}
	return since(t0), nil
}

// layerMetrics reads the per-layer counters one repetition leaves in the
// system and its records.
func layerMetrics(r *simRep, sys *core.System) map[string]float64 {
	m := map[string]float64{}
	decodes, hits := sys.DecodeStats()
	evictions, misses := sys.StorageStats()
	ls := sys.LinkStats()
	cs := sys.ConstellationStats()
	m["core.captures"] = float64(r.captures)
	m["core.dropped"] = float64(r.dropped)
	m["sat.ref_decodes"] = float64(decodes)
	m["sat.ref_lru_hits"] = float64(hits)
	if decodes+hits > 0 {
		m["sat.ref_lru_hit_ratio"] = float64(hits) / float64(decodes+hits)
	}
	m["sat.ref_decode_s"] = sys.DecodeWall().Seconds()
	m["sat.ref_misses"] = float64(misses)
	m["sat.evictions"] = float64(evictions)
	m["link.down_frames"] = float64(ls.DownlinkFrames)
	m["link.down_lost"] = float64(ls.DownlinkDropped + ls.DownlinkCorrupted)
	m["link.retransmits"] = float64(ls.Retransmits)
	m["link.retransmit_bytes"] = float64(ls.RetransmitBytes)
	m["constellation.contacts"] = float64(cs.Contacts)
	m["constellation.stalls"] = float64(cs.Stalls)
	return m
}

// tracedLayers derives the timing layers from the traced repetitions and
// replays the first traced run's visits through the harness.
func tracedLayers(w simWorkload, plain, traced []*simRep, out *outcome) {
	var dayEnd, share, boot, onCap, cloudMs, changeMs, encodeMs, groundMs, allocs, plainRate, tracedRate []float64
	for _, r := range traced {
		dayEnd = append(dayEnd, r.dayEnd)
		share = append(share, r.dayEnd/r.run)
		boot = append(boot, r.bootstrap)
		onCap = append(onCap, r.latenciesMs...)
		n := float64(r.nonDropped)
		cloudMs = append(cloudMs, 1e3*r.cloudSec/n)
		changeMs = append(changeMs, 1e3*r.changeSec/n)
		encodeMs = append(encodeMs, 1e3*r.encodeSec/n)
		groundMs = append(groundMs, 1e3*r.groundSec/n)
		tracedRate = append(tracedRate, float64(r.captures)/r.run)
	}
	for _, r := range plain {
		if r.mallocs > 0 {
			allocs = append(allocs, float64(r.mallocs)/float64(r.captures))
		}
		plainRate = append(plainRate, float64(r.captures)/r.run)
	}
	out.set("sim.day_end_s", median(dayEnd))
	out.set("sim.day_end_share", median(share))
	out.set("core.bootstrap_s", median(boot))
	out.set("core.on_capture_ms.p50", quantile(onCap, 0.50))
	out.set("core.on_capture_ms.p99", quantile(onCap, 0.99))
	out.set("sat.cloud_ms", median(cloudMs))
	out.set("sat.change_ms", median(changeMs))
	out.set("sat.encode_ms", median(encodeMs))
	out.set("ground.ms", median(groundMs))
	out.set("go.allocs_per_capture", median(allocs))
	out.set("trace.overhead_pct", 100*(median(plainRate)/median(tracedRate)-1))

	// Harness replay: the pure scene synthesis and PSNR scoring of the
	// run's own visits, timed outside the system.
	sc := scene.New(w.scene)
	grid := sc.Grid()
	scored := map[visitKey]bool{}
	for _, v := range traced[0].scored {
		scored[v] = true
	}
	var capMs, psnrMs []float64
	for _, v := range traced[0].visits {
		t0 := time.Now()
		c := sc.CaptureImage(v.loc, v.day, v.sat)
		capMs = append(capMs, 1e3*since(t0))
		if scored[v] {
			t1 := time.Now()
			sim.EvalPSNR(c, c.Truth, grid)
			psnrMs = append(psnrMs, 1e3*since(t1))
		}
		sc.ReleaseCapture(c)
	}
	out.set("scene.capture_ms", median(capMs))
	out.set("sim.eval_psnr_ms", median(psnrMs))
}
