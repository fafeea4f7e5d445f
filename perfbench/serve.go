package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"earthplus/internal/scene"
	"earthplus/pkg/earthplus"
	"earthplus/pkg/earthplus/serve"
)

// Request classes of the serving mix.
const (
	encodeUnique = iota // never-seen payload: the codec path
	encodeRepeat        // a small popular set: the cache and coalescing path
	decodeFull          // full decode of a pre-encoded frame
	decodeRegion        // 64x64 region of a tiled 512x512 frame
	numClasses
)

var classNames = [numClasses]string{"encode_unique", "encode_repeat", "decode_full", "decode_region"}

// classBlock is the class mix in requests per block: equal shares. No
// measured or published serving trace fixes the shares, so this is an
// unverified synthetic mix, not a model of real traffic.
var classBlock = [numClasses]int{1, 1, 1, 1}

// serveSize fixes the serving workload's inputs and schedule.
type serveSize struct {
	payload     int // encode payloads are payload x payload x 4 bands
	tiled       int // region frames are tiled x tiled x 4 bands
	region      int // region side
	popular     int // popular encode payloads per phase
	fullFrames  int // pre-encoded frames for full decodes
	tiledFrames int // pre-encoded tiled frames for region decodes
	bpp         float64
	// Each rung of the rate ladder runs for rung seconds; the searches
	// try no rate above maxRate. The reference rate reports p50/p99
	// over ref seconds.
	rung     float64
	maxRate  float64
	refRate  float64
	ref      float64
	refParts int
	// limitMs is the p99 latency limit a rung must meet.
	limitMs float64
	setups  int
}

func serveSizeFor(o options) serveSize {
	s := serveSize{
		payload: 128, tiled: 512, region: 64,
		popular: 8, fullFrames: 24, tiledFrames: 4, bpp: 1,
		rung:     o.seconds / 20,
		maxRate:  5000,
		refRate:  320,
		ref:      0.5 * o.seconds,
		refParts: 3,
		limitMs:  50,
		setups:   5,
	}
	if o.tiny {
		s.payload, s.tiled, s.popular, s.fullFrames, s.tiledFrames = 64, 128, 2, 2, 1
		s.rung, s.maxRate, s.refRate, s.ref, s.refParts, s.setups = 0.3, 100, 20, 1, 1, 1
	}
	return s
}

// serveFixture is one set-up server with its pre-encoded inputs.
type serveFixture struct {
	srv      *http.Server
	base     string
	bases    [][]byte               // raw payload samples the encodes stamp
	full     []earthplus.Codestream // frames for full decodes
	fullRaw  [][]byte               // expected full-decode samples
	tiled    []earthplus.Codestream // tiled frames for region decodes
	tiledRaw [][]byte               // their full decodes, for region checks
	done     chan struct{}
	// tr, when set, receives a span per request the handler serves.
	tr atomic.Pointer[tracer]
}

// newFixture builds a server behind a loopback listener and encodes the
// read classes' frames: the set-up the serving workload times.
func newFixture(sz serveSize, seed uint64) (*serveFixture, error) {
	sc := scene.New(scene.LargeConstellation(scene.Quick))
	capture := func(i int) *earthplus.Image {
		c := sc.CaptureImage(0, 40+i, i)
		defer sc.ReleaseCapture(c)
		return crop(c.Truth, sz.payload)
	}
	f := &serveFixture{done: make(chan struct{})}
	for i := 0; i < 4; i++ {
		f.bases = append(f.bases, samples(capture(i)))
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	ctx := context.Background()
	for i := 0; i < sz.fullFrames; i++ {
		raw := stamp(f.bases[i%len(f.bases)], rng.Uint64())
		frame, err := earthplus.EncodeFrame(ctx, image(raw, sz.payload), earthplus.EncodeOptions{BPP: sz.bpp})
		if err != nil {
			return nil, err
		}
		dec, err := earthplus.DecodeFrame(ctx, frame, nil, 0)
		if err != nil {
			return nil, err
		}
		f.full = append(f.full, frame)
		f.fullRaw = append(f.fullRaw, samples(dec))
	}
	big := scene.New(scene.LargeConstellation(scene.Full))
	for i := 0; i < sz.tiledFrames; i++ {
		c := big.CaptureImage(0, 50+i, i)
		img := crop(c.Truth, sz.tiled)
		big.ReleaseCapture(c)
		frame, err := earthplus.EncodeFrame(ctx, img, earthplus.EncodeOptions{BPP: 4, Tiled: true})
		if err != nil {
			return nil, err
		}
		dec, err := earthplus.DecodeFrame(ctx, frame, nil, 0)
		if err != nil {
			return nil, err
		}
		f.tiled = append(f.tiled, frame)
		f.tiledRaw = append(f.tiledRaw, samples(dec))
	}

	s := serve.New(serve.Config{RatePerSec: 1e6, DefaultBPP: sz.bpp})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	h := s.Handler()
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := f.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record("serve.handler", parent, t0, time.Now())
	})}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return f, nil
}

// close stops the server and waits for it to exit.
func (f *serveFixture) close() {
	_ = f.srv.Close()
	<-f.done
}

// crop takes the top-left n x n of im, mirroring im at its right and
// bottom edges where n exceeds its size.
func crop(im *earthplus.Image, n int) *earthplus.Image {
	out := earthplus.NewImage(n, n, im.Bands)
	mirror := func(i, size int) int {
		if i >= size {
			return 2*size - 1 - i
		}
		return i
	}
	for b := 0; b < im.NumBands(); b++ {
		src, dst := im.Plane(b), out.Plane(b)
		for y := 0; y < n; y++ {
			sy := mirror(y, im.Height)
			for x := 0; x < n; x++ {
				dst[y*n+x] = src[sy*im.Width+mirror(x, im.Width)]
			}
		}
	}
	return out
}

// samples packs an image as the serving tier's band-major LE uint16 body.
func samples(im *earthplus.Image) []byte {
	out := make([]byte, 0, im.Width*im.Height*im.NumBands()*2)
	for b := 0; b < im.NumBands(); b++ {
		for _, v := range im.Plane(b) {
			out = binary.LittleEndian.AppendUint16(out, earthplus.Quantize16(v))
		}
	}
	return out
}

// image unpacks n x n x 4 samples.
func image(raw []byte, n int) *earthplus.Image {
	im := earthplus.NewImage(n, n, earthplus.PlanetBands())
	for b := 0; b < im.NumBands(); b++ {
		p := im.Plane(b)
		for i := range p {
			p[i] = float32(binary.LittleEndian.Uint16(raw[(b*n*n+i)*2:])) / 65535
		}
	}
	return im
}

// stamp copies a payload and writes id into its first samples, making a
// payload no earlier request carried while keeping realistic content.
func stamp(base []byte, id uint64) []byte {
	out := bytes.Clone(base)
	binary.LittleEndian.PutUint64(out, id)
	return out
}

// request is one scheduled call.
type request struct {
	at    time.Duration // scheduled send time from the phase start
	class int
	// An encode's payload is base payload base stamped with id, built at
	// send time; key numbers a repeat encode's payload within the phase's
	// popular set. frame/x/y pick a decode frame and region origin.
	id          uint64
	base, key   int
	frame, x, y int
}

// body returns the request's payload.
func (r *request) body(f *serveFixture) []byte {
	switch r.class {
	case encodeUnique, encodeRepeat:
		return stamp(f.bases[r.base], r.id)
	case decodeFull:
		return f.full[r.frame]
	}
	return f.tiled[r.frame]
}

func (r *request) path(sz serveSize) string {
	switch r.class {
	case encodeUnique, encodeRepeat:
		return fmt.Sprintf("/v1/encode?width=%d&height=%d&bands=4&bpp=%g", sz.payload, sz.payload, sz.bpp)
	case decodeFull:
		return "/v1/decode"
	}
	return fmt.Sprintf("/v1/decode?x=%d&y=%d&w=%d&h=%d", r.x, r.y, sz.region, sz.region)
}

// response is one completed call. Decode bodies are checked as they
// arrive and dropped; encode frames are kept until their phase ends.
type response struct {
	req     *request
	sent    bool
	status  int
	bodyLen int
	frame   []byte        // encode responses, until checked
	psnr    float64       // of a checked unique-encode frame
	latency time.Duration // from the scheduled send time
	lag     time.Duration // how late the request was sent
	bad     string        // why the response is wrong ("" = correct)
}

func (r *response) ok() bool { return r.status == http.StatusOK && r.bad == "" }

// schedule builds rate*seconds requests at a fixed rate. Classes come in
// seeded shuffles of a block holding each class in its exact share, so
// every phase carries the same mix. Every phase draws a popular set of its
// own, picked from uniformly, so each phase starts cold on it: the first
// request for each popular payload is sent twice at once, so identical
// in-flight requests meet the coalescing path, and the rest hit the cache.
func schedule(f *serveFixture, sz serveSize, rng *rand.Rand, rate, seconds float64) []*request {
	n := int(rate * seconds)
	var reqs []*request
	var block []int
	step := time.Duration(float64(time.Second) / rate)
	popular := make([]uint64, sz.popular)
	for k := range popular {
		popular[k] = rng.Uint64() &^ (1 << 63)
	}
	seen := make([]bool, sz.popular)
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			for c, k := range classBlock {
				for j := 0; j < k; j++ {
					block = append(block, c)
				}
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := &request{at: time.Duration(i) * step, class: block[0]}
		block = block[1:]
		switch r.class {
		case encodeUnique:
			r.base, r.id = rng.IntN(len(f.bases)), rng.Uint64()|1<<63
		case encodeRepeat:
			r.key = rng.IntN(sz.popular)
			r.base, r.id = r.key%len(f.bases), popular[r.key]
			if !seen[r.key] {
				seen[r.key] = true
				twin := *r
				reqs = append(reqs, &twin)
			}
		case decodeFull:
			r.frame = rng.IntN(len(f.full))
		case decodeRegion:
			r.frame = rng.IntN(len(f.tiled))
			r.x, r.y = rng.IntN(sz.tiled-sz.region+1), rng.IntN(sz.tiled-sz.region+1)
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// openLoop sends reqs on their schedule over conns connections and
// returns one response per request. A request whose connection is busy
// at its send time waits, and the wait counts into its latency. Once a
// request goes out later than abortLag the rest are not sent (the rate
// is already lost); abortLag <= 0 sends everything.
func openLoop(ctx context.Context, client *http.Client, f *serveFixture, sz serveSize, reqs []*request, conns int, abortLag time.Duration) []response {
	out := make([]response, len(reqs))
	next := make(chan int, len(reqs)) // sized to the number of sends
	for i := range reqs {
		next <- i
	}
	close(next)
	var abort atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				r := reqs[i]
				out[i].req = r
				if abort.Load() {
					continue
				}
				if d := time.Until(start.Add(r.at)); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				lag := time.Since(start) - r.at
				if abort.Load() || ctx.Err() != nil {
					continue
				}
				if abortLag > 0 && lag > abortLag {
					abort.Store(true)
				}
				tr, span := f.tr.Load(), int64(0)
				if tr != nil {
					span = tr.reserve()
				}
				status, body := post(ctx, client, f.base+r.path(sz), r.body(f), span)
				out[i] = response{req: r, sent: true, status: status, bodyLen: len(body), latency: time.Since(start) - r.at, lag: lag}
				if tr != nil {
					// The client's span runs from the scheduled send time.
					tr.recordAs(span, "loadgen.request", 0, start.Add(r.at), start.Add(r.at+out[i].latency))
				}
				check(&out[i], body, f, sz)
			}
		}()
	}
	wg.Wait()
	return out
}

// check compares a decode response with the local decode of its frame
// (or the crop of it) and keeps an encode response's frame.
func check(r *response, body []byte, f *serveFixture, sz serveSize) {
	if r.status != http.StatusOK {
		r.bad = fmt.Sprintf("%s answered %d", classNames[r.req.class], r.status)
		return
	}
	switch r.req.class {
	case encodeUnique, encodeRepeat:
		r.frame = body
	case decodeFull:
		if !bytes.Equal(body, f.fullRaw[r.req.frame]) {
			r.bad = fmt.Sprintf("full decode of frame %d differs from the local decode", r.req.frame)
		}
	case decodeRegion:
		if !bytes.Equal(body, cropSamples(f.tiledRaw[r.req.frame], sz.tiled, r.req.x, r.req.y, sz.region)) {
			r.bad = fmt.Sprintf("region (%d,%d) of frame %d differs from the crop of its full decode", r.req.x, r.req.y, r.req.frame)
		}
	}
}

// spanHeader carries the client span's id to the server-side span.
const spanHeader = "X-Perfbench-Span"

func post(ctx context.Context, client *http.Client, url string, body []byte, span int64) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// scrape reads the server's counters from /metrics, summing label sets.
func scrape(ctx context.Context, client *http.Client, base string) map[string]float64 {
	m := map[string]float64{}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return m
	}
	resp, err := client.Do(req)
	if err != nil {
		return m
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		key := line[:i]
		if strings.HasPrefix(key, "earthplus_http_requests_total") && strings.Contains(key, `status="503"`) {
			m["rejected_503"] += v
		}
		if j := strings.IndexByte(key, '{'); j >= 0 {
			key = key[:j]
		}
		m[key] += v
	}
	return m
}

// meetsLimit reports whether a rung kept p99 latency within limit without
// a growing backlog. Unsent, failed or refused requests miss the limit.
func meetsLimit(rs []response, limit time.Duration) bool {
	lat := make([]float64, len(rs))
	for i, r := range rs {
		lat[i] = math.Inf(1)
		if r.sent && r.ok() {
			lat[i] = float64(r.latency)
		}
	}
	if quantile(lat, 0.99) > float64(limit) {
		return false
	}
	// A growing backlog shows as send lag that keeps rising: compare the
	// last quarter's median lag with the first quarter's.
	q := len(rs) / 4
	var first, last []float64
	for i := 0; i < q; i++ {
		first = append(first, float64(rs[i].lag))
		last = append(last, float64(rs[len(rs)-1-i].lag))
	}
	return q == 0 || median(last)-median(first) <= float64(limit)/2
}

// retryBudget bounds the serving phases run again for host steal in one
// run, which bounds the run's length.
const retryBudget = 4

// narrow is how many rungs on either side of the first search's answer
// the later searches span.
const narrow = 4

// ladder is the fixed rate ladder: 5% steps from 25 requests/s up to
// top.
func ladder(top float64) []float64 {
	var rates []float64
	for r := 25.0; r <= top; r *= 1.05 {
		rates = append(rates, math.Round(r*10)/10)
	}
	return rates
}

// runServe measures the serving mix: set-up (timed several times), a
// search of the fixed rate ladder for the highest rung that meets the
// p99 limit, then a longer phase at the reference rate that gives the
// latency and per-class figures. Every response is checked.
func runServe(ctx context.Context, o options, out *outcome) {
	sz := serveSizeFor(o)
	conns := runtime.GOMAXPROCS(0)
	var setups []float64
	var f *serveFixture
	for i := 0; i < sz.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		fx, err := newFixture(sz, o.seed)
		if err != nil {
			out.attempted++
			out.failed++
			out.fail("serve set-up: %v", err)
			return
		}
		setups = append(setups, since(t0))
		if f != nil {
			f.close()
		}
		f = fx
	}
	defer f.close()
	out.set("setup_s", median(setups))

	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	before := scrape(ctx, client, f.base)
	limit := time.Duration(sz.limitMs * float64(time.Millisecond))
	chk := &encodeChecker{f: f, sz: sz, popular: map[uint64][]byte{}}
	// phase runs one open-loop phase from a collected heap and checks its
	// responses once it is over. A phase during which the host stole more
	// than maxSteal of the CPU time runs again with fresh requests, at
	// most twice per phase and retryBudget times per run. Each attempt
	// draws its requests from (seed, phase, attempt).
	phases, retries := 0, 0
	phase := func(rate, seconds float64, abortLag time.Duration) ([]response, float64) {
		phases++
		for attempt := 0; ; attempt++ {
			rng := rand.New(rand.NewPCG(o.seed, uint64(phases)<<8|uint64(attempt)))
			runtime.GC()
			cpu := readCPUTimes()
			t0 := time.Now()
			rs := openLoop(ctx, client, f, sz, schedule(f, sz, rng, rate, seconds), conns, abortLag)
			wall := since(t0)
			stolen := cpu.stealShare(readCPUTimes())
			chk.check(ctx, rs)
			for _, r := range rs {
				if !r.sent {
					continue
				}
				out.attempted++
				if !r.ok() {
					out.failed++
					if len(out.problems) < 5 {
						out.fail("%s", r.bad)
					}
				}
			}
			if stolen <= maxSteal || attempt == 2 || retries == retryBudget {
				return rs, wall
			}
			retries++
			out.discarded++
		}
	}

	// Binary searches of the ladder: passing is monotone in the rate, but
	// one probe's verdict near the capacity follows the host's speed over
	// its few seconds. So the first search spans the ladder, two more
	// search the rungs around its answer, and the median answer is the
	// capacity. A probe at that rung, sent in full, gives the goodput.
	rates := ladder(sz.maxRate)
	search := func(lo, hi int) int {
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if rs, _ := phase(rates[mid], sz.rung, 2*limit); meetsLimit(rs, limit) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	first := search(-1, len(rates))
	answers := []float64{float64(first)}
	for k := 0; k < 2; k++ {
		answers = append(answers, float64(search(max(first-narrow, -1), min(first+narrow+1, len(rates)))))
	}
	maxRate, goodput := 0.0, 0.0
	if at := int(median(answers)); at >= 0 {
		maxRate = rates[at]
		rs, wall := phase(maxRate, sz.rung, 0)
		goodput = float64(countOK(rs)) / wall
	}
	// The reference rate runs as refParts phases; p50 and p99 are the
	// medians of the phases' percentiles, so a host stall in one phase
	// does not set them.
	var refRs []response
	var p50, p99 []float64
	for k := 0; k < sz.refParts; k++ {
		rs, _ := phase(sz.refRate, sz.ref/float64(sz.refParts), 0)
		var lat []float64
		for _, r := range rs {
			lat = append(lat, float64(r.latency.Nanoseconds())/1e6)
		}
		p50 = append(p50, quantile(lat, 0.50))
		p99 = append(p99, quantile(lat, 0.99))
		refRs = append(refRs, rs...)
	}
	var tracedRs []response
	var tr *tracer
	if o.trace {
		// The same rate again with spans on: the per-class figures and
		// the tracing overhead come from this phase.
		tr = newTracer()
		f.tr.Store(tr)
		tracedRs, _ = phase(sz.refRate, sz.ref, 0)
		f.tr.Store(nil)
	}
	after := scrape(ctx, client, f.base)

	var lat, lag, psnr, frameBytes, respBytes []float64
	perClass := make([][]float64, numClasses)
	for _, r := range refRs {
		lat = append(lat, float64(r.latency.Nanoseconds())/1e6)
		lag = append(lag, float64(r.lag.Nanoseconds())/1e6)
		if !r.ok() {
			continue
		}
		respBytes = append(respBytes, float64(r.bodyLen))
		if r.req.class == encodeUnique {
			frameBytes = append(frameBytes, float64(r.bodyLen))
			psnr = append(psnr, r.psnr)
		}
	}
	out.set("p50_ms", median(p50))
	out.set("p99_ms", median(p99))
	out.set("max_rate_rps", maxRate)
	out.set("captures_per_s", goodput)
	out.set("down_bytes_per_capture", mean(frameBytes))
	out.set("psnr_db", mean(psnr))
	out.set("uplink_bytes_per_sat_day", mean(respBytes))
	out.set("loadgen.lag_p99_ms", quantile(lag, 0.99))
	if o.trace {
		var tracedLat []float64
		for _, r := range tracedRs {
			ms := float64(r.latency.Nanoseconds()) / 1e6
			tracedLat = append(tracedLat, ms)
			perClass[r.req.class] = append(perClass[r.req.class], ms)
		}
		for c, xs := range perClass {
			out.set("serve."+classNames[c]+"_p50_ms", quantile(xs, 0.50))
			out.set("serve."+classNames[c]+"_p99_ms", quantile(xs, 0.99))
		}
		out.set("trace.overhead_pct", 100*(quantile(tracedLat, 0.5)/quantile(lat, 0.5)-1))
		if err := writeTrace(o.traceDir, fmt.Sprintf("serve-mixed-seed%d.json", o.seed), tr.spans); err != nil {
			out.fail("writing trace: %v", err)
		}
	}

	d := func(k string) float64 { return after[k] - before[k] }
	hits := d("earthplus_cache_hits_total")
	if lookups := hits + d("earthplus_cache_misses_total"); lookups > 0 {
		out.set("serve.cache_hit_ratio", hits/lookups)
	}
	out.set("serve.coalesced", d("earthplus_coalesced_requests_total"))
	out.set("serve.rejected_503", d("rejected_503"))
	out.set("serve.rejected_429", d("earthplus_rate_limited_total"))
	// The mechanism checks are sized for the full workload, not the smoke
	// test's. Twins meet in flight only over two connections, so one
	// usable core leaves the coalescing check out.
	if hits == 0 && !o.tiny {
		out.fail("serve-mixed: no cache hits, so the repeat class missed the cache")
	}
	switch {
	case conns < 2:
		out.skip("serve-mixed: coalescing check left out: %d connection cannot carry two identical requests at once", conns)
	case d("earthplus_coalesced_requests_total") == 0 && !o.tiny:
		out.fail("serve-mixed: no coalesced request, so the coalescing path never ran")
	}
	if o.trace {
		codecLayers(ctx, f, sz, out)
	}
}

// encodeChecker checks encode frames phase by phase: each must parse and
// decode at the requested dimensions, and every response for one popular
// payload must be byte-identical to the first good one. Frames are
// decoded on all cores after their phase, then dropped.
type encodeChecker struct {
	f       *serveFixture
	sz      serveSize
	popular map[uint64][]byte // first good frame per popular payload id
}

func (c *encodeChecker) check(ctx context.Context, rs []response) {
	var todo []*response
	for i := range rs {
		r := &rs[i]
		if !r.ok() || r.frame == nil {
			continue
		}
		if first, ok := c.popular[r.req.id]; ok && r.req.class == encodeRepeat {
			if !bytes.Equal(first, r.frame) {
				r.bad = fmt.Sprintf("repeat encode of popular payload %d differs from its first response", r.req.key)
			}
			continue
		}
		todo = append(todo, r)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(todo) {
					return
				}
				r := todo[j]
				im, err := earthplus.DecodeFrame(ctx, earthplus.Codestream(r.frame), nil, 0)
				switch {
				case err != nil:
					r.bad = fmt.Sprintf("encode frame does not decode: %v", err)
				case im.Width != c.sz.payload || im.Height != c.sz.payload || im.NumBands() != 4:
					r.bad = fmt.Sprintf("encode frame decodes to %dx%dx%d, requested %dx%dx4", im.Width, im.Height, im.NumBands(), c.sz.payload, c.sz.payload)
				default:
					r.psnr = psnr16(r.req.body(c.f), samples(im))
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range todo {
		if r.req.class != encodeRepeat || !r.ok() {
			continue
		}
		if first, ok := c.popular[r.req.id]; !ok {
			c.popular[r.req.id] = r.frame
		} else if !bytes.Equal(first, r.frame) {
			r.bad = fmt.Sprintf("repeat encode of popular payload %d differs from its first response", r.req.key)
		}
	}
	for i := range rs {
		rs[i].frame = nil
	}
}

// countOK counts the correct responses.
func countOK(rs []response) int {
	n := 0
	for _, r := range rs {
		if r.ok() {
			n++
		}
	}
	return n
}

// cropSamples cuts an n x n region at (x, y) out of band-major samples of
// a side x side x 4 image.
func cropSamples(raw []byte, side, x, y, n int) []byte {
	out := make([]byte, 0, n*n*4*2)
	for b := 0; b < 4; b++ {
		for row := y; row < y+n; row++ {
			off := (b*side*side + row*side + x) * 2
			out = append(out, raw[off:off+n*2]...)
		}
	}
	return out
}

// psnr16 is the PSNR of b against a over 16-bit samples.
func psnr16(a, b []byte) float64 {
	var se float64
	n := len(a) / 2
	for i := 0; i < n; i++ {
		d := float64(binary.LittleEndian.Uint16(a[2*i:])) - float64(binary.LittleEndian.Uint16(b[2*i:]))
		se += d * d
	}
	if se == 0 {
		return 100
	}
	return 10 * math.Log10(65535*65535/(se/float64(n)))
}

// codecLayers times the codec calls the serving tier makes, on this
// workload's own payloads: EncodeFrame and DecodeFrame on the encode
// payload size, DecodeFrameRegion on the tiled frames.
func codecLayers(ctx context.Context, f *serveFixture, sz serveSize, out *outcome) {
	mb := float64(sz.payload*sz.payload*4*2) / 1e6
	var enc, dec, reg []float64
	for i := 0; i < 3*len(f.bases); i++ {
		im := image(f.bases[i%len(f.bases)], sz.payload)
		t0 := time.Now()
		frame, err := earthplus.EncodeFrame(ctx, im, earthplus.EncodeOptions{BPP: sz.bpp})
		if err != nil {
			out.fail("codec encode: %v", err)
			return
		}
		enc = append(enc, mb/since(t0))
		t1 := time.Now()
		if _, err := earthplus.DecodeFrame(ctx, frame, nil, 0); err != nil {
			out.fail("codec decode: %v", err)
			return
		}
		dec = append(dec, mb/since(t1))
	}
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		x, y := (i*37)%(sz.tiled-sz.region), (i*91)%(sz.tiled-sz.region)
		if _, err := earthplus.DecodeFrameRegion(ctx, f.tiled[i%len(f.tiled)], nil, x, y, sz.region, sz.region); err != nil {
			out.fail("codec region decode: %v", err)
			return
		}
		reg = append(reg, 1e3*since(t0))
	}
	out.set("codec.encode_mb_s", median(enc))
	out.set("codec.decode_mb_s", median(dec))
	out.set("codec.region_decode_ms", median(reg))
}
