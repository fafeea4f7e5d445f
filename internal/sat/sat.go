// Package sat implements the on-board half of the reproduction: the
// reference cache a satellite keeps for every location it will visit, and
// the capture-processing pipeline of §5 — cheap cloud removal, image
// dropping, illumination alignment, downsampled change detection, and
// region-of-interest encoding of the changed tiles.
package sat

import (
	"fmt"
	"sync"
	"time"

	"earthplus/internal/change"
	"earthplus/internal/cloud"
	"earthplus/internal/codec"
	"earthplus/internal/container"
	"earthplus/internal/illum"
	"earthplus/internal/orbit"
	"earthplus/internal/raster"
)

// LowResRef is one cached downsampled reference image.
type LowResRef struct {
	// Image is the reference content at the pipeline's detection
	// resolution (already cloud-free by ground-side construction).
	Image *raster.Image
	// Day is the capture day of the reference content (its freshness).
	Day int
}

// Policy names a reference-store eviction policy.
type Policy string

const (
	// PolicyLRU evicts the least-recently-visited location first (ties
	// break toward the smaller location id, so eviction is deterministic).
	PolicyLRU Policy = "lru"
	// PolicySchedule evicts the location whose next planned visit is
	// farthest in the future — the reference the satellite can best afford
	// to lose, since the ground has the most days to re-seed it. Requires
	// CacheConfig.NextVisit (the orbit schedule core precomputes its visit
	// plans from).
	PolicySchedule Policy = "schedule"
)

// Policies lists the known eviction policy names.
func Policies() []string { return []string{string(PolicyLRU), string(PolicySchedule)} }

// RawBitsPerSample is the raw on-board storage cost of one reference band
// sample: the 16-bit quantisation the codec's lossless mode (and hence the
// ground mirror) assumes. core.RefStoreBitsPerSample and the SatRoI
// baseline's full-resolution store both alias this one constant, so the
// accounting rate cannot drift between layers.
const RawBitsPerSample = 16

// defaultDecodedCap is the default size of the decode-on-visit LRU in a
// compressed cache: enough decoded references for one contact's worth of
// repeat visits without holding a raw copy of the whole store.
const defaultDecodedCap = 8

// CacheConfig bounds a reference cache to a satellite's finite on-board
// store. The zero value means unbounded (the pre-storage-model behavior).
type CacheConfig struct {
	// BudgetBytes caps the cache footprint; <= 0 means unlimited.
	BudgetBytes int64
	// BitsPerSample is the a-priori storage cost of one band sample at
	// detection resolution (0 = RawBitsPerSample). With Compress off it is
	// the exact accounting rate; with Compress on, entries are charged
	// their real encoded byte count instead and BitsPerSample only feeds
	// estimates made before any entry exists (working-set math, sweep
	// budget fractions) — see EffectiveBitsPerSample.
	BitsPerSample int
	// Policy selects the eviction order ("" = lru).
	Policy Policy
	// NextVisit predicts the first day strictly after afterDay on which
	// the satellite revisits loc. Required by PolicySchedule.
	NextVisit func(loc, afterDay int) int
	// Compress stores each reference as its encoded container frame at
	// StoreBPP bits per pixel — the uplink's reference rate, the
	// representation the updates arrive in — instead of raw planes: the
	// footprint charged against BudgetBytes is the actual encoded byte
	// count (RawBitsPerSample/StoreBPP smaller, so the same budget holds
	// ~2-5x more locations), and Visit decodes lazily, with a small
	// decoded-plane LRU so repeat visits within a contact don't re-pay
	// the decode. Put takes the PRE-storage-codec image and applies the
	// codec itself (EncodeStoredRef); the ground's mirror must model the
	// same transform (station.Config.CompressRefs) or delta uplinks would
	// be encoded against content the satellite never held.
	Compress bool
	// StoreBPP is the storage codec rate of a compressed cache, in bits
	// per pixel per band. Required (> 0) when Compress is set; Earth+
	// wires its uplink RefBPP here so on-board storage and uplink share
	// one representation.
	StoreBPP float64
	// Codec configures the storage codec of a compressed cache. It must
	// match the ground's reference-update codec options so both sides
	// produce byte-identical frames.
	Codec codec.Options
	// DecodedCap bounds the decode-on-visit LRU of a compressed cache
	// (0 = defaultDecodedCap). It trades decode work for scratch memory
	// and never affects simulation results: decoding is pure, so a cold
	// decode returns the same bytes a cached plane would.
	DecodedCap int
}

// EffectiveBitsPerSample resolves the per-sample rate a-priori estimates
// (reference working sets, sweep budget fractions) should assume for this
// configuration. It is the resolved BitsPerSample: with Compress on the
// real footprint is measured per entry at install time and is usually
// several times smaller, so callers needing the true compressed rate must
// measure it (FootprintBytes / stored samples) rather than predict it.
func (c CacheConfig) EffectiveBitsPerSample() int { return c.withDefaults().BitsPerSample }

// ResolveBudget maps the stack's three-valued storage knob onto a cache
// budget, in ONE place for every constructor and registry shim: zero
// means the paper's Table 1 default (orbit.DovesSpec().StorageBytes,
// 360 GB), negative means explicitly unlimited (a zero CacheConfig
// budget), positive passes through.
func ResolveBudget(storageBytes int64) int64 {
	switch {
	case storageBytes == 0:
		return orbit.DovesSpec().StorageBytes
	case storageBytes < 0:
		return 0
	default:
		return storageBytes
	}
}

// withDefaults resolves the zero values.
func (c CacheConfig) withDefaults() CacheConfig {
	if c.BitsPerSample <= 0 {
		c.BitsPerSample = RawBitsPerSample
	}
	if c.Policy == "" {
		c.Policy = PolicyLRU
	}
	if c.DecodedCap <= 0 {
		c.DecodedCap = defaultDecodedCap
	}
	return c
}

// validate reports configuration errors.
func (c CacheConfig) validate() error {
	switch c.Policy {
	case PolicyLRU:
	case PolicySchedule:
		if c.NextVisit == nil {
			return fmt.Errorf("sat: eviction policy %q needs a NextVisit schedule", c.Policy)
		}
	default:
		return fmt.Errorf("sat: unknown eviction policy %q (known: %v)", c.Policy, Policies())
	}
	if c.Compress && c.StoreBPP <= 0 {
		return fmt.Errorf("sat: compressed reference store needs a positive StoreBPP rate")
	}
	return nil
}

// EncodeStoredRef encodes every band of a reference image at bpp bits per
// pixel into one container frame: the representation a compressed
// on-board store holds. It is ONE function shared by sat.RefCache and the
// ground's mirror simulation (station.Config.CompressRefs), so both sides
// produce byte-identical frames from the same input — the coherence delta
// uplinks depend on.
func EncodeStoredRef(im *raster.Image, bpp float64, opts codec.Options) (container.Codestream, error) {
	streams := make([][]byte, im.NumBands())
	errs := make([]error, im.NumBands())
	codec.ParallelBands(opts.Parallelism, im.NumBands(), func(b int) {
		bandOpts := opts
		bandOpts.BudgetBytes = int(bpp * float64(im.Width*im.Height) / 8)
		if bandOpts.BudgetBytes < codec.MinBudgetBytes {
			bandOpts.BudgetBytes = codec.MinBudgetBytes
		}
		data, err := codec.EncodePlane(im.Plane(b), im.Width, im.Height, bandOpts)
		if err != nil {
			errs[b] = fmt.Errorf("sat: encoding stored reference band %d: %w", b, err)
			return
		}
		streams[b] = data
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return container.Pack(streams), nil
}

// SpliceStats reports what a per-tile reference splice touched: how many
// codec tiles were re-encoded versus carried over verbatim, and the
// wall-clock spent region-decoding the base content of the re-encoded
// tiles. The tile counters are the measured decode-on-visit savings of
// the tiled profile (a monolithic splice decodes and re-encodes every
// tile, i.e. Reencoded == Total).
type SpliceStats struct {
	TilesReencoded int64
	TilesTotal     int64
	DecodeNanos    int64
}

// SpliceStoredRef applies a tile update to a stored TILED reference frame
// by re-encoding only the codec tiles that intersect a changed mask tile:
// the base content of those tiles is region-decoded from the old frame
// (only the touched tiles are decoded), the update's masked tiles are
// overlaid, and every untouched tile's payload bytes are reused verbatim.
// The ground's mirror simulation splices with it and ships the result for
// the store to install verbatim (RefCache.PutFrame), so both sides hold
// byte-identical frames — the coherence invariant of the delta uplink, at
// tile granularity. bpp and opts must be the store's rate parameters
// (CacheConfig.StoreBPP / CacheConfig.Codec).
func SpliceStoredRef(frame container.Codestream, w, h int, bands []raster.BandInfo,
	update *raster.Image, perBand []*raster.TileMask, bpp float64, opts codec.Options) (container.Codestream, SpliceStats, error) {
	var stats SpliceStats
	streams, err := frame.SplitNoCRC()
	if err != nil {
		return nil, stats, fmt.Errorf("sat: splicing stored reference: %w", err)
	}
	if len(streams) != len(bands) {
		return nil, stats, fmt.Errorf("sat: stored reference frame carries %d bands, want %d", len(streams), len(bands))
	}
	budget := int(bpp * float64(w*h) / 8)
	if budget < codec.MinBudgetBytes {
		budget = codec.MinBudgetBytes
	}
	bandOpts := opts
	bandOpts.BudgetBytes = budget
	out := make([][]byte, len(streams))
	errs := make([]error, len(streams))
	var mu sync.Mutex
	codec.ParallelBands(opts.Parallelism, len(streams), func(b int) {
		s := streams[b]
		mask := perBand[b]
		if s == nil || mask == nil || mask.Count() == 0 {
			out[b] = s
			return
		}
		if !codec.IsTiled(s) {
			errs[b] = fmt.Errorf("sat: band %d of spliced frame is not tiled", b)
			return
		}
		info, err := codec.Parse(s)
		if err != nil {
			errs[b] = fmt.Errorf("sat: band %d: %w", b, err)
			return
		}
		if info.W != w || info.H != h {
			errs[b] = fmt.Errorf("sat: band %d is %dx%d, want %dx%d", b, info.W, info.H, w, h)
			return
		}
		// Project the changed mask onto the codec grid and region-decode
		// ONLY the touched codec tiles into the base plane; untouched
		// pixels are never read downstream.
		cols := raster.TileSpan(w, info.TileSize)
		rows := raster.TileSpan(h, info.TileSize)
		touched := make([]bool, cols*rows)
		g := mask.Grid
		for t, set := range mask.Set {
			if !set {
				continue
			}
			mx0, my0, mx1, my1 := g.Bounds(t)
			c0, r0, c1, r1 := raster.TileRange(w, h, info.TileSize, mx0, my0, mx1, my1)
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					touched[r*cols+c] = true
				}
			}
		}
		base := make([]float32, w*h)
		var decoded, decNanos int64
		t0 := time.Now() //lint:deterministic wall time feeds DecodeStats only, excluded by EqualIgnoringTimings
		for t, hit := range touched {
			if !hit {
				continue
			}
			x0, y0, x1, y1 := raster.ClampedTileBounds(w, h, info.TileSize, t)
			reg, cw, _, err := codec.DecodeRegion(s, x0, y0, x1-x0, y1-y0)
			if err != nil {
				errs[b] = fmt.Errorf("sat: band %d tile %d: %w", b, t, err)
				return
			}
			for dy := 0; dy < y1-y0; dy++ {
				row := reg[dy*cw : dy*cw+cw]
				dst := base[(y0+dy)*w+x0 : (y0+dy)*w+x1]
				for i, v := range row {
					// The splice base is the decoded reference, which is
					// clamped to [0,1] exactly as DecodeStoredRef clamps.
					if v < 0 {
						v = 0
					} else if v > 1 {
						v = 1
					}
					dst[i] = v
				}
			}
			decoded++
		}
		decNanos = time.Since(t0).Nanoseconds() //lint:deterministic wall time feeds DecodeStats only, excluded by EqualIgnoringTimings
		// Overlay the update's changed tiles (original pixel values, as
		// the raw splice path copies them).
		for t, set := range mask.Set {
			if !set {
				continue
			}
			mx0, my0, mx1, my1 := g.Bounds(t)
			up := update.Plane(b)
			for y := my0; y < my1; y++ {
				copy(base[y*w+mx0:y*w+mx1], up[y*w+mx0:y*w+mx1])
			}
		}
		ns, err := codec.TiledSplicePlane(s, base, mask, bandOpts)
		if err != nil {
			errs[b] = fmt.Errorf("sat: band %d: %w", b, err)
			return
		}
		out[b] = ns
		mu.Lock()
		stats.TilesReencoded += decoded
		stats.TilesTotal += int64(info.NTiles)
		stats.DecodeNanos += decNanos
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	return container.Pack(out), stats, nil
}

// DecodeStoredRef reverses EncodeStoredRef into a fresh image of the
// given geometry.
func DecodeStoredRef(cs container.Codestream, w, h int, bands []raster.BandInfo) (*raster.Image, error) {
	streams, err := cs.Split()
	if err != nil {
		return nil, fmt.Errorf("sat: stored reference frame: %w", err)
	}
	if len(streams) != len(bands) {
		return nil, fmt.Errorf("sat: stored reference frame carries %d bands, want %d", len(streams), len(bands))
	}
	im := raster.New(w, h, bands)
	for b, data := range streams {
		plane, pw, ph, err := codec.DecodePlane(data, 0)
		if err != nil {
			return nil, fmt.Errorf("sat: decoding stored reference band %d: %w", b, err)
		}
		if pw != w || ph != h {
			return nil, fmt.Errorf("sat: stored reference band %d decodes to %dx%d, want %dx%d", b, pw, ph, w, h)
		}
		copy(im.Plane(b), plane)
	}
	im.Clamp()
	return im, nil
}

// ValidateFrame is the satellite's integrity gate for a received
// container frame: the structural parse plus the CRC-32C trailer check,
// without decoding any payload. A lossy uplink's RefUpdate (and, under
// RefCompression, its StoreFrame) must pass it before ANY splice into
// on-board state — a corrupted or truncated frame is rejected whole and
// the cache keeps its stale-but-coherent reference.
func ValidateFrame(cs container.Codestream) error {
	if _, err := cs.Split(); err != nil {
		return fmt.Errorf("sat: frame rejected: %w", err)
	}
	return nil
}

// refMeta is the per-entry bookkeeping eviction decisions read.
type refMeta struct {
	// lastVisit is the day of the entry's most recent visit (or install).
	lastVisit int
	// bytes is the entry's accounted footprint.
	bytes int64
}

// compRef is one compressed cache entry: the reference held as its
// losslessly encoded container frame plus the geometry needed to decode
// it back into a raster image.
type compRef struct {
	frame container.Codestream
	w, h  int
	bands []raster.BandInfo
	day   int
}

// RefCache holds a satellite's on-board reference images, keyed by
// location, bounded by the satellite's storage budget. Earth+ caches
// references on board so that uplink updates only need to carry changed
// reference tiles (§4.3); because the store is finite, an insert may evict
// other locations, and a later Visit of an evicted location MISSES — the
// pipeline then falls back to reference-free encoding until the ground
// re-seeds the reference over the uplink.
//
// With CacheConfig.Compress the store holds each reference as its encoded
// container frame at the uplink's reference rate (StoreBPP) — the
// footprint charged against the budget is the actual encoded byte count,
// so the same budget holds roughly RawBitsPerSample/StoreBPP more
// locations — and Visit decodes lazily through a small decoded-plane LRU.
// An entry's content is ALWAYS decode(frame): installs run the storage
// codec (or accept a pre-encoded frame via PutFrame), and the ground
// simulates the same transform on its mirror, so what the satellite
// detects changes against is byte-equal to what the ground believes it
// holds.
//
// Determinism contract: eviction decisions depend only on the visit
// schedule (day numbers), never on wall-clock or goroutine order. Visit
// records recency per location as the capture day — concurrent visits to
// distinct locations write distinct entries, so the sharded engine reaches
// the same cache state at any worker count — and every mutation that can
// evict (Put, PutFrame) happens on the engine's serial phases
// (bootstrap, day-end barrier).
//
// The cache is safe for concurrent use on DISTINCT locations: the sharded
// simulation engine looks up references for many locations at once while a
// satellite's cache is shared across its day's visits. Same-location
// ordering is the caller's responsibility (the engine serialises each
// location's visit sequence).
type RefCache struct {
	mu  sync.RWMutex
	cfg CacheConfig
	// refs holds raw-mode entries; frames holds compressed-mode entries.
	// Exactly one of the two is populated, per cfg.Compress.
	refs   map[int]*LowResRef
	frames map[int]*compRef
	meta   map[int]*refMeta
	// used is the accounted footprint of every entry, in bytes.
	used int64
	// lastDay is the latest day observed via Visit/Put/PutFrame;
	// PolicySchedule predicts next visits relative to it.
	lastDay int
	// evictions and misses count capacity evictions and Visit misses.
	evictions, misses int64
	// dec is the decode-on-visit LRU of a compressed cache: up to
	// cfg.DecodedCap decoded references, decOrder oldest-first. It is a
	// pure performance device — decode is deterministic, so its state
	// never changes what Visit returns — which is exactly why the decode
	// counters below are advisory: under the sharded engine, visit
	// interleaving across locations (and hence LRU churn) varies with the
	// worker count.
	dec      map[int]*LowResRef
	decOrder []int
	// decodes and decodeHits count frame decodes and LRU-served lookups;
	// decodeNanos accumulates the wall-clock spent inside those decodes,
	// so the decode-on-visit cost of a compressed store is measurable,
	// not just countable.
	decodes, decodeHits int64
	decodeNanos         int64
}

// NewRefCache returns an empty, unbounded cache.
func NewRefCache() *RefCache {
	c, _ := NewBoundedRefCache(CacheConfig{}) // zero config always validates
	return c
}

// NewBoundedRefCache returns an empty cache honouring cfg's storage budget
// and eviction policy.
func NewBoundedRefCache(cfg CacheConfig) (*RefCache, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &RefCache{
		cfg:  cfg,
		meta: make(map[int]*refMeta),
	}
	if cfg.Compress {
		c.frames = make(map[int]*compRef)
		c.dec = make(map[int]*LowResRef)
	} else {
		c.refs = make(map[int]*LowResRef)
	}
	return c, nil
}

// encodeFrame runs the storage codec over a reference image. The cache
// produced the image itself, so an encode failure is a programming error,
// not a runtime condition.
func (c *RefCache) encodeFrame(im *raster.Image) container.Codestream {
	frame, err := EncodeStoredRef(im, c.cfg.StoreBPP, c.cfg.Codec)
	if err != nil {
		panic(fmt.Sprintf("sat: %v", err))
	}
	return frame
}

// decodeEntryLocked returns loc's decoded reference, serving repeat visits
// from the decode-on-visit LRU and decoding the stored frame on a cold
// lookup. The returned LowResRef aliases the LRU entry, mirroring raw
// mode's shared-image semantics. The LRU never changes WHAT a visit sees
// — only whether the decode work is re-paid — because entries enter it
// exclusively through this decode path.
func (c *RefCache) decodeEntryLocked(loc int) *LowResRef {
	if lr := c.dec[loc]; lr != nil {
		c.decodeHits++
		c.touchDecodedLocked(loc)
		return lr
	}
	e := c.frames[loc]
	t0 := time.Now() //lint:deterministic wall time feeds the cache's DecodeStats only, excluded by EqualIgnoringTimings
	im, err := DecodeStoredRef(e.frame, e.w, e.h, e.bands)
	if err != nil {
		panic(fmt.Sprintf("sat: loc %d: %v", loc, err))
	}
	c.decodeNanos += time.Since(t0).Nanoseconds() //lint:deterministic wall time feeds the cache's DecodeStats only, excluded by EqualIgnoringTimings
	c.decodes++
	lr := &LowResRef{Image: im, Day: e.day}
	c.insertDecodedLocked(loc, lr)
	return lr
}

// insertDecodedLocked installs a decoded reference into the LRU, evicting
// the oldest decoded planes beyond DecodedCap entries.
func (c *RefCache) insertDecodedLocked(loc int, lr *LowResRef) {
	if _, ok := c.dec[loc]; ok {
		c.touchDecodedLocked(loc)
	} else {
		c.decOrder = append(c.decOrder, loc)
	}
	c.dec[loc] = lr
	for len(c.decOrder) > c.cfg.DecodedCap {
		c.dropDecodedLocked(c.decOrder[0])
	}
}

// touchDecodedLocked moves loc to the most-recent end of the LRU order.
func (c *RefCache) touchDecodedLocked(loc int) {
	for i, l := range c.decOrder {
		if l == loc {
			c.decOrder = append(append(c.decOrder[:i:i], c.decOrder[i+1:]...), loc)
			return
		}
	}
}

// dropDecodedLocked removes loc's decoded plane, if cached.
func (c *RefCache) dropDecodedLocked(loc int) {
	if _, ok := c.dec[loc]; !ok {
		return
	}
	delete(c.dec, loc)
	for i, l := range c.decOrder {
		if l == loc {
			c.decOrder = append(c.decOrder[:i], c.decOrder[i+1:]...)
			return
		}
	}
}

// entryBytes is the accounted footprint of one reference image: exact
// integer arithmetic in bits per sample, rounded up to whole bytes per
// entry (float accumulation used to truncate fractional bytes-per-pixel
// footprints on large caches).
func (c *RefCache) entryBytes(im *raster.Image) int64 {
	samples := int64(im.Width) * int64(im.Height) * int64(im.NumBands())
	return (samples*int64(c.cfg.BitsPerSample) + 7) / 8
}

// Get returns the cached reference for loc, or nil. It does not count as a
// visit; capture processing uses Visit so eviction recency tracks the
// schedule. In compressed mode the entry is decoded (through the LRU) like
// a visit would, without touching eviction recency.
func (c *RefCache) Get(loc int) *LowResRef {
	if !c.cfg.Compress {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.refs[loc]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frames[loc] == nil {
		return nil
	}
	return c.decodeEntryLocked(loc)
}

// Visit returns the cached reference for loc, recording the visit day for
// eviction recency. A nil return is a cache MISS: the reference was
// evicted (or never seeded) and the caller must fall back to
// reference-free encoding. Recency is keyed by day, so concurrent visits
// to distinct locations leave the same state in any order. A compressed
// cache decodes the stored frame here — decode-on-visit is the cost the
// compressed footprint trades for — with repeat visits served from the
// decoded-plane LRU.
func (c *RefCache) Visit(loc, day int) *LowResRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	if day > c.lastDay {
		c.lastDay = day
	}
	if c.cfg.Compress {
		if c.frames[loc] == nil {
			c.misses++
			return nil
		}
		if m := c.meta[loc]; day > m.lastVisit {
			m.lastVisit = day
		}
		return c.decodeEntryLocked(loc)
	}
	ref := c.refs[loc]
	if ref == nil {
		c.misses++
		return nil
	}
	if m := c.meta[loc]; day > m.lastVisit {
		m.lastVisit = day
	}
	return ref
}

// Put replaces the reference for loc (the image is not copied) and returns
// the locations evicted to fit it under the storage budget (nil when
// nothing was evicted). The caller owns ground-mirror bookkeeping for the
// returned locations; a new reference larger than the whole budget evicts
// itself and the cache stays without the entry.
//
// A compressed cache expects the PRE-storage-codec image (e.g. the
// bootstrap seed, or a decoded uplink update before mirror simulation)
// and stores its encoded frame; the image itself is not retained, and the
// next Visit decodes the frame — NOT the bytes passed here. Installing an
// image that already went through the storage codec would apply the codec
// twice and diverge from the ground's mirror.
func (c *RefCache) Put(loc int, im *raster.Image, day int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installLocked(loc, &LowResRef{Image: im, Day: day}, day)
	return c.evictLocked(loc)
}

// PutFrame installs a pre-encoded storage frame for loc — the uplink's
// reference codestream routed straight into the store, with no raw
// expansion and no re-encode. decoded supplies the frame's geometry (its
// pixels are not retained); day stamps the entry's content freshness.
// Only valid on a compressed cache. Like Put, it returns the locations
// evicted to fit the entry.
func (c *RefCache) PutFrame(loc int, frame container.Codestream, decoded *raster.Image, day int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.cfg.Compress {
		panic("sat: PutFrame on a raw reference cache")
	}
	if day > c.lastDay {
		c.lastDay = day
	}
	c.frames[loc] = &compRef{
		frame: frame,
		w:     decoded.Width, h: decoded.Height,
		bands: decoded.Bands,
		day:   day,
	}
	c.dropDecodedLocked(loc) // any cached decode of the old frame is stale
	c.accountLocked(loc, int64(len(frame)))
	return c.evictLocked(loc)
}

// installLocked inserts or replaces loc's entry and its accounting. LRU
// recency is stamped with the cache's current day (lastDay), NOT the
// reference's content day: uplink updates install content captured days
// ago, and stamping them with the content day would make every freshly
// re-seeded entry the least-recently-visited one — it would be evicted
// again on the very next install, thrashing the store into permanent
// misses. lastDay is the maximum day any visit or install has reached,
// which at the engine's serial install phases equals the current
// simulation day at every worker count.
func (c *RefCache) installLocked(loc int, ref *LowResRef, day int) {
	if day > c.lastDay {
		c.lastDay = day
	}
	var bytes int64
	if c.cfg.Compress {
		// The storage codec runs here: what the store keeps (and what
		// every future Visit decodes) is the frame, not the caller's
		// image — a stale decode of the previous frame must go too.
		frame := c.encodeFrame(ref.Image)
		bytes = int64(len(frame))
		c.frames[loc] = &compRef{
			frame: frame,
			w:     ref.Image.Width, h: ref.Image.Height,
			bands: ref.Image.Bands,
			day:   ref.Day,
		}
		c.dropDecodedLocked(loc)
	} else {
		bytes = c.entryBytes(ref.Image)
		c.refs[loc] = ref
	}
	c.accountLocked(loc, bytes)
}

// accountLocked books loc's entry at bytes, stamping install recency with
// the cache's current day (see installLocked's doc for why lastDay, not
// the content day).
func (c *RefCache) accountLocked(loc int, bytes int64) {
	if m := c.meta[loc]; m != nil {
		c.used += bytes - m.bytes
		m.bytes = bytes
		if c.lastDay > m.lastVisit {
			m.lastVisit = c.lastDay
		}
	} else {
		c.used += bytes
		c.meta[loc] = &refMeta{lastVisit: c.lastDay, bytes: bytes}
	}
}

// evictLocked removes entries until the footprint fits the budget and
// returns the evicted locations; installed is the entry whose insert
// triggered the check. An installed entry that can NEVER fit — larger by
// itself than the whole budget — is evicted first, so one oversize insert
// costs only itself instead of flushing every other cached reference on
// its way out. Victim selection is a pure function of (policy, entry
// metadata, lastDay), so a run is deterministic at any engine worker
// count.
func (c *RefCache) evictLocked(installed int) []int {
	if c.cfg.BudgetBytes <= 0 {
		return nil
	}
	var evicted []int
	if m := c.meta[installed]; m != nil && m.bytes > c.cfg.BudgetBytes {
		evicted = append(evicted, c.removeLocked(installed))
	}
	for c.used > c.cfg.BudgetBytes && len(c.meta) > 0 {
		evicted = append(evicted, c.removeLocked(c.victimLocked()))
	}
	return evicted
}

// removeLocked drops one entry and its accounting, counting the eviction.
func (c *RefCache) removeLocked(victim int) int {
	c.used -= c.meta[victim].bytes
	if c.cfg.Compress {
		delete(c.frames, victim)
		c.dropDecodedLocked(victim)
	} else {
		delete(c.refs, victim)
	}
	delete(c.meta, victim)
	c.evictions++
	return victim
}

// victimLocked picks the next location to evict under the configured
// policy. Ties always break toward the smaller location id, so the choice
// is unique regardless of map iteration order.
func (c *RefCache) victimLocked() int {
	victim, best := -1, 0
	for loc, m := range c.meta {
		var key int
		switch c.cfg.Policy {
		case PolicySchedule:
			// Farthest next planned visit goes first; negated so that the
			// shared "smaller key wins" comparison below applies.
			key = -c.cfg.NextVisit(loc, c.lastDay)
		default: // PolicyLRU
			key = m.lastVisit
		}
		if victim < 0 || key < best || (key == best && loc < victim) {
			victim, best = loc, key
		}
	}
	return victim
}

// FootprintBytes returns the cache's accounted storage footprint.
func (c *RefCache) FootprintBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.used
}

// StorageBytes returns the cache's hypothetical footprint at bitsPerSample
// of storage per band sample, in exact integer arithmetic (each entry
// rounds up to whole bytes). For a compressed cache this is the raw-rate
// equivalent of the resident set — compare it against FootprintBytes (the
// real encoded bytes) to read off the achieved storage compression.
func (c *RefCache) StorageBytes(bitsPerSample int) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	add := func(w, h, bands int) {
		samples := int64(w) * int64(h) * int64(bands)
		total += (samples*int64(bitsPerSample) + 7) / 8
	}
	for _, r := range c.refs {
		add(r.Image.Width, r.Image.Height, r.Image.NumBands())
	}
	for _, e := range c.frames {
		add(e.w, e.h, len(e.bands))
	}
	return total
}

// Stats reports how many capacity evictions and Visit misses the cache has
// seen — the observable signal that a storage budget is binding.
func (c *RefCache) Stats() (evictions, misses int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.evictions, c.misses
}

// DecodeStats reports how many frame decodes a compressed cache performed
// and how many lookups the decoded-plane LRU absorbed instead. The
// counters are advisory (zero in raw mode): visit interleaving across
// locations — and hence LRU churn — varies with the engine's worker
// count, so they are deliberately excluded from the determinism-checked
// record stream.
func (c *RefCache) DecodeStats() (decodes, lruHits int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.decodes, c.decodeHits
}

// DecodeWall reports the cumulative wall-clock spent decoding stored
// frames on visit. Like DecodeStats it is advisory: the total varies
// with LRU churn (and so with the engine's worker count), but it is the
// actual decode-on-visit price a compressed store paid, which the
// benchmark reports as sat.ref_decode_s so the cost stops being invisible.
func (c *RefCache) DecodeWall() time.Duration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return time.Duration(c.decodeNanos)
}

// Len returns the number of cached references.
func (c *RefCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.cfg.Compress {
		return len(c.frames)
	}
	return len(c.refs)
}

// Pipeline is the on-board change-detection pipeline of §5.
type Pipeline struct {
	Bands []raster.BandInfo
	// Grid is the full-resolution tile grid.
	Grid raster.TileGrid
	// Downsample is the per-axis factor for detection (reference images
	// are cached at this resolution).
	Downsample int
	// CloudDet is the on-board detector (cheap decision tree).
	CloudDet cloud.Detector
	// Theta is the change threshold at detection resolution (profiled).
	Theta float64
	// DropCoverage drops captures whose detected cloud cover exceeds it
	// (paper drops above 50%).
	DropCoverage float64
	// CloudTileFrac marks a tile cloudy when its cloudy-pixel fraction
	// exceeds this.
	CloudTileFrac float64
}

// Result is the pipeline's output for one capture.
type Result struct {
	// Dropped is set when detected cloud coverage exceeded DropCoverage.
	Dropped bool
	// CloudCover is the detected (not true) cloud coverage.
	CloudCover float64
	// CloudMask is the detected per-pixel mask.
	CloudMask *cloud.Mask
	// CloudTiles marks tiles considered cloudy (full-res grid indexing).
	CloudTiles *raster.TileMask
	// Changed holds, per band, the changed-tile mask (nil when no
	// reference was available; the caller decides the fallback).
	Changed []*raster.TileMask
	// Illum holds the per-band alignment fitted against the reference.
	Illum []illum.Model
	// CapLow is the downsampled capture after cloud zeroing and
	// illumination normalisation (used for reference bookkeeping).
	CapLow *raster.Image
	// CloudSec and ChangeSec are the measured wall-clock costs of the
	// cloud-detection and change-detection stages (Fig 16).
	CloudSec  float64
	ChangeSec float64
}

// lowGrid returns the tile grid at detection resolution.
func (p *Pipeline) lowGrid() (raster.TileGrid, error) {
	return p.Grid.Scaled(p.Downsample)
}

// Process runs the §5 pipeline on one capture against the cached reference
// (which may be nil).
func (p *Pipeline) Process(capImg *raster.Image, ref *LowResRef) (*Result, error) {
	if capImg.Width != p.Grid.ImageW || capImg.Height != p.Grid.ImageH {
		return nil, fmt.Errorf("sat: capture %dx%d does not match grid", capImg.Width, capImg.Height)
	}
	res := &Result{}
	// Cloud removal: detect, then drop heavily cloudy captures.
	tCloud := time.Now() //lint:deterministic wall time feeds Record.CloudSec, excluded by EqualIgnoringTimings
	res.CloudMask = p.CloudDet.Detect(capImg)
	res.CloudSec = time.Since(tCloud).Seconds() //lint:deterministic wall time feeds Record.CloudSec, excluded by EqualIgnoringTimings
	res.CloudCover = res.CloudMask.Coverage()
	res.CloudTiles = res.CloudMask.TileMask(p.Grid, p.CloudTileFrac)
	if res.CloudCover > p.DropCoverage {
		res.Dropped = true
		return res, nil
	}
	gLow, err := p.lowGrid()
	if err != nil {
		return nil, fmt.Errorf("sat: %w", err)
	}
	capLow, err := capImg.Downsample(p.Downsample)
	if err != nil {
		return nil, fmt.Errorf("sat: %w", err)
	}
	res.CapLow = capLow
	if ref == nil {
		return res, nil
	}
	if !ref.Image.SameShape(capLow) {
		return nil, fmt.Errorf("sat: reference %dx%d does not match detection resolution %dx%d",
			ref.Image.Width, ref.Image.Height, capLow.Width, capLow.Height)
	}
	// Clear-pixel mask at detection resolution for the illumination fit.
	tChange := time.Now() //lint:deterministic wall time feeds Record.ChangeSec, excluded by EqualIgnoringTimings
	clearLow := clearPixelsLow(res.CloudMask, p.Downsample, capLow.Width, capLow.Height)
	det := change.Detector{Theta: p.Theta}
	res.Changed = make([]*raster.TileMask, len(p.Bands))
	res.Illum = make([]illum.Model, len(p.Bands))
	for b := range p.Bands {
		model, _ := illum.FitRobust(ref.Image.Plane(b), capLow.Plane(b), clearLow, 2, 0.2)
		model.Normalize(capLow.Plane(b))
		res.Illum[b] = model
		res.Changed[b] = det.DetectBand(ref.Image, capLow, b, gLow, lowAlias(res.CloudTiles, gLow))
	}
	res.ChangeSec = time.Since(tChange).Seconds() //lint:deterministic wall time feeds Record.ChangeSec, excluded by EqualIgnoringTimings
	return res, nil
}

// lowAlias reinterprets a full-resolution-grid tile mask as a mask over the
// scaled grid (tile indices are identical across scales).
func lowAlias(m *raster.TileMask, gLow raster.TileGrid) *raster.TileMask {
	return &raster.TileMask{Grid: gLow, Set: m.Set}
}

// clearPixelsLow reduces a full-resolution cloud mask to a clear-pixel
// selector at detection resolution: a low-res pixel is usable when fewer
// than half of its footprint is cloudy.
func clearPixelsLow(m *cloud.Mask, factor, lw, lh int) []bool {
	out := make([]bool, lw*lh)
	half := factor * factor / 2
	for ly := 0; ly < lh; ly++ {
		for lx := 0; lx < lw; lx++ {
			n := 0
			for dy := 0; dy < factor; dy++ {
				row := (ly*factor + dy) * m.W
				for dx := 0; dx < factor; dx++ {
					if m.Bits[row+lx*factor+dx] {
						n++
					}
				}
			}
			out[ly*lw+lx] = n <= half
		}
	}
	return out
}

// EncodeROI encodes the capture for downlink: each band's ROI tiles are
// packed into a mosaic and encoded at gammaBPP bits per ROI pixel — the
// paper's constant per-tile bit budget γ (§5). Downloaded tiles carry
// their original pixel values (§3): cloud zero-filling is a detection-side
// device only, and mostly-cloudy tiles are excluded from the ROI by the
// caller. Bands whose ROI is empty travel as absent container bands.
//
// The per-band codec streams are framed into one container.Codestream —
// the wire unit every downlink consumer (ground station, HTTP serving
// layer) speaks — with the per-band bytes inside exactly what
// codec.EncodeROIPlane produced.
//
// Bands are encoded concurrently by a worker pool of
// codec.Workers(opts.Parallelism, bands) goroutines, so whole-constellation
// simulations scale with the host's cores.
func EncodeROI(capImg *raster.Image, perBandROI []*raster.TileMask,
	gammaBPP float64, opts codec.Options) (container.Codestream, error) {
	streams := make([][]byte, len(perBandROI))
	errs := make([]error, len(perBandROI))
	codec.ParallelBands(opts.Parallelism, len(perBandROI), func(b int) {
		roi := perBandROI[b]
		if roi == nil || roi.Count() == 0 {
			return
		}
		bandOpts := opts
		roiPixels := roi.Count() * roi.Grid.Tile * roi.Grid.Tile
		bandOpts.BudgetBytes = int(gammaBPP * float64(roiPixels) / 8)
		if bandOpts.BudgetBytes < codec.MinBudgetBytes {
			bandOpts.BudgetBytes = codec.MinBudgetBytes
		}
		data, err := codec.EncodeROIPlane(capImg.Plane(b), roi, bandOpts)
		if err != nil {
			errs[b] = fmt.Errorf("sat: encoding band %d: %w", b, err)
			return
		}
		streams[b] = data
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return container.Pack(streams), nil
}

// MaskOverheadBytes is the downlink metadata cost of the per-band ROI
// masks for one capture (one bit per tile per band with a non-empty ROI).
func MaskOverheadBytes(perBandROI []*raster.TileMask) int64 {
	var total int64
	for _, roi := range perBandROI {
		if roi != nil && roi.Count() > 0 {
			total += codec.ROIMaskBytes(roi.Grid)
		}
	}
	return total
}
