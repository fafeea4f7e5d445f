package sat

import (
	"testing"

	"earthplus/internal/noise"
	"earthplus/internal/raster"
)

func propImage(src *noise.Source, stream int64, w, h int, bands []raster.BandInfo) *raster.Image {
	im := raster.New(w, h, bands)
	for b := range im.Pix {
		p := im.Plane(b)
		for i := range p {
			p[i] = float32(src.Uniform(stream*31+int64(b), int64(i)))
		}
	}
	return im
}

// Property: under a storage budget, any interleaving of visits, puts and
// tile-spliced re-installs leaves the cache (a) within budget, (b) reporting exactly
// the entries that disappeared as evicted, and (c) holding images equal to
// an independently maintained shadow for every surviving location.
func TestBoundedCacheInvariantsUnderChurn(t *testing.T) {
	const w, h = 16, 16
	bands := raster.PlanetBands()
	grid := raster.MustTileGrid(w, h, 8)
	src := noise.New(31337)
	// One 16x16x4 reference at 16 bits/sample is 2048 bytes; budget three.
	const budget = 3 * 2048

	for _, policy := range []Policy{PolicyLRU, PolicySchedule} {
		t.Run(string(policy), func(t *testing.T) {
			cache, err := NewBoundedRefCache(CacheConfig{
				BudgetBytes: budget,
				Policy:      policy,
				NextVisit:   func(loc, after int) int { return after + 1 + (loc*5)%7 },
			})
			if err != nil {
				t.Fatal(err)
			}
			shadow := map[int]*raster.Image{}
			evictedTotal := 0
			for round := 1; round <= 120; round++ {
				loc := int(src.Uniform(int64(round), 1) * 8)
				im := propImage(src, int64(round)+2000, w, h, bands)
				var evicted []int
				switch op := src.Uniform(int64(round), 2); {
				case op < 0.4:
					evicted = cache.Put(loc, im.Clone(), round)
					shadow[loc] = im.Clone()
				case op < 0.7:
					mask := raster.NewTileMask(grid)
					for tl := 0; tl < grid.NumTiles(); tl++ {
						mask.Set[tl] = src.Uniform(int64(round), int64(3+tl)) < 0.5
					}
					perBand := make([]*raster.TileMask, len(bands))
					for b := range perBand {
						perBand[b] = mask
					}
					// The uplink route: the ground splices the update onto its
					// mirror of the entry (a whole image re-seeds a missing
					// one) and the satellite installs the result with Put.
					spliced := im
					if sh := shadow[loc]; sh != nil {
						spliced = sh.Clone()
						for b := range perBand {
							for tl, set := range mask.Set {
								if set {
									raster.CopyTile(spliced, im, b, grid, tl)
								}
							}
						}
					}
					evicted = cache.Put(loc, spliced.Clone(), round)
					shadow[loc] = spliced
				default:
					got := cache.Visit(loc, round)
					if (got == nil) != (shadow[loc] == nil) {
						t.Fatalf("round %d: visit miss=%v but shadow has=%v", round, got == nil, shadow[loc] != nil)
					}
				}
				for _, ev := range evicted {
					if shadow[ev] == nil {
						t.Fatalf("round %d: reported eviction of %d, which was not cached", round, ev)
					}
					delete(shadow, ev)
					evictedTotal++
				}
				if fp := cache.FootprintBytes(); fp > budget {
					t.Fatalf("round %d: footprint %d exceeds budget %d", round, fp, budget)
				}
				if cache.Len() != len(shadow) {
					t.Fatalf("round %d: cache holds %d entries, shadow %d", round, cache.Len(), len(shadow))
				}
				for l, sh := range shadow {
					ref := cache.Get(l)
					if ref == nil {
						t.Fatalf("round %d: loc %d vanished without an eviction report", round, l)
					}
					if !ref.Image.Equal(sh) {
						t.Fatalf("round %d: loc %d diverged from shadow", round, l)
					}
				}
			}
			if evictedTotal == 0 {
				t.Fatal("churn never evicted; the property was not exercised")
			}
			ev, _ := cache.Stats()
			if int(ev) != evictedTotal {
				t.Fatalf("Stats evictions %d != observed %d", ev, evictedTotal)
			}
		})
	}
}
