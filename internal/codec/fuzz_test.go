package codec

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// The ground station parses whatever the downlink delivers, so the parser
// and decoder must tolerate arbitrary corruption: every failure mode is an
// error (or garbage pixels), never a panic or an implausible allocation.
// The fuzz targets drive both entry points with truncated, bit-flipped and
// synthetic streams; `go test -fuzz=FuzzDecodePlane ./internal/codec` digs
// deeper than the seeded corpus run in CI.

// fuzzSeedStream builds a small valid codestream to seed mutation from.
func fuzzSeedStream(tb testing.TB, w, h, budget int) []byte {
	tb.Helper()
	opt := DefaultOptions()
	opt.BudgetBytes = budget
	data, err := EncodePlane(testPlane(9, w, h), w, h, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("EPC1"))
	f.Add(fuzzSeedStream(f, 32, 32, 0))
	f.Add(fuzzSeedStream(f, 48, 16, 256))
	seed := fuzzSeedStream(f, 32, 32, 512)
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Parse(data)
		if err != nil {
			return
		}
		if info.W <= 0 || info.H <= 0 || info.W > 1<<15 || info.H > 1<<15 {
			t.Fatalf("Parse accepted implausible geometry %dx%d", info.W, info.H)
		}
		if info.NLayers < 0 || info.NLayers != len(info.LayerBytes) {
			t.Fatalf("Parse returned inconsistent layer table: %d vs %d",
				info.NLayers, len(info.LayerBytes))
		}
	})
}

// fuzzSeedTiled builds a small valid tiled (EPT1) codestream to seed
// mutation from.
func fuzzSeedTiled(tb testing.TB, w, h, tile, budget int) []byte {
	tb.Helper()
	opt := DefaultOptions()
	opt.Tiled = true
	opt.TileSize = tile
	opt.BudgetBytes = budget
	data, err := EncodePlane(testPlane(17, w, h), w, h, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzParseTiled drives the EPT1 parser and the region decoder with
// hostile tile-index tables: offsets escaping the buffer, overlapping or
// out-of-order payloads, lying tile counts and truncated indexes must
// all come back as errors — never a panic, an implausible allocation or
// an out-of-bounds payload view.
func FuzzParseTiled(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("EPT1"))
	f.Add(fuzzSeedTiled(f, 48, 32, 16, 0))
	f.Add(fuzzSeedTiled(f, 96, 80, 64, 0))
	f.Add(fuzzSeedTiled(f, 37, 23, 16, 256))
	seed := fuzzSeedTiled(f, 64, 64, 32, 1024)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:tiledHdrLen+3]) // truncated mid-index
	// A synthetically hostile index: first tile's payload overlaps the
	// index table itself, second escapes the buffer.
	hostile := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen:], 0)
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen+4:], 12)
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen+8:], uint32(len(hostile)))
	binary.LittleEndian.PutUint32(hostile[tiledHdrLen+12:], 8)
	f.Add(hostile)
	// A lying tile count over a valid header.
	miscount := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(miscount[14:], 9999)
	f.Add(miscount)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Parse(data)
		if err != nil {
			return
		}
		if !IsTiled(data) {
			return // mutated into another profile; the other fuzzers own it
		}
		if !info.Tiled || info.TileSize <= 0 || info.NTiles <= 0 {
			t.Fatalf("Parse accepted tiled stream with inconsistent tile info %+v", info)
		}
		if info.W <= 0 || info.H <= 0 || info.W > 1<<15 || info.H > 1<<15 {
			t.Fatalf("Parse accepted implausible geometry %dx%d", info.W, info.H)
		}
		if info.W*info.H > 1<<16 {
			return // bound the decode work, same cap as FuzzDecodePlane
		}
		// A parsed stream must decode — fully and by region — without
		// panicking, and any success must honour the claimed geometry.
		if plane, w, h, err := DecodePlane(data, 0); err == nil {
			if w != info.W || h != info.H || len(plane) != w*h {
				t.Fatalf("decode geometry %dx%d (len %d) disagrees with header %dx%d",
					w, h, len(plane), info.W, info.H)
			}
		}
		rw, rh := min(info.W, 70), min(info.H, 70)
		if reg, cw, ch, err := DecodeRegion(data, 1, 1, rw, rh); err == nil {
			if len(reg) != cw*ch || cw <= 0 || ch <= 0 || cw > rw || ch > rh {
				t.Fatalf("region decode returned %d samples for %dx%d", len(reg), cw, ch)
			}
		}
		if touched, total, err := RegionTiles(data, 0, 0, info.W, info.H); err == nil {
			if touched != total || total != info.NTiles {
				t.Fatalf("full-plane RegionTiles %d/%d disagrees with NTiles %d", touched, total, info.NTiles)
			}
		}
	})
}

func FuzzDecodePlane(f *testing.F) {
	f.Add(fuzzSeedStream(f, 32, 32, 0))
	f.Add(fuzzSeedStream(f, 48, 16, 256))
	f.Add(fuzzSeedStream(f, 37, 23, 128))
	f.Add(fuzzSeedTiled(f, 48, 32, 16, 0))
	trunc := fuzzSeedStream(f, 32, 32, 1024)
	f.Add(trunc[:len(trunc)-3])
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the decode work: a hostile header may legitimately describe
		// a huge plane (an all-zero giant plane really is a tiny stream), so
		// cap the geometry rather than decode gigabytes per input.
		info, err := Parse(data)
		if err != nil {
			return
		}
		if info.W*info.H > 1<<16 {
			return
		}
		plane, w, h, err := DecodePlane(data, 0)
		if err != nil {
			return
		}
		if w != info.W || h != info.H || len(plane) != w*h {
			t.Fatalf("decode geometry %dx%d (len %d) disagrees with header %dx%d",
				w, h, len(plane), info.W, info.H)
		}
		// Truncated layer decodes must also hold together.
		if _, _, _, err := DecodePlane(data, 1); err != nil {
			t.Fatalf("full decode succeeded but maxLayers=1 failed: %v", err)
		}
	})
}

func FuzzDecodePlaneLossless(f *testing.F) {
	small, err := EncodePlaneLossless(testPlane(3, 24, 24), 24, 24, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(small[:len(small)/2])
	f.Add([]byte("EPL1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Same geometry cap as FuzzDecodePlane, via the raw header fields.
		if len(data) >= 8 {
			w := int(binary.LittleEndian.Uint16(data[4:]))
			h := int(binary.LittleEndian.Uint16(data[6:]))
			if w*h > 1<<16 {
				return
			}
		}
		plane, w, h, err := DecodePlaneLossless(data)
		if err != nil {
			return
		}
		if len(plane) != w*h {
			t.Fatalf("lossless decode length %d != %dx%d", len(plane), w, h)
		}
	})
}

// TestMaxDecodePixels: a tiny header claiming a huge plane must be
// rejected before any geometry-sized allocation happens. Each profile's
// stream is re-headed to claim 16384x16384 (1<<28 pixels, past the
// 1<<26 bound); every other header field stays plausible for that
// geometry, so the pixel bound is what rejects it.
func TestMaxDecodePixels(t *testing.T) {
	claimHuge := func(data []byte) []byte {
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint16(b[4:], 1<<14)
		binary.LittleEndian.PutUint16(b[6:], 1<<14)
		return b
	}
	lossless, err := EncodePlaneLossless(testPlane(2, 64, 64), 64, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A tiled stream whose tile grid covers the claimed plane: 255px tiles
	// (65x65 of them) with empty payloads, so the index parses.
	const tile, span = 255, (1<<14 + 254) / 255
	tiled := make([]byte, tiledHdrLen+tiledIndexEntry*span*span)
	copy(tiled, tiledMagic)
	tiled[8] = 3
	binary.LittleEndian.PutUint32(tiled[9:], math.Float32bits(1.0/2048))
	tiled[13] = tile
	binary.LittleEndian.PutUint32(tiled[14:], span*span)
	for i := 0; i < span*span; i++ {
		binary.LittleEndian.PutUint32(tiled[tiledHdrLen+tiledIndexEntry*i:], uint32(len(tiled)))
	}
	tiled = claimHuge(tiled)

	decoders := map[string]func() error{
		"monolithic": func() error {
			_, _, _, err := DecodePlane(claimHuge(fuzzSeedStream(t, 64, 64, 0)), 0)
			return err
		},
		"lossless": func() error {
			_, _, _, err := DecodePlaneLossless(claimHuge(lossless))
			return err
		},
		"tiled": func() error {
			_, _, _, err := DecodePlane(tiled, 0)
			return err
		},
		"tiled region": func() error {
			_, _, _, err := DecodeRegion(tiled, 0, 0, 1<<14, 1<<14)
			return err
		},
	}
	for name, decode := range decoders {
		err := decode()
		if err == nil || !strings.Contains(err.Error(), "decode bound") {
			t.Errorf("%s: err = %v, want the pixel-bound rejection", name, err)
		}
	}
	if _, err := Parse(tiled); err != nil {
		t.Fatalf("the re-headed tiled stream must parse, so the bound is what rejects it: %v", err)
	}
}

// TestFuzzRegressionBitFlips runs a deterministic sweep of single-bit
// corruptions through both decoders as a cheap always-on stand-in for the
// fuzzers.
func TestFuzzRegressionBitFlips(t *testing.T) {
	data := fuzzSeedStream(t, 32, 32, 1024)
	for pos := 0; pos < len(data); pos++ {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x40
		_, _, _, _ = DecodePlane(corrupt, 0) // must not panic
	}
	lossless, err := EncodePlaneLossless(testPlane(5, 24, 24), 24, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(lossless); pos++ {
		corrupt := append([]byte(nil), lossless...)
		corrupt[pos] ^= 0x04
		_, _, _, _ = DecodePlaneLossless(corrupt) // must not panic
	}
	tiled := fuzzSeedTiled(t, 48, 32, 16, 512)
	for pos := 0; pos < len(tiled); pos++ {
		corrupt := append([]byte(nil), tiled...)
		corrupt[pos] ^= 0x40
		_, _, _, _ = DecodePlane(corrupt, 0)             // must not panic
		_, _, _, _ = DecodeRegion(corrupt, 8, 8, 16, 16) // nor the region path
	}
}
