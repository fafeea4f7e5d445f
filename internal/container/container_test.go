package container

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"earthplus/internal/eperr"
)

func TestPackSplitRoundTrip(t *testing.T) {
	bands := [][]byte{
		[]byte("band-zero-payload"),
		nil,
		{},
		[]byte{0xff, 0x00, 0x41},
	}
	c := Pack(bands)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got, err := c.Split()
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(got) != len(bands) {
		t.Fatalf("split into %d bands, want %d", len(got), len(bands))
	}
	for i, b := range bands {
		if len(b) == 0 {
			if got[i] != nil {
				t.Fatalf("band %d: absent band decoded non-nil", i)
			}
			continue
		}
		if !bytes.Equal(got[i], b) {
			t.Fatalf("band %d: payload mismatch", i)
		}
	}
	lens, err := c.PerBandLens()
	if err != nil {
		t.Fatalf("PerBandLens: %v", err)
	}
	wantTotal := 0
	for i, b := range bands {
		if lens[i] != len(b) {
			t.Fatalf("band %d length %d, want %d", i, lens[i], len(b))
		}
		wantTotal += len(b)
	}
	if total, err := c.PayloadLen(); err != nil || total != wantTotal {
		t.Fatalf("PayloadLen = %d, %v; want %d", total, err, wantTotal)
	}
	if len(c) != Overhead(len(bands))+wantTotal {
		t.Fatalf("frame length %d, want overhead %d + payload %d", len(c), Overhead(len(bands)), wantTotal)
	}
}

func TestPackZeroBands(t *testing.T) {
	c := Pack(nil)
	bands, err := c.Split()
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(bands) != 0 {
		t.Fatalf("expected zero bands, got %d", len(bands))
	}
}

func TestSplitZeroCopy(t *testing.T) {
	c := Pack([][]byte{[]byte("abcdef")})
	bands, err := c.Split()
	if err != nil {
		t.Fatal(err)
	}
	if &bands[0][0] != &c[Overhead(1)-4] { // payload starts after header+table, before the CRC
		t.Fatalf("Split copied the payload")
	}
}

// mustBadCodestream asserts the typed error code.
func mustBadCodestream(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected an error", what)
	}
	if !errors.Is(err, eperr.ErrBadCodestream) {
		t.Fatalf("%s: error %v is not ErrBadCodestream", what, err)
	}
}

func TestCorruptFrames(t *testing.T) {
	good := Pack([][]byte{[]byte("payload-a"), []byte("payload-b")})

	short := good[:5]
	_, err := short.Split()
	mustBadCodestream(t, err, "short frame")

	badMagic := append(Codestream(nil), good...)
	badMagic[0] = 'X'
	_, err = badMagic.Split()
	mustBadCodestream(t, err, "bad magic")

	badVersion := append(Codestream(nil), good...)
	badVersion[4] = 99
	_, err = badVersion.Split()
	mustBadCodestream(t, err, "bad version")

	badFlags := append(Codestream(nil), good...)
	badFlags[5] = 1
	_, err = badFlags.Split()
	mustBadCodestream(t, err, "reserved flags")

	truncated := good[:len(good)-3]
	_, err = truncated.Split()
	mustBadCodestream(t, err, "truncated payload")

	flipped := append(Codestream(nil), good...)
	flipped[Overhead(2)] ^= 0x40 // corrupt a payload byte under the CRC
	_, err = flipped.Split()
	mustBadCodestream(t, err, "payload bit flip")
	if err := flipped.Validate(); !errors.Is(err, eperr.ErrBadCodestream) {
		t.Fatalf("Validate missed the CRC mismatch: %v", err)
	}

	// Header parse alone must not notice the payload corruption…
	if _, err := flipped.PerBandLens(); err != nil {
		t.Fatalf("PerBandLens should not validate payloads: %v", err)
	}

	overclaim := append(Codestream(nil), good...)
	overclaim[8] = 0xff // band 0 claims a huge payload
	overclaim[9] = 0xff
	_, err = overclaim.Split()
	mustBadCodestream(t, err, "over-claiming band table")
}

func TestReadFromWriteTo(t *testing.T) {
	a := Pack([][]byte{[]byte("first"), nil})
	b := Pack([][]byte{[]byte("second-frame-payload")})
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	got1, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if !bytes.Equal(got1, a) {
		t.Fatalf("frame 1 bytes differ")
	}
	got2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("frame 2: %v", err)
	}
	if !bytes.Equal(got2, b) {
		t.Fatalf("frame 2 bytes differ")
	}
	if _, err := ReadFrom(&buf); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestReadFromMidFrameTruncation(t *testing.T) {
	c := Pack([][]byte{[]byte("some-payload-bytes")})
	for _, cut := range []int{1, 6, Overhead(1) - 2, len(c) - 1} {
		_, err := ReadFrom(bytes.NewReader(c[:cut]))
		mustBadCodestream(t, err, "truncation")
	}
}

func TestReadFromRejectsHostileHeader(t *testing.T) {
	// A header claiming MaxBands+1 bands must be refused before any
	// band-table allocation.
	hdr := []byte(Magic)
	hdr = append(hdr, Version, 0, 0xff, 0xff)
	_, err := ReadFrom(bytes.NewReader(hdr))
	mustBadCodestream(t, err, "hostile band count")
}

// TestPackUint16BandCountGuard pins that Pack refuses band counts above
// MaxBands — frames no reader accepts, and a bound that keeps the 16-bit
// count field's uint16 cast from ever truncating.
func TestPackUint16BandCountGuard(t *testing.T) {
	if MaxBands > math.MaxUint16 {
		t.Fatalf("MaxBands %d does not fit the 16-bit count field", MaxBands)
	}
	Pack(make([][]byte, MaxBands)) // the bound itself is representable
	defer func() {
		if recover() == nil {
			t.Fatal("Pack accepted a band count beyond MaxBands")
		}
	}()
	Pack(make([][]byte, MaxBands+1))
}
