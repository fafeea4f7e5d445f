// Package container implements the framed multi-band codestream that
// carries every Earth+ wire payload: one frame bundles the per-band codec
// streams of a capture (or reference update) behind a fixed header so the
// whole set travels as a single []byte — framable over files, HTTP bodies
// or sockets — while the per-band bytes inside stay exactly the codec's
// golden wire format.
//
// Frame layout (little-endian):
//
//	offset  size      field
//	0       4         magic "EP+C"
//	4       1         version (1 = monolithic/lossless bands, 2 = tiled profile)
//	5       1         flags (v1: reserved, must be 0; v2: bit 0 = tiled bands)
//	6       2         band count N (uint16)
//	8       4*N       band table: per-band payload length (uint32, 0 = band absent)
//	8+4N    …         payloads, concatenated in band order
//	end-4   4         CRC-32C (Castagnoli) of everything before it
//
// An absent band (nil codec stream — e.g. a band whose ROI was empty)
// is encoded as a zero-length table entry and decodes back to nil.
//
// Version 2 is the tiled-profile frame: the layout is identical, but the
// version byte is bumped and FlagTiled set whenever any band payload
// carries the codec's tiled (EPT1) codestream, so wire inspection can
// spot the profile without parsing band payloads. Pack chooses the
// version from its inputs; frames holding only v1-profile bands stay
// byte-identical to what earlier releases emitted.
package container

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"earthplus/internal/eperr"
)

const (
	// Magic opens every frame.
	Magic = "EP+C"
	// Version is the frame layout version written for monolithic and
	// lossless band payloads.
	Version = 1
	// VersionTiled is the frame version written when any band payload
	// uses the codec's tiled (EPT1) profile.
	VersionTiled = 2
	// FlagTiled is the VersionTiled flags bit marking tiled band payloads.
	FlagTiled = 0x1

	headerFixed = 8 // magic + version + flags + band count
	crcLen      = 4

	// tiledPayloadMagic mirrors the codec package's tiled codestream
	// magic; duplicating four bytes keeps container free of codec imports.
	tiledPayloadMagic = "EPT1"
)

// MaxBands bounds the band count a frame may claim; a hostile header
// cannot demand an absurd band-table allocation. It sits below the 16-bit
// count field's range, so every frame Pack accepts is representable.
const MaxBands = 4096

// maxBytes bounds the total frame size ReadFrom will assemble from a
// stream (1 GiB). Split applies it too, so a hostile length table cannot
// claim payloads beyond it.
const maxBytes = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codestream is one encoded frame. The zero value is not a valid frame;
// build one with Pack or ReadFrom.
type Codestream []byte

// Overhead returns the framing cost (header, band table and CRC) of a
// frame with n bands.
func Overhead(n int) int { return headerFixed + 4*n + crcLen }

// Pack frames a per-band codestream set. Nil or empty band payloads are
// recorded as absent. The payload bytes are copied, so callers may reuse
// their slices. Band counts beyond MaxBands panic: no reader would accept
// the band table, so emitting such a frame would silently produce
// permanently-unreadable wire bytes — input-facing layers validate the
// count before packing.
func Pack(bands [][]byte) Codestream {
	if len(bands) > MaxBands {
		panic(fmt.Sprintf("container: %d bands exceeds the %d-band frame bound", len(bands), MaxBands))
	}
	total := Overhead(len(bands))
	for _, b := range bands {
		total += len(b)
	}
	version, flags := byte(Version), byte(0)
	for _, b := range bands {
		if len(b) >= 4 && string(b[:4]) == tiledPayloadMagic {
			version, flags = VersionTiled, FlagTiled
			break
		}
	}
	out := make([]byte, 0, total)
	out = append(out, Magic...)
	out = append(out, version, flags)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(bands)))
	for _, b := range bands {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
	}
	for _, b := range bands {
		out = append(out, b...)
	}
	return finish(out)
}

// finish appends the CRC over everything written so far.
func finish(frame []byte) Codestream {
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
}

// parseHeader validates the fixed header and band table and returns the
// per-band lengths plus the payload offset. It does not touch payload
// bytes or the CRC, so it is cheap enough for length accounting on
// locally-built frames.
func (c Codestream) parseHeader() (lens []int, payloadOff int, err error) {
	if len(c) < headerFixed+crcLen {
		return nil, 0, eperr.New(eperr.BadCodestream, "container", "frame of %d bytes is shorter than the fixed framing", len(c))
	}
	if string(c[:4]) != Magic {
		return nil, 0, eperr.New(eperr.BadCodestream, "container", "bad magic %q", c[:4])
	}
	switch c[4] {
	case Version:
		if c[5] != 0 {
			return nil, 0, eperr.New(eperr.BadCodestream, "container", "reserved flags %#x set", c[5])
		}
	case VersionTiled:
		if c[5]&^FlagTiled != 0 {
			return nil, 0, eperr.New(eperr.BadCodestream, "container", "reserved v2 flags %#x set", c[5])
		}
	default:
		return nil, 0, eperr.New(eperr.BadCodestream, "container", "unsupported version %d", c[4])
	}
	n := int(binary.LittleEndian.Uint16(c[6:]))
	if n > MaxBands {
		return nil, 0, eperr.New(eperr.BadCodestream, "container", "%d bands exceeds the %d-band bound", n, MaxBands)
	}
	payloadOff = headerFixed + 4*n
	if len(c) < payloadOff+crcLen {
		return nil, 0, eperr.New(eperr.BadCodestream, "container", "truncated band table (%d bands claimed in %d bytes)", n, len(c))
	}
	lens = make([]int, n)
	total := 0
	for i := range lens {
		lens[i] = int(binary.LittleEndian.Uint32(c[headerFixed+4*i:]))
		total += lens[i]
		if total > maxBytes {
			return nil, 0, eperr.New(eperr.BadCodestream, "container", "band table claims more than %d bytes", maxBytes)
		}
	}
	if len(c) != payloadOff+total+crcLen {
		return nil, 0, eperr.New(eperr.BadCodestream, "container", "frame is %d bytes, band table demands %d", len(c), payloadOff+total+crcLen)
	}
	return lens, payloadOff, nil
}

// Tiled reports whether the frame advertises tiled-profile band payloads
// (a VersionTiled frame with FlagTiled set). Only the fixed header bytes
// are inspected; call Validate (or Split) before trusting the payloads.
func (c Codestream) Tiled() bool {
	return len(c) >= headerFixed && string(c[:4]) == Magic &&
		c[4] == VersionTiled && c[5]&FlagTiled != 0
}

// NumBands returns the frame's band count (header parse only).
func (c Codestream) NumBands() (int, error) {
	lens, _, err := c.parseHeader()
	if err != nil {
		return 0, err
	}
	return len(lens), nil
}

// PerBandLens returns each band's payload length — the exact codec wire
// bytes, excluding framing overhead. Absent bands report 0. Only the
// header is parsed, so this is the cheap accounting path for frames the
// caller just built.
func (c Codestream) PerBandLens() ([]int, error) {
	lens, _, err := c.parseHeader()
	return lens, err
}

// PayloadLen sums the per-band payload lengths: the frame's downlink
// substance, with framing excluded.
func (c Codestream) PayloadLen() (int, error) {
	lens, _, err := c.parseHeader()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range lens {
		total += n
	}
	return total, nil
}

// Validate fully checks the frame, including the trailing CRC.
func (c Codestream) Validate() error {
	_, _, err := c.parseHeader()
	if err != nil {
		return err
	}
	body := c[:len(c)-crcLen]
	want := binary.LittleEndian.Uint32(c[len(c)-crcLen:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return eperr.New(eperr.BadCodestream, "container", "CRC mismatch (frame %08x, computed %08x)", want, got)
	}
	return nil
}

// Split validates the frame (including its CRC) and returns the per-band
// payloads as zero-copy views into the frame. Absent bands are nil.
// Callers must not mutate the returned slices.
func (c Codestream) Split() ([][]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.SplitNoCRC()
}

// SplitNoCRC returns the per-band payload views after checking only the
// frame structure, skipping the CRC pass over the payload bytes — the
// cheap path for pre-flight header inspection when a fully validated
// Split (or decode) follows anyway. Absent bands are nil. Callers must
// not mutate the returned slices.
func (c Codestream) SplitNoCRC() ([][]byte, error) {
	lens, off, err := c.parseHeader()
	if err != nil {
		return nil, err
	}
	bands := make([][]byte, len(lens))
	for i, n := range lens {
		if n == 0 {
			continue
		}
		bands[i] = c[off : off+n : off+n]
		off += n
	}
	return bands, nil
}

// WriteTo streams the frame, implementing io.WriterTo.
func (c Codestream) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(c)
	return int64(n), err
}

// ReadFrom assembles one frame from a stream. io.EOF is returned
// unwrapped when the stream ends cleanly before a frame starts, so
// callers can iterate frames until EOF; any mid-frame truncation is a
// BadCodestream error.
func ReadFrom(r io.Reader) (Codestream, error) {
	hdr := make([]byte, headerFixed)
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, eperr.Wrap(eperr.BadCodestream, "container", err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, eperr.Wrap(eperr.BadCodestream, "container", fmt.Errorf("reading header: %w", err))
	}
	if string(hdr[:4]) != Magic {
		return nil, eperr.New(eperr.BadCodestream, "container", "bad magic %q", hdr[:4])
	}
	n := int(binary.LittleEndian.Uint16(hdr[6:]))
	if n > MaxBands {
		return nil, eperr.New(eperr.BadCodestream, "container", "%d bands exceeds the %d-band bound", n, MaxBands)
	}
	frame := make([]byte, 0, headerFixed+4*n)
	frame = append(frame, hdr...)
	table := make([]byte, 4*n)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, eperr.Wrap(eperr.BadCodestream, "container", fmt.Errorf("reading band table: %w", err))
	}
	frame = append(frame, table...)
	total := 0
	for i := 0; i < n; i++ {
		total += int(binary.LittleEndian.Uint32(table[4*i:]))
		if total > maxBytes {
			return nil, eperr.New(eperr.BadCodestream, "container", "band table claims more than %d bytes", maxBytes)
		}
	}
	rest := make([]byte, total+crcLen)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, eperr.Wrap(eperr.BadCodestream, "container", fmt.Errorf("reading %d payload bytes: %w", total, err))
	}
	c := Codestream(append(frame, rest...))
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
