// Command earthplus-encode exposes the public codec API as a standalone
// tool for 16-bit PGM images: encode to a per-band codestream, decode
// back (optionally truncated to fewer quality layers), and report
// rate/distortion.
//
// Usage:
//
//	earthplus-encode -in image.pgm -out image.epc -bpp 1.0
//	earthplus-encode -decode -in image.epc -out restored.pgm -layers 4
//	earthplus-encode -roundtrip -in image.pgm -bpp 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"earthplus/internal/cli"
	"earthplus/pkg/earthplus"
)

const cmdName = "earthplus-encode"

func main() {
	in := flag.String("in", "", "input file (PGM for encode, codestream for decode)")
	out := flag.String("out", "", "output file (empty with -roundtrip)")
	bpp := flag.Float64("bpp", 0, "bits per pixel budget (0 = near-lossless)")
	layers := flag.Int("layers", 0, "decode only this many quality layers (0 = all)")
	decode := flag.Bool("decode", false, "decode a codestream back to PGM")
	roundtrip := flag.Bool("roundtrip", false, "encode+decode in memory and report PSNR")
	flag.Parse()

	if *in == "" {
		cli.Fail(cmdName, "missing -in")
	}
	switch {
	case *roundtrip:
		img := readPGM(*in)
		data := encodePlane(img, *bpp)
		plane, w, h, err := earthplus.DecodePlane(data, *layers)
		if err != nil {
			cli.Fail(cmdName, "decode: %v", err)
		}
		rec := earthplus.NewImage(w, h, img.Bands)
		copy(rec.Plane(0), plane)
		rec.Clamp()
		info, _ := earthplus.ParseCodestream(data)
		fmt.Printf("input    %dx%d (%d pixels)\n", w, h, w*h)
		fmt.Printf("encoded  %d bytes (%.3f bpp), %d layers\n",
			len(data), float64(len(data))*8/float64(w*h), info.NLayers)
		fmt.Printf("PSNR     %.2f dB\n", earthplus.PSNRBand(img, rec, 0))
	case *decode:
		data, err := os.ReadFile(*in)
		if err != nil {
			cli.Fail(cmdName, "reading %s: %v", *in, err)
		}
		plane, w, h, err := earthplus.DecodePlane(data, *layers)
		if err != nil {
			cli.Fail(cmdName, "decode: %v", err)
		}
		img := earthplus.NewImage(w, h, []earthplus.BandInfo{{Name: "gray"}})
		copy(img.Plane(0), plane)
		img.Clamp()
		writePGM(*out, img)
		fmt.Printf("decoded %dx%d -> %s\n", w, h, *out)
	default:
		img := readPGM(*in)
		data := encodePlane(img, *bpp)
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			cli.Fail(cmdName, "writing %s: %v", *out, err)
		}
		fmt.Printf("encoded %dx%d -> %d bytes (%.3f bpp) -> %s\n",
			img.Width, img.Height, len(data),
			float64(len(data))*8/float64(img.Width*img.Height), *out)
	}
}

func encodePlane(img *earthplus.Image, bpp float64) []byte {
	opts := earthplus.DefaultCodecOptions()
	if bpp > 0 {
		opts.BudgetBytes = earthplus.BudgetForBPP(bpp, img.Width, img.Height)
	}
	data, err := earthplus.EncodePlane(img.Plane(0), img.Width, img.Height, opts)
	if err != nil {
		cli.Fail(cmdName, "encode: %v", err)
	}
	return data
}

func readPGM(path string) *earthplus.Image {
	f, err := os.Open(path)
	if err != nil {
		cli.Fail(cmdName, "opening %s: %v", path, err)
	}
	defer f.Close()
	img, err := earthplus.ReadPGM(f)
	if err != nil {
		cli.Fail(cmdName, "parsing %s: %v", path, err)
	}
	return img
}

func writePGM(path string, img *earthplus.Image) {
	if path == "" {
		cli.Fail(cmdName, "missing -out")
	}
	f, err := os.Create(path)
	if err != nil {
		cli.Fail(cmdName, "creating %s: %v", path, err)
	}
	defer f.Close()
	if err := img.WritePGM(f, 0); err != nil {
		cli.Fail(cmdName, "writing %s: %v", path, err)
	}
}
