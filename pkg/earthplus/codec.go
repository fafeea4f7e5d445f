package earthplus

import "earthplus/internal/codec"

// CodecOptions controls one plane encode of the layered wavelet codec.
type CodecOptions = codec.Options

// CodecInfo describes a parsed per-band codestream header.
type CodecInfo = codec.Info

// DefaultCodecOptions returns the options used throughout the
// experiments (5 DWT levels, 1/2048 base quantiser step).
func DefaultCodecOptions() CodecOptions { return codec.DefaultOptions() }

// BudgetForBPP converts a bits-per-pixel target (the paper's γ) into a
// byte budget for a w x h plane.
func BudgetForBPP(bpp float64, w, h int) int { return codec.BudgetForBPP(bpp, w, h) }

// EncodePlane compresses one row-major w x h float32 plane into a
// per-band codestream (the payload unit inside container frames).
func EncodePlane(plane []float32, w, h int, opt CodecOptions) ([]byte, error) {
	return codec.EncodePlane(plane, w, h, opt)
}

// DecodePlane reconstructs a plane from a per-band codestream.
// maxLayers <= 0 decodes every quality layer; smaller values give the
// layered codec's reduced-quality renditions.
func DecodePlane(data []byte, maxLayers int) ([]float32, int, int, error) {
	return codec.DecodePlane(data, maxLayers)
}

// EncodePlaneLossless compresses a plane exactly (at 16-bit sample
// precision) with the reversible integer 5/3 path; there is no rate
// control.
func EncodePlaneLossless(plane []float32, w, h, levels int) ([]byte, error) {
	return codec.EncodePlaneLossless(plane, w, h, levels)
}

// DecodePlaneLossless reverses EncodePlaneLossless exactly.
func DecodePlaneLossless(data []byte) ([]float32, int, int, error) {
	return codec.DecodePlaneLossless(data)
}

// ParseCodestream validates a per-band codestream and returns its header
// description.
func ParseCodestream(data []byte) (CodecInfo, error) { return codec.Parse(data) }

// Quantize16 returns the 16-bit sample a [0,1] value maps to in lossless
// mode; equality of Quantize16 values is the lossless guarantee.
func Quantize16(v float32) uint16 { return codec.Quantize16(v) }
