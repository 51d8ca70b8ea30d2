// Package imageio gives every entry point of the repository — the CLI,
// the labeling service, the load generator — one set of pluggable image
// codecs that decode straight into bitmap.Bitmap under explicit size
// limits. Four formats are supported:
//
//   - png: stdlib image/png; a pixel is foreground when it is dark
//     (luminance < 50%) and not transparent, so black-on-white document
//     scans come in the right way up.
//   - pbm: plain PBM (P1), the format the CLI has always read.
//   - art: the ASCII-art alphabet of bitmap.Parse ('#'/'1'/'X' vs
//     '.'/'0'/' ').
//   - raw: the SLR1 packed-bitset wire format (bitmap.ReadRaw), the
//     service's densest ingest path.
//
// FormatAuto sniffs the leading bytes (PNG signature, "P1", "SLR1",
// anything else parses as art), which is what a network endpoint wants:
// clients send whatever they have.
package imageio

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"strings"

	"slapcc/internal/bitmap"
)

// Format names an image codec.
type Format string

// Supported formats. FormatAuto selects by content sniffing.
const (
	FormatAuto Format = "auto"
	FormatPNG  Format = "png"
	FormatPBM  Format = "pbm"
	FormatArt  Format = "art"
	FormatRaw  Format = "raw"
)

// Formats lists the concrete codecs (everything but auto).
func Formats() []Format { return []Format{FormatPNG, FormatPBM, FormatArt, FormatRaw} }

// ParseFormat resolves a user-supplied format name ("png", "pbm", "art",
// "raw", "auto", or "" for auto).
func ParseFormat(name string) (Format, error) {
	switch f := Format(strings.ToLower(strings.TrimSpace(name))); f {
	case "":
		return FormatAuto, nil
	case FormatAuto, FormatPNG, FormatPBM, FormatArt, FormatRaw:
		return f, nil
	default:
		return "", fmt.Errorf("imageio: unknown format %q (png, pbm, art, raw, auto)", name)
	}
}

// ContentType returns the MIME type a service should use for f.
func (f Format) ContentType() string {
	switch f {
	case FormatPNG:
		return "image/png"
	case FormatPBM:
		return "image/x-portable-bitmap"
	case FormatArt:
		return "text/plain; charset=utf-8"
	case FormatRaw:
		return "application/x-slap-raw"
	}
	return "application/octet-stream"
}

// FormatFromContentType maps a MIME type to a Format, defaulting to
// FormatAuto for unknown or absent types.
func FormatFromContentType(ct string) Format {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.ToLower(strings.TrimSpace(ct)) {
	case "image/png":
		return FormatPNG
	case "image/x-portable-bitmap", "image/x-portable-anymap":
		return FormatPBM
	case "application/x-slap-raw":
		return FormatRaw
	case "text/plain":
		return FormatArt
	}
	return FormatAuto
}

// Limits bound what a decode will materialize. The zero value of any
// field selects its default; use Unlimited for an explicit no-limit.
type Limits struct {
	// MaxWidth and MaxHeight bound each dimension (default 1<<20,
	// matching the PBM/SLR1 parsers' sanity bound).
	MaxWidth, MaxHeight int
	// MaxPixels bounds w·h (default 1<<26 ≈ 67M pixels, comfortably
	// inside the int32 label space the labeler itself enforces).
	MaxPixels int64
}

// DefaultLimits returns the limits a service should start from.
func DefaultLimits() Limits {
	return Limits{MaxWidth: 1 << 20, MaxHeight: 1 << 20, MaxPixels: 1 << 26}
}

// Unlimited is the practically-unbounded limit set (the parsers' own
// 1<<20 dimension sanity checks still apply).
func Unlimited() Limits {
	return Limits{MaxWidth: 1 << 30, MaxHeight: 1 << 30, MaxPixels: 1 << 62}
}

func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxWidth <= 0 {
		l.MaxWidth = d.MaxWidth
	}
	if l.MaxHeight <= 0 {
		l.MaxHeight = d.MaxHeight
	}
	if l.MaxPixels <= 0 {
		l.MaxPixels = d.MaxPixels
	}
	return l
}

// ErrLimit marks a decode rejected by Limits; service layers map it to
// 413 Payload Too Large (errors.Is on the Check error finds it).
var ErrLimit = errors.New("image exceeds limits")

// Check reports whether a w×h image fits the limits.
func (l Limits) Check(w, h int) error {
	l = l.withDefaults()
	if w > l.MaxWidth || h > l.MaxHeight {
		return fmt.Errorf("imageio: image %dx%d exceeds the %dx%d dimension limit: %w", w, h, l.MaxWidth, l.MaxHeight, ErrLimit)
	}
	if int64(w)*int64(h) > l.MaxPixels {
		return fmt.Errorf("imageio: image %dx%d exceeds the %d-pixel limit: %w", w, h, l.MaxPixels, ErrLimit)
	}
	return nil
}

// pngSignature is the 8-byte PNG file signature.
var pngSignature = []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// Sniff guesses the format of data from its leading bytes. Anything
// that is not PNG, plain PBM, or SLR1 sniffs as ASCII art — art has no
// magic, and the art parser's strict pixel alphabet rejects binary junk
// with a positioned error anyway.
func Sniff(data []byte) Format {
	switch {
	case bytes.HasPrefix(data, pngSignature):
		return FormatPNG
	case bytes.HasPrefix(data, []byte("P1")):
		return FormatPBM
	case bytes.HasPrefix(data, []byte("SLR1")):
		return FormatRaw
	default:
		return FormatArt
	}
}

// DecodeBytes decodes data as format (FormatAuto sniffs) into a Bitmap,
// enforcing limits before the raster is allocated: PNG, SLR1 and PBM
// declare their dimensions in a header, and ASCII art's are its line
// count and longest line, which a scan of the body finds.
func DecodeBytes(data []byte, format Format, limits Limits) (*bitmap.Bitmap, error) {
	if format == FormatAuto || format == "" {
		format = Sniff(data)
	}
	switch format {
	case FormatPNG:
		return decodePNG(data, limits)
	case FormatPBM:
		if w, h, ok := bitmap.PBMDims(data); ok {
			if err := limits.Check(w, h); err != nil {
				return nil, err
			}
		}
		img, err := bitmap.ReadPBM(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return img, limits.Check(img.W(), img.H())
	case FormatArt:
		if err := limits.Check(bitmap.ArtDims(data)); err != nil {
			return nil, err
		}
		return bitmap.Parse(string(data))
	case FormatRaw:
		return decodeRaw(data, limits)
	default:
		return nil, fmt.Errorf("imageio: unknown format %q", format)
	}
}

// Decode reads everything from r and decodes it; the service layer
// bounds r (http.MaxBytesReader) before it gets here.
func Decode(r io.Reader, format Format, limits Limits) (*bitmap.Bitmap, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(data, format, limits)
}

func decodeRaw(data []byte, limits Limits) (*bitmap.Bitmap, error) {
	// SLR1 declares dimensions in its fixed header: check the limits
	// against the header alone so an oversized frame is rejected before
	// its raster is allocated.
	if w, h, ok := bitmap.RawDims(data); ok {
		if err := limits.Check(w, h); err != nil {
			return nil, err
		}
	}
	return bitmap.ReadRaw(bytes.NewReader(data))
}

func decodePNG(data []byte, limits Limits) (*bitmap.Bitmap, error) {
	cfg, err := png.DecodeConfig(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imageio: png header: %w", err)
	}
	if err := limits.Check(cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	src, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imageio: png: %w", err)
	}
	return FromImage(src), nil
}

// FromImage thresholds any image.Image into a Bitmap: a pixel is
// foreground when it is dark (luminance below 50%) and not mostly
// transparent. This matches PBM's 1 = black convention, so a scanned
// page's ink is the foreground.
func FromImage(src image.Image) *bitmap.Bitmap {
	bounds := src.Bounds()
	w, h := bounds.Dx(), bounds.Dy()
	b := bitmap.New(w, h)
	gray, isGray := src.(*image.Gray)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if isGray {
				if gray.GrayAt(bounds.Min.X+x, bounds.Min.Y+y).Y < 128 {
					b.Set(x, y, true)
				}
				continue
			}
			c := src.At(bounds.Min.X+x, bounds.Min.Y+y)
			_, _, _, a := c.RGBA()
			if a < 0x8000 {
				continue // transparent = background
			}
			if color.GrayModel.Convert(c).(color.Gray).Y < 128 {
				b.Set(x, y, true)
			}
		}
	}
	return b
}

// EncodeBytes serializes img as format. FormatAuto (and "") selects
// raw, the densest encoding.
func EncodeBytes(img *bitmap.Bitmap, format Format) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, img, format); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode serializes img as format to w.
func Encode(w io.Writer, img *bitmap.Bitmap, format Format) error {
	switch format {
	case FormatPNG:
		return png.Encode(w, ToImage(img))
	case FormatPBM:
		return img.WritePBM(w)
	case FormatArt:
		_, err := io.WriteString(w, img.String())
		return err
	case FormatRaw, FormatAuto, "":
		return img.WriteRaw(w)
	default:
		return fmt.Errorf("imageio: unknown format %q", format)
	}
}

// ToImage renders img as an 8-bit grayscale image, foreground black on
// white — the inverse of FromImage's threshold.
func ToImage(img *bitmap.Bitmap) *image.Gray {
	w, h := img.W(), img.H()
	out := image.NewGray(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := uint8(255)
			if img.Get(x, y) {
				v = 0
			}
			out.SetGray(x, y, color.Gray{Y: v})
		}
	}
	return out
}
