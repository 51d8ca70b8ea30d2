package imageio

import (
	"bytes"
	"errors"
	"image"
	"image/color"
	"image/png"
	"runtime"
	"strings"
	"testing"

	"slapcc/internal/bitmap"
)

func testImage(t *testing.T) *bitmap.Bitmap {
	t.Helper()
	return bitmap.MustParse("##..#\n.#.#.\n#...#")
}

// TestRoundTripAllFormats: every concrete codec encodes and decodes back
// to the same pixels, both with the format named and via auto-sniffing.
func TestRoundTripAllFormats(t *testing.T) {
	img := testImage(t)
	for _, f := range Formats() {
		data, err := EncodeBytes(img, f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f, err)
		}
		for _, decodeAs := range []Format{f, FormatAuto} {
			got, err := DecodeBytes(data, decodeAs, Limits{})
			if err != nil {
				t.Fatalf("%s as %s: decode: %v", f, decodeAs, err)
			}
			if !got.Equal(img) {
				t.Fatalf("%s as %s: round trip changed the image", f, decodeAs)
			}
		}
		if sniffed := Sniff(data); sniffed != f && !(f == FormatArt && sniffed == FormatArt) {
			t.Fatalf("%s: sniffed as %s", f, sniffed)
		}
	}
}

// TestParseFormat: names resolve case-insensitively, "" means auto, junk
// is rejected.
func TestParseFormat(t *testing.T) {
	for name, want := range map[string]Format{
		"png": FormatPNG, "PBM": FormatPBM, " art ": FormatArt,
		"raw": FormatRaw, "auto": FormatAuto, "": FormatAuto,
	} {
		got, err := ParseFormat(name)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := ParseFormat("jpeg"); err == nil || !strings.Contains(err.Error(), "jpeg") {
		t.Fatalf("ParseFormat(jpeg) = %v", err)
	}
}

// TestContentTypes: the MIME mapping round-trips for every concrete
// format and unknown types fall back to auto.
func TestContentTypes(t *testing.T) {
	for _, f := range Formats() {
		if got := FormatFromContentType(f.ContentType()); got != f {
			t.Fatalf("%s: content type %q maps back to %s", f, f.ContentType(), got)
		}
	}
	if got := FormatFromContentType("application/json"); got != FormatAuto {
		t.Fatalf("unknown content type maps to %s", got)
	}
	if got := FormatFromContentType("image/png; charset=binary"); got != FormatPNG {
		t.Fatalf("parameterized content type maps to %s", got)
	}
}

// TestPNGThreshold: dark pixels are foreground, light pixels and
// transparent pixels are background, for gray and RGBA sources alike.
func TestPNGThreshold(t *testing.T) {
	rgba := image.NewRGBA(image.Rect(0, 0, 3, 1))
	rgba.Set(0, 0, color.Black)
	rgba.Set(1, 0, color.White)
	rgba.Set(2, 0, color.RGBA{}) // fully transparent
	var buf bytes.Buffer
	if err := png.Encode(&buf, rgba); err != nil {
		t.Fatal(err)
	}
	img, err := DecodeBytes(buf.Bytes(), FormatAuto, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Get(0, 0) || img.Get(1, 0) || img.Get(2, 0) {
		t.Fatalf("threshold wrong: got %v %v %v", img.Get(0, 0), img.Get(1, 0), img.Get(2, 0))
	}

	gray := FromImage(ToImage(testImage(t)))
	if !gray.Equal(testImage(t)) {
		t.Fatal("gray fast path diverged from the threshold")
	}
}

// TestLimits: each codec rejects an over-limit image, and PNG and SLR1
// reject it from the header alone (the raster is never materialized —
// observable here only as the error arriving, but the code path is the
// header check).
func TestLimits(t *testing.T) {
	img := bitmap.Random(32, 0.5, 7)
	tight := Limits{MaxWidth: 16}
	loose := Limits{MaxPixels: 32 * 32}
	for _, f := range Formats() {
		data, err := EncodeBytes(img, f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := DecodeBytes(data, f, tight); err == nil || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("%s: over-width decode: %v", f, err)
		}
		if _, err := DecodeBytes(data, f, loose); err != nil {
			t.Fatalf("%s: at-limit decode rejected: %v", f, err)
		}
	}
	if err := (Limits{MaxPixels: 100}).Check(11, 11); err == nil {
		t.Fatal("pixel limit not enforced")
	}
	if err := Unlimited().Check(1<<20, 1<<20); err != nil {
		t.Fatalf("Unlimited rejected: %v", err)
	}
}

// TestPBMLimitFromHeader: an over-limit P1 header is refused with
// ErrLimit before the raster exists, so a 15-byte body cannot make the
// decoder allocate the 16 MiB its header declares.
func TestPBMLimitFromHeader(t *testing.T) {
	data := []byte("P1 1048576 128 ")
	limits := Limits{MaxWidth: 256, MaxHeight: 256}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBytes(data, FormatAuto, limits)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("over-limit PBM header: %v, want ErrLimit", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("rejecting the header allocated %d bytes, want < 64 KiB", got)
	}
}

// artBomb is 12,286 bytes of ASCII art declaring a 4096×4096 raster:
// one 4096-character line, then 4095 one-pixel lines.
func artBomb() []byte {
	return append(bytes.Repeat([]byte{'.'}, 4096), bytes.Repeat([]byte("\n#"), 4095)...)
}

// TestArtLimitBeforeParse: ASCII art is checked against the limits
// before its raster exists; the bomb used to allocate 2.2 MB first.
func TestArtLimitBeforeParse(t *testing.T) {
	data := artBomb()
	limits := Limits{MaxWidth: 256, MaxHeight: 256}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBytes(data, FormatAuto, limits)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("over-limit art: %v, want ErrLimit", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("rejecting the art allocated %d bytes, want < 64 KiB", got)
	}
}

// TestDecodeErrors: garbage input fails per codec with a useful error
// rather than panicking, including binary junk sniffed as art.
func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeBytes([]byte{0x00, 0x01, 0xfe}, FormatAuto, Limits{}); err == nil {
		t.Fatal("binary junk decoded")
	}
	if _, err := DecodeBytes([]byte("P1\n2 2\n1 1 1"), FormatPBM, Limits{}); err == nil {
		t.Fatal("truncated PBM decoded")
	}
	if _, err := DecodeBytes(pngSignature, FormatPNG, Limits{}); err == nil {
		t.Fatal("truncated PNG decoded")
	}
	if _, err := EncodeBytes(testImage(t), "jpeg"); err == nil {
		t.Fatal("unknown encode format accepted")
	}
}

// TestDecodeReader: the io.Reader form matches DecodeBytes.
func TestDecodeReader(t *testing.T) {
	img := testImage(t)
	data, err := EncodeBytes(img, FormatPBM)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(data), FormatAuto, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(img) {
		t.Fatal("Decode(reader) diverged")
	}
}

// FuzzDecodeBytes feeds arbitrary bodies to DecodeBytes under every
// format, sniffing included: no input may panic the decoder, and every
// image it accepts fits the Limits it was decoded under.
func FuzzDecodeBytes(f *testing.F) {
	formats := append([]Format{FormatAuto}, Formats()...)
	img := bitmap.MustParse("##..#\n.#.#.\n#...#")
	for i, ft := range Formats() {
		data, err := EncodeBytes(img, ft)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(0))   // sniffed
		f.Add(data, uint8(i+1)) // named
		if len(data) > 12 {
			f.Add(data[:12], uint8(0)) // truncated header (SLR1's is 12 bytes)
		}
	}
	f.Add([]byte("P1 1048576 128 "), uint8(0))
	f.Add(artBomb(), uint8(0))
	f.Add(pngSignature, uint8(0))
	f.Add([]byte("SLR1\x05\x00\x00\x00"), uint8(0))
	limits := Limits{MaxWidth: 64, MaxHeight: 64, MaxPixels: 2048}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		format := formats[int(which)%len(formats)]
		img, err := DecodeBytes(data, format, limits)
		if err != nil {
			return
		}
		if err := limits.Check(img.W(), img.H()); err != nil {
			t.Fatalf("%s decode accepted a %dx%d image over %+v", format, img.W(), img.H(), limits)
		}
	})
}
