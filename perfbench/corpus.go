package main

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/hostcc"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

// request is one corpus entry: an encoded frame, the parameters it is
// sent with, and the answer it must get back.
type request struct {
	data   []byte
	ctype  string
	params api.Params
	ref    reference
}

// strips is how many strip jobs slapfront splits r into: one per
// array-width band of columns, or one for a whole-image run.
func (r *request) strips() int {
	if aw := r.params.ArrayWidth; aw > 0 && aw < r.ref.w {
		return (r.ref.w + aw - 1) / aw
	}
	return 1
}

// reference is the verified answer to a request, computed in process
// before any timer starts: the host engine's summary, a hash of its
// canonical labels when the request asks for labels, and the simulated
// makespan when the request runs on the metered simulator.
type reference struct {
	w, h       int
	components int
	foreground int
	largest    int
	labelHash  uint64 // hashLabelMap of the labels; 0 unless params.WantLabels
	timeSteps  int64  // 0 unless the simulator answers
}

// frameFunc returns frame i of a workload, drawn from rng, with the
// format it is sent in and its request parameters.
type frameFunc func(rng *bitmap.RNG, i int) (*bitmap.Bitmap, imageio.Format, api.Params, error)

// buildRequests encodes frames 0..n-1 and computes their references on
// every CPU. Frame i draws from its own generator, seeded from seed and
// i, so the corpus does not depend on how the work was scheduled.
func buildRequests(frame frameFunc, seed uint64, n int) ([]*request, error) {
	seeds := make([]uint64, n)
	base := bitmap.NewRNG(seed)
	for i := range seeds {
		seeds[i] = base.Uint64()
	}
	reqs := make([]*request, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var enc encoder
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				img, format, p, err := frame(bitmap.NewRNG(seeds[i]), i)
				if err == nil {
					reqs[i], err = enc.request(img, format, p)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return reqs, nil
}

// encoder holds one corpus worker's reusable state.
type encoder struct {
	host *hostcc.Labeler
	png  pngWriter
}

// request encodes img as format and computes its reference under p.
func (e *encoder) request(img *bitmap.Bitmap, format imageio.Format, p api.Params) (*request, error) {
	data, err := imageio.EncodeBytes(img, imageio.FormatRaw)
	if err != nil {
		return nil, err
	}
	switch format {
	case imageio.FormatRaw:
	case imageio.FormatPNG:
		if data, err = e.png.encode(data); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("corpus format %q not supported", format)
	}
	p.Format = string(format)
	ref, err := e.reference(img, p)
	if err != nil {
		return nil, err
	}
	return &request{data: data, ctype: format.ContentType(), params: p, ref: ref}, nil
}

// reference labels img in process with the host engine, and with the
// simulator when p selects it.
func (e *encoder) reference(img *bitmap.Bitmap, p api.Params) (reference, error) {
	if e.host == nil {
		e.host = hostcc.NewLabeler()
	}
	ref := reference{w: img.W(), h: img.H()}
	var st hostcc.Stats
	if p.WantLabels {
		var lm *bitmap.LabelMap
		lm, st = e.host.Label(img, bitmap.Conn4)
		ref.labelHash = hashLabelMap(lm)
	} else {
		st = e.host.Summary(img, bitmap.Conn4)
	}
	ref.components, ref.foreground, ref.largest = st.Components, st.Foreground, st.Largest
	if p.Cost != "host" {
		opt, err := server.OptionsFromParams(core.Options{}, p, img.W(), img.H())
		if err != nil {
			return ref, err
		}
		res, err := core.Label(img, opt)
		if err != nil {
			return ref, fmt.Errorf("simulator reference: %w", err)
		}
		ref.timeSteps = res.Metrics.Time
	}
	return ref, nil
}

// check reports how resp differs from the reference answer to a request
// sent with p, or nil when it is the right answer.
func (ref reference) check(resp *api.LabelResponse, p api.Params) error {
	switch {
	case resp == nil:
		return fmt.Errorf("no response")
	case resp.Width != ref.w || resp.Height != ref.h:
		return fmt.Errorf("dims %dx%d, want %dx%d", resp.Width, resp.Height, ref.w, ref.h)
	case resp.Components != ref.components || resp.Foreground != ref.foreground || resp.Largest != ref.largest:
		return fmt.Errorf("summary (components %d, foreground %d, largest %d), want (%d, %d, %d)",
			resp.Components, resp.Foreground, resp.Largest, ref.components, ref.foreground, ref.largest)
	case resp.Metrics.TimeSteps != ref.timeSteps:
		return fmt.Errorf("time_steps %d, want %d", resp.Metrics.TimeSteps, ref.timeSteps)
	}
	if !p.WantLabels {
		if len(resp.Labels) != 0 {
			return fmt.Errorf("%d labels returned, none requested", len(resp.Labels))
		}
		return nil
	}
	if len(resp.Labels) != ref.w*ref.h {
		return fmt.Errorf("%d labels, want %d", len(resp.Labels), ref.w*ref.h)
	}
	if hashLabels(fnvOffset, resp.Labels) != ref.labelHash {
		return fmt.Errorf("labels differ from the reference labeling")
	}
	return nil
}

// fnvOffset starts a hashLabels chain.
const fnvOffset = 14695981039346656037

// hashLabels continues hash h over labels in order: FNV-1a taken a
// label at a time. Every step is a bijection of the running hash, so
// any single changed label changes the result.
func hashLabels(h uint64, labels []int32) uint64 {
	for _, l := range labels {
		h = (h ^ uint64(uint32(l))) * 1099511628211
	}
	return h
}

// hashLabelMap hashes a LabelMap's columns in order: the column-major
// wire order of api.LabelResponse.Labels.
func hashLabelMap(lm *bitmap.LabelMap) uint64 {
	h := uint64(fnvOffset)
	for x := 0; x < lm.W(); x++ {
		h = hashLabels(h, lm.ColumnSlice(x))
	}
	return h
}

const (
	lanes7 = 0x7f7f7f7f7f7f7f7f
	lanes1 = 0x0101010101010101
	lanesH = 0x8080808080808080
)

// randomImage returns a w×h image whose pixels are 1 independently with
// probability density, quantized to 1/128. Each raster byte takes one
// random word: eight 7-bit lanes, each compared with the threshold by
// a carry-free add, the eight results gathered into the byte's bits.
func randomImage(rng *bitmap.RNG, w, h int, density float64) (*bitmap.Bitmap, error) {
	t := uint64(density*128 + 0.5)
	if t > 128 {
		t = 128
	}
	rowBytes := (w + 7) / 8
	data := make([]byte, 12, 12+h*rowBytes)
	copy(data, "SLR1")
	binary.LittleEndian.PutUint32(data[4:], uint32(w))
	binary.LittleEndian.PutUint32(data[8:], uint32(h))
	for k := 0; k < h*rowBytes; k++ {
		// A lane's bit 7 is set exactly when its 7-bit value is ≥ t.
		ge := ((rng.Uint64() & lanes7) + (128-t)*lanes1) & lanesH
		data = append(data, byte(((ge^lanesH)*0x0002040810204081)>>56))
	}
	// The decoder masks padding bits beyond w, so any w is well formed.
	return imageio.DecodeBytes(data, imageio.FormatRaw, imageio.Unlimited())
}

// pngWriter encodes SLR1 frames as 8-bit grayscale PNGs, foreground
// black, the pixel format client.EncodeImage sends. It deflates with
// Huffman coding only, which for these two-valued pixels compresses as
// well as the default level at a small fraction of the cost, so a
// corpus of thousands of distinct PNG frames builds in seconds.
type pngWriter struct {
	raw, out bytes.Buffer
	zw       *zlib.Writer
}

var pngSignature = []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// grayPixels[b] is the eight gray pixels of SLR1 raster byte b:
// foreground (bit set) black, background white.
var grayPixels = func() (t [256][8]byte) {
	for b := range t {
		for k := range t[b] {
			if b&(1<<k) == 0 {
				t[b][k] = 255
			}
		}
	}
	return t
}()

func (pw *pngWriter) encode(slr1 []byte) ([]byte, error) {
	w, h, ok := bitmap.RawDims(slr1)
	if !ok {
		return nil, fmt.Errorf("png: not an SLR1 frame")
	}
	rowBytes := (w + 7) / 8
	pw.raw.Reset()
	for y := 0; y < h; y++ {
		pw.raw.WriteByte(0) // filter: none
		row := slr1[12+y*rowBytes : 12+(y+1)*rowBytes]
		for x := 0; x < w; x += 8 {
			pw.raw.Write(grayPixels[row[x/8]][:min(8, w-x)])
		}
	}
	var idat bytes.Buffer
	if pw.zw == nil {
		var err error
		if pw.zw, err = zlib.NewWriterLevel(&idat, zlib.HuffmanOnly); err != nil {
			return nil, err
		}
	} else {
		pw.zw.Reset(&idat)
	}
	if _, err := pw.zw.Write(pw.raw.Bytes()); err != nil {
		return nil, err
	}
	if err := pw.zw.Close(); err != nil {
		return nil, err
	}
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	ihdr[8] = 8 // bit depth; color type 0 (gray), deflate, no filter, no interlace
	pw.out.Reset()
	pw.out.Write(pngSignature)
	pw.chunk("IHDR", ihdr[:])
	pw.chunk("IDAT", idat.Bytes())
	pw.chunk("IEND", nil)
	return bytes.Clone(pw.out.Bytes()), nil
}

func (pw *pngWriter) chunk(kind string, data []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(data)))
	pw.out.Write(n[:])
	crc := crc32.NewIEEE()
	crc.Write([]byte(kind))
	crc.Write(data)
	pw.out.WriteString(kind)
	pw.out.Write(data)
	binary.BigEndian.PutUint32(n[:], crc.Sum32())
	pw.out.Write(n[:])
}
