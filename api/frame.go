package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// ContentTypeLabels is the media type of the labels frame: the binary
// answer to /v1/label and /v1/aggregate that a caller gets by naming it
// in its Accept header. The normative layout is in docs/SLR1.md
// ("Labels frame").
//
//	offset  size   field
//	0       4      magic "SLL1"
//	4       1      version (1)
//	5       4      n, header length, little-endian uint32
//	9       n      header: the JSON answer with labels and per_pixel left out
//	9+n     4      label count L, little-endian uint32
//	13+n    4·L    labels, column-major little-endian int32
//	13+n+4L 4      fold count F, little-endian uint32
//	17+n+4L 4·F    per-pixel folds, column-major little-endian int32
const ContentTypeLabels = "application/x-slapcc-labels"

// HeaderOffer names, on every 200 answer to /v1/label and
// /v1/aggregate, the encoding a caller may ask for beyond JSON:
// ContentTypeLabels. A caller asks for the frame only from a server
// whose answers say so; an intermediary that rewrites answers as JSON
// does not pass the header back, so its callers keep asking for JSON
// even if it forwards their Accept upstream.
const HeaderOffer = "X-Slap-Offer"

const (
	labelsMagic   = "SLL1"
	labelsVersion = 1
)

// AcceptsLabelsFrame reports whether an Accept header value names
// ContentTypeLabels with a non-zero weight. Wildcards do not count: a
// caller gets the frame only by asking for it, so any other caller
// keeps the JSON answer, as does one that names it with q=0.
func AcceptsLabelsFrame(accept string) bool {
	for _, r := range strings.Split(accept, ",") {
		mt, params, err := mime.ParseMediaType(r)
		if err != nil || mt != ContentTypeLabels {
			continue
		}
		if q, err := strconv.ParseFloat(params["q"], 64); err == nil && q == 0 {
			continue
		}
		return true
	}
	return false
}

// LabelsFrame is the labels frame of one answer, ready to write: its
// header marshaled, its label and fold arrays held by reference, so the
// frame's bytes are produced only as they are appended or written.
type LabelsFrame struct {
	header        []byte
	labels, folds []int32
}

// NewLabelsFrame prepares the labels frame of v, a *LabelResponse or
// an *AggregateResponse. The header is v marshaled with its Labels and
// PerPixel left out; v itself is not modified.
func NewLabelsFrame(v any) (*LabelsFrame, error) {
	f := &LabelsFrame{}
	var err error
	switch r := v.(type) {
	case *LabelResponse:
		h := *r
		f.labels, h.Labels = h.Labels, nil
		f.header, err = json.Marshal(&h)
	case *AggregateResponse:
		h := *r
		f.labels, h.Labels = h.Labels, nil
		f.folds, h.PerPixel = h.PerPixel, nil
		f.header, err = json.Marshal(&h)
	default:
		return nil, fmt.Errorf("api: no labels frame for %T", v)
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Size is the frame's length in bytes.
func (f *LabelsFrame) Size() int {
	return len(labelsMagic) + 1 + 4 + len(f.header) + 4 + 4*len(f.labels) + 4 + 4*len(f.folds)
}

// Append appends the frame to dst.
func (f *LabelsFrame) Append(dst []byte) []byte {
	dst = slices.Grow(dst, f.Size())
	dst = f.appendHeader(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.labels)))
	dst = appendInt32s(dst, f.labels)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.folds)))
	return appendInt32s(dst, f.folds)
}

// WriteTo writes the frame to w through one pooled 32 KiB buffer, so
// the answer's arrays are never copied whole.
func (f *LabelsFrame) WriteTo(w io.Writer) (int64, error) {
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	buf := f.appendHeader((*bp)[:0])
	var total int64
	for _, vs := range [][]int32{f.labels, f.folds} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
		for {
			n := min(len(vs), (cap(buf)-len(buf))/4)
			buf = appendInt32s(buf, vs[:n])
			vs = vs[n:]
			if len(vs) == 0 && cap(buf)-len(buf) >= 4 {
				break
			}
			m, err := w.Write(buf)
			total += int64(m)
			if err != nil {
				return total, err
			}
			buf = buf[:0]
		}
	}
	m, err := w.Write(buf)
	return total + int64(m), err
}

// appendHeader appends the magic, the version and the counted header.
func (f *LabelsFrame) appendHeader(dst []byte) []byte {
	dst = append(dst, labelsMagic...)
	dst = append(dst, labelsVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.header)))
	return append(dst, f.header...)
}

// chunkPool holds the buffers WriteTo and ReadLabelsFrame move the
// arrays through.
var chunkPool = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// AppendLabelsFrame appends the labels frame of v, a *LabelResponse or
// an *AggregateResponse, to dst (see NewLabelsFrame).
func AppendLabelsFrame(dst []byte, v any) ([]byte, error) {
	f, err := NewLabelsFrame(v)
	if err != nil {
		return dst, err
	}
	return f.Append(dst), nil
}

// appendInt32s appends vs as little-endian int32s.
func appendInt32s(dst []byte, vs []int32) []byte {
	n := len(dst)
	dst = dst[:n+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[n+4*i:], uint32(v))
	}
	return dst
}

// ErrLabelsFrame reports a malformed labels frame (a frame cut short is
// io.ErrUnexpectedEOF instead, so a caller can tell a truncated
// transfer from a bad answer).
var ErrLabelsFrame = errors.New("api: malformed labels frame")

// DecodeLabelsFrame decodes a whole labels frame into out, a
// *LabelResponse or an *AggregateResponse; decoding into a
// *LabelResponse skips the folds, as JSON decoding skips per_pixel.
// Every length is checked against the bytes of b before anything is
// allocated, so a hostile frame costs at most len(b) more bytes; each
// non-zero count must equal the header's width·height. A frame shorter
// than its lengths claim fails with io.ErrUnexpectedEOF.
func DecodeLabelsFrame(b []byte, out any) error {
	if len(b) < len(labelsMagic)+1 {
		return io.ErrUnexpectedEOF
	}
	if err := checkMagic(b); err != nil {
		return err
	}
	rest := b[len(labelsMagic)+1:]
	for _, size := range []int{1, 4, 4} {
		var err error
		if _, rest, err = splitCounted(rest, size); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrLabelsFrame, len(rest))
	}
	return ReadLabelsFrame(bytes.NewReader(b), out, len(b)/4)
}

// ReadLabelsFrame decodes a labels frame from r as its bytes arrive,
// into out as DecodeLabelsFrame does, and reads r to its end. maxValues
// bounds each array: a count above it is ErrLabelsFrame before anything
// is allocated, so a caller that derives it from what it asked for (a
// w×h frame answers with w·h labels) allocates no more than a true
// answer needs, whatever a hostile frame claims. Arrays move through
// one pooled buffer into slices allocated once at their final size.
func ReadLabelsFrame(r io.Reader, out any, maxValues int) error {
	var lr *LabelResponse
	var folds *[]int32 // nil when out has no place for them
	switch o := out.(type) {
	case *LabelResponse:
		lr = o
	case *AggregateResponse:
		lr, folds = &o.LabelResponse, &o.PerPixel
	default:
		return fmt.Errorf("api: cannot decode a labels frame into %T", out)
	}
	var pre [len(labelsMagic) + 1 + 4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return unexpectedEOF(err)
	}
	if err := checkMagic(pre[:]); err != nil {
		return err
	}
	// The header grows only as its bytes arrive.
	n := int64(binary.LittleEndian.Uint32(pre[len(labelsMagic)+1:]))
	header, err := io.ReadAll(io.LimitReader(r, n))
	if err != nil {
		return err
	}
	if int64(len(header)) != n {
		return io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(header, out); err != nil {
		return fmt.Errorf("%w: header: %v", ErrLabelsFrame, err)
	}
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	buf := (*bp)[:cap(*bp)]
	pixels := int64(lr.Width) * int64(lr.Height)
	// The frame's own sections replace whatever arrays the header named.
	for _, dst := range []*[]int32{&lr.Labels, folds} {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return unexpectedEOF(err)
		}
		count := int64(binary.LittleEndian.Uint32(buf))
		if count != 0 && (lr.Width < 0 || lr.Height < 0 || count != pixels) {
			return fmt.Errorf("%w: %d values for a %dx%d frame", ErrLabelsFrame, count, lr.Width, lr.Height)
		}
		if count > int64(maxValues) {
			return fmt.Errorf("%w: %d values, more than the %d asked for", ErrLabelsFrame, count, maxValues)
		}
		var vs []int32
		if dst != nil && count > 0 {
			vs = make([]int32, count)
		}
		for done := int64(0); done < count; {
			k := min(count-done, int64(len(buf)/4))
			if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
				return unexpectedEOF(err)
			}
			if vs != nil {
				b, part := buf[:4*k], vs[done:done+k]
				for i := range part {
					part[i] = int32(binary.LittleEndian.Uint32(b))
					b = b[4:]
				}
			}
			done += k
		}
		if dst != nil {
			*dst = vs
		}
	}
	switch m, err := io.ReadFull(r, buf[:1]); {
	case m != 0:
		return fmt.Errorf("%w: trailing bytes", ErrLabelsFrame)
	case err != io.EOF:
		return err
	}
	return nil
}

// checkMagic checks the frame's magic and version.
func checkMagic(b []byte) error {
	if string(b[:len(labelsMagic)]) != labelsMagic || b[len(labelsMagic)] != labelsVersion {
		return fmt.Errorf("%w: bad magic or version %q", ErrLabelsFrame, b[:len(labelsMagic)+1])
	}
	return nil
}

// unexpectedEOF reports a frame that ended early as io.ErrUnexpectedEOF,
// whether it ended at a field boundary (io.EOF) or inside one.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// splitCounted reads a u32 count of size-byte items off the front of b
// and returns those items' bytes and what follows, failing with
// io.ErrUnexpectedEOF when b holds fewer.
func splitCounted(b []byte, size int) (items, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, io.ErrUnexpectedEOF
	}
	n := uint64(binary.LittleEndian.Uint32(b)) * uint64(size)
	b = b[4:]
	if uint64(len(b)) < n {
		return nil, nil, io.ErrUnexpectedEOF
	}
	return b[:n], b[n:], nil
}
