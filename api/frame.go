package api

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"slices"
	"strconv"
	"strings"
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

// AppendLabelsFrame appends the labels frame of v, a *LabelResponse or
// an *AggregateResponse, to dst. The header is v marshaled with its
// Labels and PerPixel left out; v itself is not modified.
func AppendLabelsFrame(dst []byte, v any) ([]byte, error) {
	var labels, folds []int32
	var header []byte
	var err error
	switch r := v.(type) {
	case *LabelResponse:
		h := *r
		labels, h.Labels = h.Labels, nil
		header, err = json.Marshal(&h)
	case *AggregateResponse:
		h := *r
		labels, h.Labels = h.Labels, nil
		folds, h.PerPixel = h.PerPixel, nil
		header, err = json.Marshal(&h)
	default:
		return dst, fmt.Errorf("api: no labels frame for %T", v)
	}
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, len(labelsMagic)+1+4+len(header)+4+4*len(labels)+4+4*len(folds))
	dst = append(dst, labelsMagic...)
	dst = append(dst, labelsVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(header)))
	dst = append(dst, header...)
	dst = appendInt32s(dst, labels)
	return appendInt32s(dst, folds), nil
}

// appendInt32s appends a u32 count and then vs as little-endian int32s.
func appendInt32s(dst []byte, vs []int32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vs)))
	n := len(dst)
	dst = append(dst, make([]byte, 4*len(vs))...)
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
	var lr *LabelResponse
	var folds *[]int32 // nil when out has no place for them
	switch r := out.(type) {
	case *LabelResponse:
		lr = r
	case *AggregateResponse:
		lr, folds = &r.LabelResponse, &r.PerPixel
	default:
		return fmt.Errorf("api: cannot decode a labels frame into %T", out)
	}
	if len(b) < len(labelsMagic)+1 {
		return io.ErrUnexpectedEOF
	}
	if string(b[:len(labelsMagic)]) != labelsMagic || b[len(labelsMagic)] != labelsVersion {
		return fmt.Errorf("%w: bad magic or version %q", ErrLabelsFrame, b[:len(labelsMagic)+1])
	}
	header, rest, err := splitCounted(b[len(labelsMagic)+1:], 1)
	if err != nil {
		return err
	}
	labels, rest, err := splitCounted(rest, 4)
	if err != nil {
		return err
	}
	foldBytes, rest, err := splitCounted(rest, 4)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrLabelsFrame, len(rest))
	}
	if err := json.Unmarshal(header, out); err != nil {
		return fmt.Errorf("%w: header: %v", ErrLabelsFrame, err)
	}
	pixels := int64(lr.Width) * int64(lr.Height)
	for _, sec := range [][]byte{labels, foldBytes} {
		if n := int64(len(sec) / 4); n != 0 && (lr.Width < 0 || lr.Height < 0 || n != pixels) {
			return fmt.Errorf("%w: %d values for a %dx%d frame", ErrLabelsFrame, n, lr.Width, lr.Height)
		}
	}
	// The frame's own sections replace whatever arrays the header named.
	lr.Labels = int32s(labels)
	if folds != nil {
		*folds = int32s(foldBytes)
	}
	return nil
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

// int32s decodes little-endian int32s; nil for none, as JSON leaves an
// omitted array.
func int32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	vs := make([]int32, len(b)/4)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}
