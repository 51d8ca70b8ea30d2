package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// exampleLabels is docs/SLR1.md's worked example: the 2×2 image
//
//	#.
//	.#
//
// labeled under the host engine.
func exampleLabels() *LabelResponse {
	return &LabelResponse{
		Width: 2, Height: 2, Foreground: 2, Components: 2, Largest: 1,
		UF:     UFReport{Kind: "host", Finds: 2},
		Labels: []int32{0, -1, -1, 3},
	}
}

// TestLabelsFrameWorkedExample pins the documented bytes of the
// example frame.
func TestLabelsFrameWorkedExample(t *testing.T) {
	got, err := AppendLabelsFrame(nil, exampleLabels())
	if err != nil {
		t.Fatal(err)
	}
	header := `{"width":2,"height":2,"foreground":2,"components":2,"largest":1,` +
		`"metrics":{"array_width":0,"time_steps":0,"sends":0,"words":0,"max_queue":0,"pe_memory_words":0},` +
		`"uf":{"kind":"host","finds":2,"unions":0,"total_steps":0,"max_op_cost":0,"mean_op_cost":0}}`
	if len(header) != 252 {
		t.Fatalf("example header is %d bytes; docs/SLR1.md says 252", len(header))
	}
	want := []byte("SLL1\x01\xfc\x00\x00\x00" + header +
		"\x04\x00\x00\x00" + "\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\x03\x00\x00\x00" +
		"\x00\x00\x00\x00")
	if !bytes.Equal(got, want) {
		t.Fatalf("example frame:\n got %q\nwant %q", got, want)
	}
}

// TestLabelsFrameRoundTrip: a frame decodes to exactly the response
// the JSON answer decodes to, labels and folds included, and encoding
// leaves its input untouched.
func TestLabelsFrameRoundTrip(t *testing.T) {
	agg := &AggregateResponse{
		LabelResponse: *exampleLabels(),
		Op:            "sum",
		PerPixel:      []int32{1, 0, 0, 1},
	}
	agg.Metrics.Phases = []PhaseMetrics{{Name: "walk", Makespan: 9}}
	for _, tc := range []struct {
		in, frameOut, jsonOut any
	}{
		{exampleLabels(), &LabelResponse{}, &LabelResponse{}},
		{&LabelResponse{Width: 3, Height: 0}, &LabelResponse{}, &LabelResponse{}},
		{agg, &AggregateResponse{}, &AggregateResponse{}},
		// A label decoder reads an aggregate frame as JSON decoding reads
		// the aggregate JSON: without the folds.
		{agg, &LabelResponse{}, &LabelResponse{}},
	} {
		before, _ := json.Marshal(tc.in)
		frame, err := AppendLabelsFrame(nil, tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if after, _ := json.Marshal(tc.in); !bytes.Equal(before, after) {
			t.Fatalf("encoding modified its input:\n%s\n%s", before, after)
		}
		if err := DecodeLabelsFrame(frame, tc.frameOut); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(before, tc.jsonOut); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.frameOut, tc.jsonOut) {
			t.Fatalf("frame decodes to %+v, JSON to %+v", tc.frameOut, tc.jsonOut)
		}
	}
}

// TestLabelsFrameRejects: a cut-short frame is io.ErrUnexpectedEOF at
// every length (so clients retry it as a truncated transfer), and an
// inconsistent one is ErrLabelsFrame.
func TestLabelsFrameRejects(t *testing.T) {
	frame, err := AppendLabelsFrame(nil, exampleLabels())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if err := DecodeLabelsFrame(frame[:n], &LabelResponse{}); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame cut to %d of %d bytes: err %v, want io.ErrUnexpectedEOF", n, len(frame), err)
		}
	}
	bad := func(edit func(b []byte) []byte) []byte { return edit(bytes.Clone(frame)) }
	hdrEnd := 9 + int(binary.LittleEndian.Uint32(frame[5:]))
	for name, b := range map[string][]byte{
		"magic":    bad(func(b []byte) []byte { b[3] = '2'; return b }),
		"version":  bad(func(b []byte) []byte { b[4] = 2; return b }),
		"header":   bad(func(b []byte) []byte { b[9] = '['; return b }),
		"trailing": bad(func(b []byte) []byte { return append(b, 0) }),
		// Three labels for a 2×2 frame, then no folds.
		"label count": bad(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[hdrEnd:], 3)
			return append(b[:hdrEnd+4+12], 0, 0, 0, 0)
		}),
	} {
		if err := DecodeLabelsFrame(b, &LabelResponse{}); !errors.Is(err, ErrLabelsFrame) {
			t.Errorf("%s: err %v, want ErrLabelsFrame", name, err)
		}
	}
	if _, err := AppendLabelsFrame(nil, "labels"); err == nil {
		t.Fatal("AppendLabelsFrame accepted a string")
	}
}

// TestLabelsFrameStreams: WriteTo writes exactly Append's bytes and
// Size of them, across its buffer's chunk boundary, and ReadLabelsFrame
// reads them back as DecodeLabelsFrame does — refusing a count beyond
// what its caller asked for before allocating it.
func TestLabelsFrameStreams(t *testing.T) {
	for _, n := range []int{0, 1, 8191, 8192, 8193, 50000} {
		agg := &AggregateResponse{LabelResponse: LabelResponse{Width: n, Height: 1}, Op: "sum"}
		for i := 0; i < n; i++ {
			agg.Labels = append(agg.Labels, int32(i))
			agg.PerPixel = append(agg.PerPixel, int32(-i))
		}
		f, err := NewLabelsFrame(agg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if m, err := f.WriteTo(&buf); err != nil || m != int64(buf.Len()) {
			t.Fatalf("%d values: WriteTo = %d, %v for %d bytes", n, m, err, buf.Len())
		}
		if want := f.Append(nil); !bytes.Equal(buf.Bytes(), want) || len(want) != f.Size() {
			t.Fatalf("%d values: WriteTo wrote %d bytes, Append %d, Size %d", n, buf.Len(), len(want), f.Size())
		}
		var got AggregateResponse
		if err := ReadLabelsFrame(bytes.NewReader(buf.Bytes()), &got, n); err != nil {
			t.Fatalf("%d values: %v", n, err)
		}
		if !reflect.DeepEqual(&got, agg) {
			t.Fatalf("%d values: read back %+v", n, got)
		}
		if n > 0 {
			if err := ReadLabelsFrame(bytes.NewReader(buf.Bytes()), &got, n-1); !errors.Is(err, ErrLabelsFrame) {
				t.Fatalf("%d values against a bound of %d: err %v, want ErrLabelsFrame", n, n-1, err)
			}
		}
	}
}

// TestAcceptsLabelsFrame: only an Accept that names the frame with a
// non-zero weight gets it.
func TestAcceptsLabelsFrame(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                                       false,
		"*/*":                                    false,
		"application/json":                       false,
		ContentTypeLabels:                        true,
		"Application/X-Slapcc-Labels":            true,
		ContentTypeLabels + ", application/json": true,
		"application/json;q=0.5, " + ContentTypeLabels + ";v=1": true,
		"application/x-slapcc-labelsx":                          false,
		ContentTypeLabels + ";q=0":                              false,
		ContentTypeLabels + "; q=0.000, application/json":       false,
		ContentTypeLabels + ";q=0.001":                          true,
	} {
		if got := AcceptsLabelsFrame(accept); got != want {
			t.Errorf("AcceptsLabelsFrame(%q) = %v, want %v", accept, got, want)
		}
	}
}

// FuzzDecodeLabelsFrame: no input panics, a decoded frame never holds
// more values than its bytes carried, and what decodes re-encodes to a
// frame that decodes to the same response.
func FuzzDecodeLabelsFrame(f *testing.F) {
	agg := &AggregateResponse{LabelResponse: *exampleLabels(), Op: "min", PerPixel: []int32{0, 7, 7, 3}}
	for _, v := range []any{exampleLabels(), agg, &LabelResponse{}} {
		frame, err := AppendLabelsFrame(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte("SLL1\x01\xff\xff\xff\xff"))
	f.Add([]byte("SLL1\x01\x02\x00\x00\x00{}\xff\xff\xff\x7f"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got AggregateResponse
		if err := DecodeLabelsFrame(b, &got); err != nil {
			return
		}
		if 4*(len(got.Labels)+len(got.PerPixel)) > len(b) {
			t.Fatalf("%d labels and %d folds from %d bytes", len(got.Labels), len(got.PerPixel), len(b))
		}
		again, err := AppendLabelsFrame(nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		var back AggregateResponse
		if err := DecodeLabelsFrame(again, &back); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("round trip changed the response:\n%+v\n%+v", got, back)
		}
	})
}
