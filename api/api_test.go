package api

import (
	"net/url"
	"testing"
	"time"
)

// TestParamsRoundTrip: Query and ParamsFromQuery are inverses for
// every field, including the cluster-era WordBits and InitialOffset.
func TestParamsRoundTrip(t *testing.T) {
	p := Params{
		Format:        "raw",
		Connectivity:  8,
		UF:            "tarjan",
		Cost:          "bitserial",
		WordBits:      13,
		ArrayWidth:    64,
		Seam:          "distributed",
		Schedule:      "pipelined",
		WantLabels:    true,
		Op:            "sum",
		Initial:       "positions",
		InitialOffset: 4096,
	}
	got, err := ParamsFromQuery(p.Query())
	if err != nil {
		t.Fatalf("ParamsFromQuery: %v", err)
	}
	if got != p {
		t.Fatalf("round trip changed params:\n got %+v\nwant %+v", got, p)
	}

	// Zero values stay off the wire and parse back to zero.
	if enc := (Params{}).Query().Encode(); enc != "" {
		t.Fatalf("zero params encoded to %q", enc)
	}
	if got, err := ParamsFromQuery(url.Values{}); err != nil || got != (Params{}) {
		t.Fatalf("empty query: %+v, %v", got, err)
	}
}

// TestParamsFromQueryRejectsBadInts: malformed numeric fields are
// errors, not silent zeros.
func TestParamsFromQueryRejectsBadInts(t *testing.T) {
	for _, key := range []string{"conn", "array", "wordbits", "initialoffset"} {
		q := url.Values{key: []string{"not-a-number"}}
		if _, err := ParamsFromQuery(q); err == nil {
			t.Errorf("bad %s accepted", key)
		}
	}
	if _, err := ParamsFromQuery(url.Values{"labels": []string{"maybe"}}); err == nil {
		t.Error("bad labels accepted")
	}
}

// TestParseDeadline: only a non-negative integer that fits a
// time.Duration is a budget. A hint past that range used to wrap
// negative, and both tiers answered 504 to a client asking for more
// time.
func TestParseDeadline(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"-1", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false},
		{"0", 0, true},
		{"250", 250 * time.Millisecond, true},
		{"9223372036854", 9223372036854 * time.Millisecond, true},
		{"9223372036855", 0, false},
		{"9999999999999", 0, false},
		{"9223372036854775807", 0, false},
	} {
		got, ok := ParseDeadline(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseDeadline(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// FuzzParseDeadline: no header value panics or yields a negative
// budget.
func FuzzParseDeadline(f *testing.F) {
	for _, seed := range []string{"", "0", "250", "-1", "soon", "9999999999999", "9223372036854775807", "+5", "0x10"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		if d, ok := ParseDeadline(h); ok && d < 0 {
			t.Fatalf("ParseDeadline(%q) = %v, ok", h, d)
		}
	})
}
