package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/imageio"
	"slapcc/internal/unionfind"
)

// TestParamRejectionTable pins the wire contract for malformed option
// values: every unknown cost/uf/seam/schedule/conn/op answers 400, and
// the error body names the valid options, so a caller who typos a
// parameter learns the menu instead of silently getting a default.
func TestParamRejectionTable(t *testing.T) {
	s := New(Config{Workers: 1})
	img := bitmap.Random(8, 0.5, 7)
	kindList := fmt.Sprintf("%v", unionfind.Kinds())
	cases := []struct {
		name string
		path string
		p    api.Params
		want string // substring of the error body naming valid options
	}{
		{"cost", api.PathLabel, api.Params{Cost: "quantum"}, `bad cost "quantum" (want unit, bitserial, or host)`},
		{"cost-agg", api.PathAggregate, api.Params{Cost: "free"}, "want unit, bitserial, or host"},
		{"uf", api.PathLabel, api.Params{UF: "bogus"}, fmt.Sprintf(`unknown uf "bogus" (want one of %s)`, kindList)},
		{"seam", api.PathLabel, api.Params{Seam: "psychic"}, `bad seam "psychic" (want "distributed" or "host")`},
		{"schedule", api.PathLabel, api.Params{Schedule: "chaotic"}, `bad schedule "chaotic" (want "sequential" or "pipelined")`},
		{"conn", api.PathLabel, api.Params{Connectivity: 6}, "bad conn 6 (want 4 or 8)"},
		{"op", api.PathAggregate, api.Params{Op: "xor"}, `unknown op "xor" (min, max, sum, or)`},
		{"array", api.PathLabel, api.Params{ArrayWidth: -3}, "bad array -3"},
		{"wordbits", api.PathLabel, api.Params{WordBits: -1}, "bad wordbits -1"},
	}
	for _, tc := range cases {
		rec := postImage(t, s, tc.path, img, imageio.FormatRaw, tc.p)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code %d (%s), want 400", tc.name, rec.Code, rec.Body.String())
		}
		er := decodeJSON[api.ErrorResponse](t, rec)
		if !strings.Contains(er.Error, tc.want) {
			t.Fatalf("%s: error %q does not name the valid options (want substring %q)", tc.name, er.Error, tc.want)
		}
	}
}

// TestCostParamResolution pins the cost= → engine/cost-model mapping at
// the OptionsFromParams seam every serving program shares.
func TestCostParamResolution(t *testing.T) {
	for _, cost := range []string{"", "unit", "bitserial", "host", "HOST"} {
		opt, err := OptionsFromParams(core.Options{}, api.Params{Cost: cost}, 16, 16)
		if err != nil {
			t.Fatalf("cost=%q: %v", cost, err)
		}
		wantHost := strings.EqualFold(cost, "host")
		if got := opt.Engine == core.EngineHost; got != wantHost {
			t.Fatalf("cost=%q: Engine = %q", cost, opt.Engine)
		}
		if cost == "bitserial" && opt.Cost.WordBits == 0 {
			t.Fatalf("cost=bitserial: word width not derived")
		}
	}
}

// TestHostCostEndToEnd serves cost=host through the real handlers: the
// labels and folds are bit-identical to the simulator's, the response
// Metrics is all zeros (no phases, no simulated time), and the UF
// report carries the host labeler's counts under kind "host".
func TestHostCostEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2, Verify: true})
	img := bitmap.Random(32, 0.5, 21)

	simRec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{WantLabels: true})
	hostRec := postImage(t, s, api.PathLabel, img, imageio.FormatRaw, api.Params{Cost: "host", WantLabels: true})
	if simRec.Code != http.StatusOK || hostRec.Code != http.StatusOK {
		t.Fatalf("label codes sim=%d host=%d: %s", simRec.Code, hostRec.Code, hostRec.Body.String())
	}
	sim := decodeJSON[api.LabelResponse](t, simRec)
	host := decodeJSON[api.LabelResponse](t, hostRec)
	if len(host.Labels) != len(sim.Labels) {
		t.Fatalf("label count host %d, sim %d", len(host.Labels), len(sim.Labels))
	}
	for i := range sim.Labels {
		if host.Labels[i] != sim.Labels[i] {
			t.Fatalf("label[%d] host %d, sim %d", i, host.Labels[i], sim.Labels[i])
		}
	}
	if host.Components != sim.Components || host.Foreground != sim.Foreground || host.Largest != sim.Largest {
		t.Fatalf("summary diverges: host %+v, sim %+v", host, sim)
	}
	if host.Metrics.TimeSteps != 0 || host.Metrics.Sends != 0 || len(host.Metrics.Phases) != 0 || host.Metrics.ArrayWidth != 0 {
		t.Fatalf("host run leaked simulated metrics: %+v", host.Metrics)
	}
	if host.UF.Kind != string(core.HostUFKind) || host.UF.Finds == 0 {
		t.Fatalf("host UF report %+v", host.UF)
	}
	if sim.Metrics.TimeSteps == 0 {
		t.Fatalf("simulator run lost its metrics: %+v", sim.Metrics)
	}

	// Summary-only (labels=0, server verification off): the host engine
	// answers without materializing the labeling at all, and the
	// response must still match a labeled host run field for field —
	// dimensions, summary, and UF report included.
	s2 := New(Config{Workers: 1})
	slim := decodeJSON[api.LabelResponse](t, postImage(t, s2, api.PathLabel, img, imageio.FormatRaw, api.Params{Cost: "host"}))
	if slim.Width != img.W() || slim.Height != img.H() {
		t.Fatalf("summary-only dims %dx%d, want %dx%d", slim.Width, slim.Height, img.W(), img.H())
	}
	if slim.Components != host.Components || slim.Foreground != host.Foreground || slim.Largest != host.Largest {
		t.Fatalf("summary-only summary diverges: %+v vs labeled %+v", slim, host)
	}
	if slim.UF != host.UF {
		t.Fatalf("summary-only UF report %+v, labeled %+v", slim.UF, host.UF)
	}
	if len(slim.Labels) != 0 {
		t.Fatalf("summary-only response carries %d labels", len(slim.Labels))
	}

	// Aggregation: component areas under cost=host, including a
	// strip-mined request (array= is a no-op for the host engine but
	// must be accepted — the cluster coordinator stamps it on strip jobs).
	for _, p := range []api.Params{
		{Cost: "host", Op: "sum", WantLabels: true},
		{Cost: "host", Op: "sum", ArrayWidth: 8, WantLabels: true},
	} {
		simA := decodeJSON[api.AggregateResponse](t, postImage(t, s, api.PathAggregate, img, imageio.FormatRaw, api.Params{Op: "sum", WantLabels: true}))
		rec := postImage(t, s, api.PathAggregate, img, imageio.FormatRaw, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("aggregate array=%d: %d: %s", p.ArrayWidth, rec.Code, rec.Body.String())
		}
		hostA := decodeJSON[api.AggregateResponse](t, rec)
		for i := range simA.PerPixel {
			if hostA.PerPixel[i] != simA.PerPixel[i] {
				t.Fatalf("array=%d: per-pixel[%d] host %d, sim %d", p.ArrayWidth, i, hostA.PerPixel[i], simA.PerPixel[i])
			}
		}
		if hostA.Metrics.TimeSteps != 0 || len(hostA.Metrics.Phases) != 0 {
			t.Fatalf("array=%d: host aggregate leaked metrics: %+v", p.ArrayWidth, hostA.Metrics)
		}
	}
}

// FuzzOptionsFromParams drives the query-parameter trust boundary that
// every /v1/label and /v1/aggregate request crosses before any work: a
// raw query string through api.ParamsFromQuery, OptionsFromParams over
// a bounded frame, core.MonoidByName and CheckInitial. Nothing may panic,
// and params the parser accepts must round-trip through Params.Query.
func FuzzOptionsFromParams(f *testing.F) {
	for _, seed := range []struct {
		query string
		w, h  uint16
	}{
		{"", 8, 8},
		{"conn=8&uf=blum&cost=bitserial&wordbits=12&array=4&seam=host&schedule=pipelined&labels=1", 64, 16},
		{"cost=host&op=sum&initial=positions&initialoffset=-7&labels=true", 3, 5},
		{"cost=BitSerial&seam=DISTRIBUTED&schedule=Sequential&op=OR&initial=Ones", 0, 0},
		{"cost=bitserial&wordbits=2147483647", 65535, 65535},
		{"conn=6&uf=bogus&cost=quantum", 8, 8},
		{"array=-1&wordbits=x", 8, 8},
		{"op=xor&initial=zeros", 8, 8},
		{"labels=maybe&format=png", 8, 8},
		{"%zz&conn=+4&conn=8&array=2", 8, 8},
		{"initialoffset=99999999999999999999", 8, 8},
	} {
		f.Add(seed.query, seed.w, seed.h)
	}
	f.Fuzz(func(t *testing.T, query string, w, h uint16) {
		// r.URL.Query() drops malformed pairs the same way.
		q, _ := url.ParseQuery(query)
		p, err := api.ParamsFromQuery(q)
		if err != nil {
			return
		}
		back, err := api.ParamsFromQuery(p.Query())
		if err != nil || back != p {
			t.Fatalf("params %+v round-trip to %+v, %v", p, back, err)
		}
		// Rejections are answers (400s); only a panic fails.
		OptionsFromParams(core.Options{}, p, int(w), int(h))
		core.MonoidByName(p.Op)
		CheckInitial(p.Initial)
	})
}
