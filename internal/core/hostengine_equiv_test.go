package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"slapcc/internal/bitmap"
	"slapcc/internal/seqcc"
)

// The host engine's contract: bit-identical labels and aggregate values
// to the simulator for every family, connectivity, and shape — with
// zero Metrics and a HostUFKind report. These tests are the standing
// cross-engine harness the tentpole calls for: the simulator is checked
// against seqcc ground truth elsewhere, so holding host == sim == BFS
// here closes the triangle.

var hostTestConns = []bitmap.Connectivity{bitmap.Conn4, bitmap.Conn8}

// requireHostShape asserts the host-engine result-shape contract: no
// simulated metrics at all, and the host UF kind with the host
// labeler's finds counted (at least one per run of foreground).
func requireHostShape(t *testing.T, name string, r *Result) {
	t.Helper()
	if r.Metrics.Time != 0 || len(r.Metrics.Phases) != 0 || r.Metrics.Sends != 0 {
		t.Fatalf("%s: host engine emitted simulated metrics", name)
	}
	if r.UF.Kind != HostUFKind {
		t.Fatalf("%s: UF kind %q, want %q", name, r.UF.Kind, HostUFKind)
	}
	if r.Summary == nil || r.Summary.Foreground > 0 && r.UF.Finds == 0 {
		t.Fatalf("%s: summary %+v with %d finds", name, r.Summary, r.UF.Finds)
	}
}

func TestHostEngineLabelMatrix(t *testing.T) {
	for _, fam := range bitmap.Families() {
		for _, n := range []int{33, 64} {
			img := fam.Generate(n)
			for _, conn := range hostTestConns {
				name := fmt.Sprintf("%s n=%d conn%d", fam.Name, n, conn)
				sim, err := Label(img, Options{Connectivity: conn})
				if err != nil {
					t.Fatalf("%s: sim: %v", name, err)
				}
				host, err := Label(img, Options{Engine: EngineHost, Connectivity: conn})
				if err != nil {
					t.Fatalf("%s: host: %v", name, err)
				}
				if !host.Labels.Equal(sim.Labels) {
					t.Fatalf("%s: host labels diverge from simulator", name)
				}
				requireHostShape(t, name, host)
			}
		}
	}
}

// TestHostEngineStripMatrix: a strip-mined host run strip-mines like
// the simulator — every strip a host run over a zero-copy view, the
// seams stitched by the tiler — and its labels and folds equal both the
// strip-mined simulator's and one whole-frame host run's, at array
// widths from one column up, aligned to the column words and not.
func TestHostEngineStripMatrix(t *testing.T) {
	img := bitmap.RandomRect(130, 40, 0.5, 0x57B1)
	w, h := img.W(), img.H()
	initial := make([]int32, w*h)
	for i := range initial {
		initial[i] = int32(i%31) - 7
	}
	sum, mn := Sum(), Min()
	for _, aw := range []int{1, 7, 16, 63, 64, 65, 100} {
		for _, conn := range hostTestConns {
			for _, op := range []*Monoid{nil, &sum, &mn} {
				name := fmt.Sprintf("aw=%d conn%d label", aw, conn)
				if op != nil {
					name = fmt.Sprintf("aw=%d conn%d %s", aw, conn, op.Name)
				}
				hostOpt := Options{Engine: EngineHost, Connectivity: conn}
				whole := mustRun(t, name+" whole host", img, initial, op, hostOpt)
				hostOpt.ArrayWidth = aw
				host := mustRun(t, name+" host", img, initial, op, hostOpt)
				sim := mustRun(t, name+" sim", img, initial, op, Options{Connectivity: conn, ArrayWidth: aw})
				if !host.Labels.Equal(sim.Labels) || !host.Labels.Equal(whole.Labels) {
					t.Fatalf("%s: strip-mined host labels diverge from the simulator's or the whole frame's", name)
				}
				if !slices.Equal(host.PerPixel, sim.PerPixel) || !slices.Equal(host.PerPixel, whole.PerPixel) {
					t.Fatalf("%s: strip-mined host folds diverge from the simulator's or the whole frame's", name)
				}
				if *host.Summary != *whole.Summary {
					t.Fatalf("%s: summary %+v, whole frame %+v", name, *host.Summary, *whole.Summary)
				}
				requireHostShape(t, name, host)
			}
		}
	}
}

// mustRun is Run under opt on a pooled labeler, failing the test on an
// error.
func mustRun(t *testing.T, name string, img *bitmap.Bitmap, initial []int32, op *Monoid, opt Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), img, initial, op, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestHostEngineAggregateMatrix(t *testing.T) {
	monoids := []Monoid{Min(), Max(), Sum(), Or()}
	pick := map[string]bool{"random50": true, "checker": true, "hserpentine": true, "blobs": true}
	for _, f := range bitmap.Families() {
		if !pick[f.Name] {
			continue
		}
		fam := f.Name
		img := f.Generate(48)
		initial := make([]int32, img.W()*img.H())
		for i := range initial {
			initial[i] = int32(i%23) - 5
		}
		for _, conn := range hostTestConns {
			for _, op := range monoids {
				name := fmt.Sprintf("%s conn%d %s", fam, conn, op.Name)
				sim, err := Aggregate(img, initial, op, Options{Connectivity: conn})
				if err != nil {
					t.Fatalf("%s: sim: %v", name, err)
				}
				host, err := Aggregate(img, initial, op, Options{Engine: EngineHost, Connectivity: conn})
				if err != nil {
					t.Fatalf("%s: host: %v", name, err)
				}
				if !host.Labels.Equal(sim.Labels) {
					t.Fatalf("%s: host labels diverge", name)
				}
				for i := range sim.PerPixel {
					if host.PerPixel[i] != sim.PerPixel[i] {
						t.Fatalf("%s: per-pixel[%d] host %d, sim %d", name, i, host.PerPixel[i], sim.PerPixel[i])
					}
				}
				requireHostShape(t, name, host)
			}
		}
	}
}

// TestHostEngineDifferential is the three-way fuzz: host engine vs the
// sequential BFS ground truth vs the fused simulator, labels and
// aggregates, across random non-square shapes × connectivities × strip
// widths. CI runs this under -race with the rest of the module.
func TestHostEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED8))
	for i := 0; i < 24; i++ {
		w := 1 + rng.Intn(96)
		h := 1 + rng.Intn(96)
		density := 0.15 + 0.7*rng.Float64()
		img := bitmap.RandomRect(w, h, density, uint64(rng.Int63()))
		conn := hostTestConns[i%2]
		aw := 0
		if w > 4 && i%3 != 0 {
			aw = 2 + rng.Intn(w-2) // genuinely strip-mined for the simulator
		}
		name := fmt.Sprintf("case %d: %dx%d conn%d aw=%d", i, w, h, conn, aw)

		bfs := seqcc.BFSConn(img, conn)
		host, err := Label(img, Options{Engine: EngineHost, Connectivity: conn, ArrayWidth: aw})
		if err != nil {
			t.Fatalf("%s: host: %v", name, err)
		}
		if !host.Labels.Equal(bfs) {
			t.Fatalf("%s: host labels diverge from BFS", name)
		}
		sim, err := Label(img, Options{Connectivity: conn, ArrayWidth: aw})
		if err != nil {
			t.Fatalf("%s: sim: %v", name, err)
		}
		if !sim.Labels.Equal(bfs) {
			t.Fatalf("%s: simulator labels diverge from BFS", name)
		}

		initial := make([]int32, w*h)
		for p := range initial {
			initial[p] = int32(rng.Intn(64)) - 16
		}
		op := []Monoid{Sum(), Min(), Max(), Or()}[i%4]
		hostAgg, err := Aggregate(img, initial, op, Options{Engine: EngineHost, Connectivity: conn, ArrayWidth: aw})
		if err != nil {
			t.Fatalf("%s: host agg: %v", name, err)
		}
		simAgg, err := Aggregate(img, initial, op, Options{Connectivity: conn, ArrayWidth: aw})
		if err != nil {
			t.Fatalf("%s: sim agg: %v", name, err)
		}
		for p := range simAgg.PerPixel {
			if hostAgg.PerPixel[p] != simAgg.PerPixel[p] {
				t.Fatalf("%s %s: per-pixel[%d] host %d, sim %d", name, op.Name, p, hostAgg.PerPixel[p], simAgg.PerPixel[p])
			}
		}
		if conn == bitmap.Conn4 {
			ref := seqcc.AggregateRef(img, initial, op.Combine, op.Identity)
			for p := range ref {
				if hostAgg.PerPixel[p] != ref[p] {
					t.Fatalf("%s %s: per-pixel[%d] host %d, seqcc %d", name, op.Name, p, hostAgg.PerPixel[p], ref[p])
				}
			}
		}
	}
}

// copyStrip materializes a strip as its own Bitmap, the shape a remote
// backend would have decoded from the wire.
func copyStrip(img *bitmap.Bitmap, x0, sw int) *bitmap.Bitmap {
	out := bitmap.New(sw, img.H())
	for x := 0; x < sw; x++ {
		for y := 0; y < img.H(); y++ {
			out.Set(x, y, img.Get(x0+x, y))
		}
	}
	return out
}

// TestHostEngineCompose drives the cluster-shaped path: strips labeled
// independently under the host engine, stitched by ComposeStrips with
// Engine == EngineHost, without and with a monoid. The composed answer
// must match a whole-image host run — and therefore the simulator —
// and equal an in-process strip-mined host run field for field, UF
// counts included, as slapd's and slapfront's answers must.
func TestHostEngineCompose(t *testing.T) {
	img := bitmap.Random(90, 0.5, 0xC10)
	w, h := img.W(), img.H()
	initial := make([]int32, w*h)
	for i := range initial {
		initial[i] = 1
	}
	for _, conn := range hostTestConns {
		for _, aw := range []int{16, 37, 64} {
			name := fmt.Sprintf("conn%d aw=%d", conn, aw)
			opt := Options{Engine: EngineHost, Connectivity: conn, ArrayWidth: aw}
			strips := (w + aw - 1) / aw
			runs := make([]StripRun, strips)
			aggRuns := make([]StripRun, strips)
			for s := 0; s < strips; s++ {
				x0, sw := stripSpan(w, aw, s)
				strip := copyStrip(img, x0, sw)
				res, err := Label(strip, Options{Engine: EngineHost, Connectivity: conn})
				if err != nil {
					t.Fatalf("%s: strip %d: %v", name, s, err)
				}
				runs[s] = StripRun{Labels: res.Labels, UF: res.UF}
				agg, err := Aggregate(strip, initial[x0*h:(x0+sw)*h], Sum(), Options{Engine: EngineHost, Connectivity: conn})
				if err != nil {
					t.Fatalf("%s: strip agg %d: %v", name, s, err)
				}
				aggRuns[s] = StripRun{Labels: agg.Labels, UF: agg.UF, PerPixel: agg.PerPixel}
			}

			whole, err := Label(img, Options{Engine: EngineHost, Connectivity: conn})
			if err != nil {
				t.Fatalf("%s: whole: %v", name, err)
			}
			composed, err := ComposeStrips(img, runs, nil, opt)
			if err != nil {
				t.Fatalf("%s: compose: %v", name, err)
			}
			if !composed.Labels.Equal(whole.Labels) {
				t.Fatalf("%s: composed host labels diverge from whole-image host run", name)
			}
			requireHostShape(t, name, composed)
			if local := mustRun(t, name+" local", img, nil, nil, opt); !local.Labels.Equal(composed.Labels) ||
				local.UF != composed.UF || *local.Summary != *composed.Summary {
				t.Fatalf("%s: strip-mined run (UF %+v) differs from the compose of separate strips (UF %+v)", name, local.UF, composed.UF)
			}

			wholeAgg, err := Aggregate(img, initial, Sum(), Options{Engine: EngineHost, Connectivity: conn})
			if err != nil {
				t.Fatalf("%s: whole agg: %v", name, err)
			}
			sum := Sum()
			composedAgg, err := ComposeStrips(img, aggRuns, &sum, opt)
			if err != nil {
				t.Fatalf("%s: compose agg: %v", name, err)
			}
			if !composedAgg.Labels.Equal(wholeAgg.Labels) {
				t.Fatalf("%s: composed agg labels diverge", name)
			}
			for i := range wholeAgg.PerPixel {
				if composedAgg.PerPixel[i] != wholeAgg.PerPixel[i] {
					t.Fatalf("%s: composed per-pixel[%d] = %d, want %d", name, i, composedAgg.PerPixel[i], wholeAgg.PerPixel[i])
				}
			}
			requireHostShape(t, name+" agg", composedAgg)
			if local := mustRun(t, name+" local agg", img, initial, &sum, opt); !slices.Equal(local.PerPixel, composedAgg.PerPixel) ||
				local.UF != composedAgg.UF || *local.Summary != *composedAgg.Summary {
				t.Fatalf("%s: strip-mined aggregate (UF %+v) differs from the compose of separate strips (UF %+v)", name, local.UF, composedAgg.UF)
			}
		}
	}
}

func TestHostEngineRejectsBadOptions(t *testing.T) {
	img := bitmap.Random(8, 0.5, 1)
	cases := []Options{
		{Engine: "quantum"},
		{Engine: EngineHost, UF: "made-up"},
		{Engine: EngineHost, Connectivity: 5},
		{Engine: EngineHost, ArrayWidth: -1},
		{Engine: EngineHost, Seam: "telepathic"},
	}
	for i, opt := range cases {
		if _, err := Label(img, opt); err == nil {
			t.Fatalf("case %d (%+v): expected an option error", i, opt)
		}
	}
}
