package main

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// selfTimes are per-layer metrics computed as one rung minus the rungs
// inside it, or traced minus untraced latency: they may read at or
// below zero when the difference is within the rungs' noise.
var selfTimes = map[string]bool{
	"core.pool_us": true, "server.handler_us": true, "client.roundtrip_us": true,
	"cluster.overhead_us": true, "trace.overhead_pct": true,
}

// TestSmoke runs every workload for a fraction of a second, untraced on
// seed 1 and traced on seed 2: every answer must verify, and each run
// must report exactly its catalog's metrics, positive where they must be.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload's tiers")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			seed, want := uint64(1), endToEnd
			if traced {
				seed, want = 2, perLayer
			}
			res, err := run(config{workload: w, seed: seed, seconds: 0.5, trace: traced, setups: 2, log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, res.err)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d:\n%s", w.name, traced, len(res.Metrics), len(want), out.String())
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", w.name, traced, d.name)
				case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v %s", w.name, d.name, m.Value, m.Unit)
				case m.Value <= 0 && !selfTimes[d.name]:
					t.Errorf("%s: %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestSeedsBuildDifferentCorpora: the seed is the only source of the
// frames, so two seeds must give different frames, and one seed the
// same frames every time.
func TestSeedsBuildDifferentCorpora(t *testing.T) {
	for _, w := range workloads {
		a, err := w.corpus(1, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := w.corpus(1, 0.1)
		b, _ := w.corpus(2, 0.1)
		if !bytes.Equal(a.measured[0].data, again.measured[0].data) {
			t.Errorf("%s: seed 1 built two different corpora", w.name)
		}
		if bytes.Equal(a.measured[0].data, b.measured[0].data) {
			t.Errorf("%s: seeds 1 and 2 built the same first frame", w.name)
		}
	}
}
