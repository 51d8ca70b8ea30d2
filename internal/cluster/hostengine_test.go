package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"slapcc/api"
	"slapcc/internal/core"
)

// TestClusterHostEngine serves cost=host end to end through slapfront,
// whole and strip-mined: strip jobs carry cost=host to the backends,
// and the composed answer is byte-for-byte a local cost=host run's. On
// top of the byte identity, which clusterCases already holds, it pins
// the shape of a host answer over the wire: no simulated metrics (time
// steps, phases, sends) and a host union–find report.
func TestClusterHostEngine(t *testing.T) {
	ref := newSlapd(t)
	b1, b2 := newSlapd(t), newSlapd(t)
	_, front := newFront(t, []string{b1.URL, b2.URL}, nil)
	img := testImage(t)

	// same posts the request to the local slapd and to the coordinator,
	// requires byte-identical 200 answers, and returns the answer.
	same := func(t *testing.T, path string, p api.Params) []byte {
		t.Helper()
		wantCode, want := post(t, ref.URL, path, p, img)
		gotCode, got := post(t, front.URL, path, p, img)
		if wantCode != http.StatusOK || gotCode != http.StatusOK {
			t.Fatalf("%s: status local %d cluster %d (%s)", path, wantCode, gotCode, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: cluster response diverges from local:\nlocal:   %s\ncluster: %s", path, want, got)
		}
		return got
	}
	hostShape := func(t *testing.T, m api.Metrics, uf api.UFReport) {
		t.Helper()
		if m.TimeSteps != 0 || len(m.Phases) != 0 || m.Sends != 0 {
			t.Fatalf("host run leaked simulated metrics: %+v", m)
		}
		if uf.Kind != string(core.HostUFKind) || uf.Finds == 0 {
			t.Fatalf("host UF report %+v", uf)
		}
	}

	t.Run("whole image byte-identical", func(t *testing.T) {
		var lr api.LabelResponse
		if err := json.Unmarshal(same(t, api.PathLabel, api.Params{Cost: "host", WantLabels: true}), &lr); err != nil {
			t.Fatal(err)
		}
		hostShape(t, lr.Metrics, lr.UF)
		var ar api.AggregateResponse
		if err := json.Unmarshal(same(t, api.PathAggregate, api.Params{Cost: "host", Op: "sum", WantLabels: true}), &ar); err != nil {
			t.Fatal(err)
		}
		hostShape(t, ar.Metrics, ar.UF)
	})

	t.Run("strip-mined label", func(t *testing.T) {
		var lr api.LabelResponse
		if err := json.Unmarshal(same(t, api.PathLabel, api.Params{Cost: "host", ArrayWidth: 8, WantLabels: true}), &lr); err != nil {
			t.Fatal(err)
		}
		if len(lr.Labels) != img.W()*img.H() || lr.Components == 0 {
			t.Fatalf("strip-mined host labels: %d labels, %d components", len(lr.Labels), lr.Components)
		}
		hostShape(t, lr.Metrics, lr.UF)
	})

	t.Run("strip-mined aggregate", func(t *testing.T) {
		p := api.Params{Cost: "host", ArrayWidth: 8, Op: "min", Initial: "positions", WantLabels: true}
		var ar api.AggregateResponse
		if err := json.Unmarshal(same(t, api.PathAggregate, p), &ar); err != nil {
			t.Fatal(err)
		}
		if len(ar.PerPixel) != img.W()*img.H() {
			t.Fatalf("strip-mined host aggregate: %d folds", len(ar.PerPixel))
		}
		hostShape(t, ar.Metrics, ar.UF)
	})
}
