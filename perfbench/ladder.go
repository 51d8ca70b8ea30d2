package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"slapcc/api"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/hostcc"
	"slapcc/internal/imageio"
	"slapcc/internal/server"
)

// rung is one step of the ladder: a public call of one layer, made for
// frame i of the ladder corpus.
type rung struct {
	name string
	call func(i int) error
}

// rungCost is a rung's cost per frame.
type rungCost struct{ us, allocs float64 }

// runLadder prices every ladder frame at each layer in turn, on one
// goroutine over warm state: decode, the host engine, a warm core
// Labeler, a LabelerPool, JSON encode and decode, slapd's handler with
// no socket, loopback HTTP to one slapd, and slapfront over two slapds.
// A first pass checks every answer against the reference; the timed
// passes repeat until budget is spent (at least three, at most 25).
// The returned metrics are the per-layer self times of perLayer.
func runLadder(reqs []*request, budget time.Duration) (map[string]float64, error) {
	st, err := bootStack(true)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	direct := loadClient(st.all[1].URL, 1)
	viaFront := loadClient(st.target.URL, 1)
	handler := server.New(server.Config{Logf: func(string, ...any) {}})
	pool := core.NewLabelerPool(core.Options{}, 1)
	host := hostcc.NewLabeler()
	ctx := context.Background()

	n := len(reqs)
	formats := make([]imageio.Format, n)
	opts := make([]core.Options, n)
	imgs := make([]*bitmap.Bitmap, n)
	results := make([]*core.Result, n)
	bodies := make([][]byte, n)
	labelers := map[core.Options]*core.Labeler{}
	for i, r := range reqs {
		if formats[i], err = imageio.ParseFormat(r.params.Format); err != nil {
			return nil, err
		}
		if imgs[i], err = imageio.DecodeBytes(r.data, formats[i], imageio.Limits{}); err != nil {
			return nil, err
		}
		if opts[i], err = server.OptionsFromParams(core.Options{}, r.params, r.ref.w, r.ref.h); err != nil {
			return nil, err
		}
		// As slapd sets it: summary-only requests let the engine skip the labels.
		opts[i].SkipLabels = !r.params.WantLabels
		if labelers[opts[i]] == nil {
			labelers[opts[i]] = core.NewLabeler(opts[i])
		}
	}

	var runs, steps, ufOps, respBytes float64
	var buf bytes.Buffer
	checking := true
	check := func(i int, resp *api.LabelResponse) error {
		if !checking {
			return nil
		}
		if err := reqs[i].ref.check(resp, reqs[i].params); err != nil {
			return fmt.Errorf("ladder frame %d: %w", i, err)
		}
		return nil
	}
	rungs := []rung{
		{"decode", func(i int) error {
			_, err := imageio.DecodeBytes(reqs[i].data, formats[i], imageio.Limits{})
			return err
		}},
		{"hostcc", func(i int) error {
			var s hostcc.Stats
			if reqs[i].params.WantLabels {
				_, s = host.Label(imgs[i], bitmap.Conn4)
			} else {
				s = host.Summary(imgs[i], bitmap.Conn4)
			}
			if checking {
				runs += float64(s.Runs)
				ref := reqs[i].ref
				if s.Components != ref.components || s.Foreground != ref.foreground || s.Largest != ref.largest {
					return fmt.Errorf("ladder frame %d: hostcc summary differs from the reference", i)
				}
			}
			return nil
		}},
		{"core", func(i int) error {
			res, err := labelers[opts[i]].Label(imgs[i])
			if err != nil || !checking {
				return err
			}
			results[i] = res
			return check(i, server.ToLabelResponse(res, reqs[i].params.WantLabels))
		}},
		{"pool", func(i int) error {
			res, err := pool.LabelWith(imgs[i], opts[i])
			if err != nil {
				return err
			}
			return check(i, server.ToLabelResponse(res, reqs[i].params.WantLabels))
		}},
		{"encode", func(i int) error {
			// As slapd encodes its answers (see server.writeTraced).
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			err := enc.Encode(server.ToLabelResponse(results[i], reqs[i].params.WantLabels))
			if checking {
				bodies[i] = bytes.Clone(buf.Bytes())
			}
			return err
		}},
		{"apidecode", func(i int) error {
			var resp api.LabelResponse
			if err := json.Unmarshal(bodies[i], &resp); err != nil {
				return err
			}
			if checking {
				respBytes += float64(len(bodies[i]))
			}
			return check(i, &resp)
		}},
		{"handler", func(i int) error {
			r := reqs[i]
			req := httptest.NewRequest(http.MethodPost, api.PathLabel+"?"+r.params.Query().Encode(), bytes.NewReader(r.data))
			req.Header.Set("Content-Type", r.ctype)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ladder frame %d: handler answered %d: %s", i, rec.Code, rec.Body.String())
			}
			if !checking {
				return nil
			}
			var resp api.LabelResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return err
			}
			return check(i, &resp)
		}},
		{"client", func(i int) error {
			resp, err := direct.LabelData(ctx, reqs[i].data, reqs[i].ctype, reqs[i].params)
			if err != nil {
				return err
			}
			return check(i, resp)
		}},
		{"front", func(i int) error {
			resp, err := viaFront.LabelData(ctx, reqs[i].data, reqs[i].ctype, reqs[i].params)
			if err != nil {
				return err
			}
			return check(i, resp)
		}},
	}

	// The checking pass: every rung once per frame, every answer checked,
	// plus the simulator's counts for the paper-contract metrics (the
	// host engine charges no steps, so host frames are simulated here).
	for _, rg := range rungs {
		for i := range reqs {
			if err := rg.call(i); err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", rg.name, err)
			}
		}
	}
	for i := range reqs {
		opt := opts[i]
		opt.Engine = core.EngineSim
		res, err := core.Label(imgs[i], opt)
		if err != nil {
			return nil, err
		}
		steps += float64(res.Metrics.Time)
		ufOps += float64(res.UF.Finds + res.UF.Unions)
	}
	checking = false

	// Timed passes: each frame goes through every rung back to back, so
	// a rung and the rungs inside it see the same warm caches; each
	// (rung, frame) keeps its fastest pass, and allocations are counted
	// on the first.
	best := make([][]time.Duration, len(rungs))
	allocs := make([]float64, len(rungs))
	for k := range best {
		best[k] = make([]time.Duration, n)
	}
	start := time.Now()
	for pass := 0; pass < 25 && (pass < 3 || time.Since(start) < budget); pass++ {
		for i := range reqs {
			for k, rg := range rungs {
				var m0, m1 runtime.MemStats
				if pass == 0 {
					runtime.ReadMemStats(&m0)
				}
				t0 := time.Now()
				if err := rg.call(i); err != nil {
					return nil, fmt.Errorf("ladder rung %s: %w", rg.name, err)
				}
				d := time.Since(t0)
				if pass == 0 {
					runtime.ReadMemStats(&m1)
					allocs[k] += float64(m1.Mallocs - m0.Mallocs)
				}
				if pass == 0 || d < best[k][i] {
					best[k][i] = d
				}
			}
		}
	}
	c := map[string]rungCost{}
	for k, rg := range rungs {
		var sum time.Duration
		for _, d := range best[k] {
			sum += d
		}
		c[rg.name] = rungCost{us: float64(sum) / float64(time.Microsecond) / float64(n), allocs: allocs[k] / float64(n)}
	}
	nf := float64(n)
	return map[string]float64{
		"imageio.decode_us":     c["decode"].us,
		"imageio.decode_allocs": c["decode"].allocs,
		"hostcc.label_us":       c["hostcc"].us,
		"hostcc.runs":           runs / nf,
		"core.label_us":         c["core"].us,
		"core.label_allocs":     c["core"].allocs,
		"core.pool_us":          c["pool"].us - c["core"].us,
		"slap.steps":            steps / nf,
		"unionfind.ops":         ufOps / nf,
		"api.encode_us":         c["encode"].us,
		"api.response_bytes":    respBytes / nf,
		"api.decode_us":         c["apidecode"].us,
		"server.handler_us":     c["handler"].us - c["decode"].us - c["pool"].us - c["encode"].us,
		"server.handler_allocs": c["handler"].allocs - c["decode"].allocs - c["pool"].allocs - c["encode"].allocs,
		"client.roundtrip_us":   c["client"].us - c["handler"].us - c["apidecode"].us,
		"cluster.overhead_us":   c["front"].us - c["client"].us,
	}, nil
}
