package benchfmt

import (
	"fmt"
	"io"
	"math"
	"sort"

	"slapcc/internal/stats"
)

// DiffOptions tunes the comparison.
type DiffOptions struct {
	// Alpha is the significance level for the Mann–Whitney test when
	// both sides carry ≥ 3 samples (default 0.05).
	Alpha float64
	// Threshold is the relative worsening a gated metric must exceed
	// before a *sampled* comparison counts as a regression — the
	// practical-significance floor on top of statistical significance,
	// so a real-but-tiny slowdown doesn't fail a build (default 0.10).
	Threshold float64
	// PointThreshold is the worsening bound for point-value
	// comparisons (pre-schema trajectory points carry no samples, so there
	// is no distribution to test against). It is deliberately loose
	// (default 0.40): trajectory points were measured on different
	// runners with drifting protocols, and the gate exists to catch
	// collapses — a host engine that stops clearing its 10× win — not
	// 15% runner-to-runner drift.
	PointThreshold float64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.10
	}
	if o.PointThreshold <= 0 {
		o.PointThreshold = 0.40
	}
	return o
}

// Delta is one metric's comparison.
type Delta struct {
	Name     string
	Unit     string
	Better   Direction
	OldValue float64
	NewValue float64
	// Ratio is NewValue/OldValue (NaN when OldValue is 0).
	Ratio float64
	// PValue is the Mann–Whitney p-value when both sides carried
	// samples, else NaN.
	PValue float64
	// Sampled says the significance test ran (vs the point heuristic).
	Sampled bool
	// Regression is true when the metric got significantly worse:
	// beyond Alpha and Threshold for sampled metrics, beyond
	// PointThreshold for point comparisons. Informational metrics are
	// never regressions.
	Regression bool
	// Improvement mirrors Regression in the good direction.
	Improvement bool
}

// Diff is the comparison of two BENCH files over their shared metrics.
type Diff struct {
	OldPR, NewPR int
	Deltas       []Delta
	// OnlyOld/OnlyNew list metric names present on one side only —
	// coverage drift the log should show even though it cannot gate.
	OnlyOld, OnlyNew []string
}

// Regressions returns the gated metrics that got significantly worse.
func (d *Diff) Regressions() []Delta {
	var out []Delta
	for _, del := range d.Deltas {
		if del.Regression {
			out = append(out, del)
		}
	}
	return out
}

// Compare joins two BENCH files by metric name and classifies each
// shared metric. The direction recorded on the *new* file wins when
// the two disagree (the current run defines the contract; older
// trajectory points follow it).
func Compare(old, new *File, opt DiffOptions) *Diff {
	opt = opt.withDefaults()
	d := &Diff{OldPR: old.PR, NewPR: new.PR}
	oldNames := make(map[string]*Result, len(old.Results))
	for i := range old.Results {
		oldNames[old.Results[i].Name] = &old.Results[i]
	}
	newNames := make(map[string]bool, len(new.Results))
	for i := range new.Results {
		nr := &new.Results[i]
		newNames[nr.Name] = true
		or, ok := oldNames[nr.Name]
		if !ok {
			d.OnlyNew = append(d.OnlyNew, nr.Name)
			continue
		}
		d.Deltas = append(d.Deltas, compareOne(or, nr, opt))
	}
	for name := range oldNames {
		if !newNames[name] {
			d.OnlyOld = append(d.OnlyOld, name)
		}
	}
	sort.Slice(d.Deltas, func(i, j int) bool { return d.Deltas[i].Name < d.Deltas[j].Name })
	sort.Strings(d.OnlyOld)
	sort.Strings(d.OnlyNew)
	return d
}

func compareOne(or, nr *Result, opt DiffOptions) Delta {
	del := Delta{
		Name: nr.Name, Unit: nr.Unit, Better: nr.Better,
		OldValue: or.Mean(), NewValue: nr.Mean(),
		PValue: math.NaN(),
	}
	if del.OldValue != 0 {
		del.Ratio = del.NewValue / del.OldValue
	} else {
		del.Ratio = math.NaN()
	}
	if del.Better == Informational {
		return del
	}
	// worse > 0 means the metric moved against its direction by that
	// relative amount.
	worse := (del.OldValue - del.NewValue) / math.Abs(del.OldValue)
	if del.Better == LowerIsBetter {
		worse = -worse
	}
	if len(or.Samples) >= 3 && len(nr.Samples) >= 3 {
		del.Sampled = true
		del.PValue = stats.MannWhitneyU(or.Samples, nr.Samples)
		if del.PValue < opt.Alpha {
			if worse > opt.Threshold {
				del.Regression = true
			} else if worse < -opt.Threshold {
				del.Improvement = true
			}
		}
		// Mann–Whitney cannot reach α=0.05 on tiny sample counts (3v3
		// bottoms out near p=0.1), so a sampled collapse past the loose
		// point threshold gates regardless of p — the gate must fire on
		// a 2× slowdown even at the default -count.
		if worse > opt.PointThreshold {
			del.Regression = true
		} else if worse < -opt.PointThreshold && del.PValue < opt.Alpha {
			del.Improvement = true
		}
		return del
	}
	// Point comparison: no distribution, so only the loose threshold.
	if worse > opt.PointThreshold {
		del.Regression = true
	} else if worse < -opt.PointThreshold {
		del.Improvement = true
	}
	return del
}

// Render writes the diff as an aligned benchstat-style table.
func (d *Diff) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "diff: PR %d -> PR %d (%d shared metrics)\n", d.OldPR, d.NewPR, len(d.Deltas)); err != nil {
		return err
	}
	wName := len("metric")
	for _, del := range d.Deltas {
		if len(del.Name) > wName {
			wName = len(del.Name)
		}
	}
	fmt.Fprintf(w, "  %-*s  %12s  %12s  %8s  %8s  %s\n", wName, "metric", "old", "new", "delta", "p", "verdict")
	for _, del := range d.Deltas {
		verdict := "~"
		switch {
		case del.Regression:
			verdict = "REGRESSION"
		case del.Improvement:
			verdict = "improved"
		case del.Better == Informational:
			verdict = "(info)"
		}
		p := "-"
		if del.Sampled {
			p = fmt.Sprintf("%.3f", del.PValue)
		}
		delta := "-"
		if !math.IsNaN(del.Ratio) {
			delta = fmt.Sprintf("%+.1f%%", (del.Ratio-1)*100)
		}
		fmt.Fprintf(w, "  %-*s  %12.4g  %12.4g  %8s  %8s  %s\n",
			wName, del.Name, del.OldValue, del.NewValue, delta, p, verdict)
	}
	for _, name := range d.OnlyOld {
		fmt.Fprintf(w, "  only in old: %s\n", name)
	}
	for _, name := range d.OnlyNew {
		fmt.Fprintf(w, "  only in new: %s\n", name)
	}
	return nil
}
