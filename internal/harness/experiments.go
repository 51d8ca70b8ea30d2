package harness

import (
	"fmt"
	"math"

	"slapcc/internal/baseline"
	"slapcc/internal/bitmap"
	"slapcc/internal/core"
	"slapcc/internal/lowerbound"
	"slapcc/internal/seqcc"
	"slapcc/internal/stats"
	"slapcc/internal/unionfind"
)

// suiteFamilies is the family subset most experiments sweep: best case,
// random, maximal-component, the paper's hard figures, and the
// dependence-chain and union-tree adversaries.
var suiteFamilies = []string{
	"random50", "checker", "hserpentine", "vserpentine",
	"binarymerge", "fig3a", "fig3b", "spiral",
}

// labelChecked runs Algorithm CC and verifies the labeling against the
// sequential ground truth; every experiment goes through it so that a
// timing table can never be produced from a wrong labeling.
func labelChecked(img *bitmap.Bitmap, opt core.Options) (*core.Result, error) {
	res, err := core.Label(img, opt)
	if err != nil {
		return nil, err
	}
	if err := seqcc.Check(img, res.Labels); err != nil {
		return nil, fmt.Errorf("correctness check failed: %w", err)
	}
	return res, nil
}

func familyOrDie(name string) bitmap.Family {
	f, ok := bitmap.FamilyByName(name)
	if !ok {
		panic(fmt.Sprintf("harness: unknown family %q", name))
	}
	return f
}

// fitExponent fits T = c·n^p and returns p (NaN when the fit fails).
func fitExponent(sizes []int, times []int64) float64 {
	xs := make([]float64, len(sizes))
	ys := make([]float64, len(times))
	for i := range sizes {
		xs[i] = float64(sizes[i])
		ys[i] = float64(times[i])
		if ys[i] <= 0 {
			ys[i] = 1
		}
	}
	p, _, _, err := stats.FitPower(xs, ys)
	if err != nil {
		return math.NaN()
	}
	return p
}

// e1: Lemma 1/2 — with unit-cost union–find, Algorithm CC is O(n).
func e1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "unit-cost union-find makes Algorithm CC linear",
		Claim: "Lemma 2: Algorithm CC computes the labeling in O(n) time under constant-time unions and finds",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			t := Table{ID: "E1", Title: "steps per PE (T/n) under unit-cost accounting",
				Claim:   "flat rows and fitted exponent ≈ 1",
				Columns: append([]string{"family"}, append(sizeCols(cfg.Sizes), "exponent")...)}
			for _, name := range suiteFamilies {
				fam := familyOrDie(name)
				row := []string{name}
				var times []int64
				for _, n := range cfg.Sizes {
					res, err := labelChecked(fam.Generate(n), core.Options{UnitCostUF: true})
					if err != nil {
						return nil, fmt.Errorf("%s n=%d: %w", name, n, err)
					}
					times = append(times, res.Metrics.Time)
					row = append(row, ff(float64(res.Metrics.Time)/float64(n)))
				}
				row = append(row, ff(fitExponent(cfg.Sizes, times)))
				t.AddRow(row...)
			}
			return []Table{t}, nil
		},
	}
}

// e2: §3 — Tarjan union–find gives O(n lg n) worst case.
func e2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "weighted union + path compression: O(n lg n) worst case",
		Claim: "§3: with weighted union no tree exceeds depth lg n, so Algorithm CC runs in O(n lg n)",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			t := Table{ID: "E2", Title: "total steps under real Tarjan accounting",
				Claim:   "T/(n lg n) bounded; T/n may grow on adversaries",
				Columns: []string{"family", "n", "T", "T/n", "T/(n lg n)"}}
			for _, name := range []string{"binarymerge", "vserpentine", "random50"} {
				fam := familyOrDie(name)
				var times []int64
				for _, n := range cfg.Sizes {
					res, err := labelChecked(fam.Generate(n), core.Options{UF: unionfind.KindTarjan})
					if err != nil {
						return nil, fmt.Errorf("%s n=%d: %w", name, n, err)
					}
					T := res.Metrics.Time
					times = append(times, T)
					t.AddRow(name, fi(int64(n)), fi(T),
						ff(float64(T)/float64(n)),
						ff(float64(T)/(float64(n)*stats.Log2(n))))
				}
				t.Notes = append(t.Notes,
					fmt.Sprintf("%s: fitted exponent %.2f", name, fitExponent(cfg.Sizes, times)))
			}
			return []Table{t}, nil
		},
	}
}

// e3: Theorem 3 — Blum-style union–find caps the worst single operation
// at O(lg n / lg lg n).
func e3() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "worst single union-find operation: Tarjan vs Blum-style",
		Claim: "Theorem 3: Algorithm CC runs in O(n lg n / lg lg n) with an O(lg n/lg lg n) worst-case-per-op structure",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			fam := familyOrDie("binarymerge")
			t := Table{ID: "E3", Title: "max single-op cost and totals on the union-tree adversary",
				Claim:   "maxOp(blum) tracks lg n/lg lg n, below maxOp bound lg n of the forest",
				Columns: []string{"n", "lg n", "maxOp tarjan", "k", "lgn/lglgn", "maxOp blum", "T tarjan", "T blum"}}
			for _, n := range cfg.Sizes {
				img := fam.Generate(n)
				tar, err := labelChecked(img, core.Options{UF: unionfind.KindTarjan})
				if err != nil {
					return nil, err
				}
				blum, err := labelChecked(img, core.Options{UF: unionfind.KindBlum})
				if err != nil {
					return nil, err
				}
				lg := stats.Log2(n)
				lglg := stats.Log2(int(lg))
				t.AddRow(fi(int64(n)), ff(lg),
					fi(tar.UF.MaxOpCost),
					fi(int64(unionfind.DefaultArity(n))),
					ff(lg/lglg),
					fi(blum.UF.MaxOpCost),
					fi(tar.Metrics.Time), fi(blum.Metrics.Time))
			}
			return []Table{t}, nil
		},
	}
}

// e4: §3 — "likely to approach O(n) time for all or most images".
func e4() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "near-linear behavior across image families (Tarjan)",
		Claim: "§3: the Tarjan implementation is likely to achieve near-O(n) performance on all or most images",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			t := Table{ID: "E4", Title: "T/n per family under real accounting",
				Claim:   "rows stay nearly flat (exponent close to 1) on all families",
				Columns: append([]string{"family"}, append(sizeCols(cfg.Sizes), "exponent")...)}
			for _, fam := range bitmap.Families() {
				row := []string{fam.Name}
				var times []int64
				for _, n := range cfg.Sizes {
					res, err := labelChecked(fam.Generate(n), core.Options{})
					if err != nil {
						return nil, fmt.Errorf("%s n=%d: %w", fam.Name, n, err)
					}
					times = append(times, res.Metrics.Time)
					row = append(row, ff(float64(res.Metrics.Time)/float64(n)))
				}
				row = append(row, ff(fitExponent(cfg.Sizes, times)))
				t.AddRow(row...)
			}
			return []Table{t}, nil
		},
	}
}

// e5: §3 — idle-time path compression heuristic.
func e5() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "idle-time path compression ablation",
		Claim: "§3: compressing while waiting for the left neighbor can only help",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			n := cfg.maxSize()
			t := Table{ID: "E5", Title: fmt.Sprintf("makespan with and without idle compression (n=%d)", n),
				Claim:   "T(on) ≤ T(off) on every family",
				Columns: []string{"family", "T off", "T on", "saving %"}}
			for _, name := range []string{"vserpentine", "hserpentine", "binarymerge", "fig3b", "random50"} {
				img := familyOrDie(name).Generate(n)
				off, err := labelChecked(img, core.Options{})
				if err != nil {
					return nil, err
				}
				on, err := labelChecked(img, core.Options{IdleCompression: true})
				if err != nil {
					return nil, err
				}
				if on.Metrics.Time > off.Metrics.Time {
					return nil, fmt.Errorf("%s: idle compression slowed the machine (%d > %d)",
						name, on.Metrics.Time, off.Metrics.Time)
				}
				save := 100 * (1 - float64(on.Metrics.Time)/float64(off.Metrics.Time))
				t.AddRow(name, fi(off.Metrics.Time), fi(on.Metrics.Time), ff(save))
			}
			return []Table{t}, nil
		},
	}
}

// e6: Corollary 4 — component-wise folds in the same asymptotic time.
func e6() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Corollary 4: component-wise aggregation",
		Claim: "Corollary 4: labeling components with the fold of initial labels costs the same asymptotic time",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			t := Table{ID: "E6", Title: "aggregation overhead over plain labeling (random50)",
				Claim:   "overhead ratio stays a constant < 2",
				Columns: []string{"n", "T label", "T +min", "T +sum", "min/label", "sum/label"}}
			fam := familyOrDie("random50")
			for _, n := range cfg.Sizes {
				img := fam.Generate(n)
				plain, err := labelChecked(img, core.Options{})
				if err != nil {
					return nil, err
				}
				initial := make([]int32, n*n)
				for i := range initial {
					initial[i] = int32(i % 97)
				}
				amin, err := core.Aggregate(img, initial, core.Min(), core.Options{})
				if err != nil {
					return nil, err
				}
				if err := checkAggregate(img, initial, core.Min(), amin); err != nil {
					return nil, err
				}
				asum, err := core.Aggregate(img, core.Ones(img), core.Sum(), core.Options{})
				if err != nil {
					return nil, err
				}
				if err := checkAggregate(img, core.Ones(img), core.Sum(), asum); err != nil {
					return nil, err
				}
				t.AddRow(fi(int64(n)), fi(plain.Metrics.Time), fi(amin.Metrics.Time), fi(asum.Metrics.Time),
					ff(float64(amin.Metrics.Time)/float64(plain.Metrics.Time)),
					ff(float64(asum.Metrics.Time)/float64(plain.Metrics.Time)))
			}
			return []Table{t}, nil
		},
	}
}

func checkAggregate(img *bitmap.Bitmap, initial []int32, op core.Monoid, got *core.Result) error {
	want := seqcc.AggregateRef(img, initial, op.Combine, op.Identity)
	for i := range want {
		if got.PerPixel[i] != want[i] {
			return fmt.Errorf("aggregate %s: position %d: got %d, want %d", op.Name, i, got.PerPixel[i], want[i])
		}
	}
	return nil
}

// e7: Theorem 5 — Ω(n lg n) on the 1-bit SLAP.
func e7() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "1-bit-link lower bound",
		Claim: "Theorem 5: a SLAP exchanging one bit per step needs Ω(n lg n) time for component labeling",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			t := Table{ID: "E7", Title: "even-row-runs family: entropy bound vs measured time",
				Claim:   "bound grows as (n/2)lg n - n; measured bit-SLAP time stays above it and scales as n lg n",
				Columns: []string{"n", "entropy bits", "bound steps", "T bit-SLAP", "T word-SLAP", "T_bit/(n lg n)"}}
			for _, n := range cfg.Sizes {
				d, err := lowerbound.Measure(n, cfg.Seed, core.Options{})
				if err != nil {
					return nil, err
				}
				if d.BitSteps < d.BoundSteps {
					return nil, fmt.Errorf("n=%d: measured time %d below the information bound %d", n, d.BitSteps, d.BoundSteps)
				}
				t.AddRow(fi(int64(n)), ff(d.EntropyBits), fi(d.BoundSteps), fi(d.BitSteps), fi(d.WordSteps),
					ff(float64(d.BitSteps)/(float64(n)*stats.Log2(n))))
			}
			return []Table{t}, nil
		},
	}
}

// e8: §1 — prior SLAP algorithms need Θ(n lg n) (or worse).
func e8() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Algorithm CC vs prior SLAP approaches",
		Claim: "§1: previous SLAP algorithms required Ω(n lg n) time; naive propagation is far worse on adversarial images",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			const naiveCap = 64 // naive needs Θ(n²) rounds on serpentine: keep sizes simulable
			t := Table{ID: "E8", Title: "makespan of Algorithm CC vs block-merge vs naive propagation",
				Claim: "CC wins by a growing (~lg n) factor over block-merge; naive degenerates on serpentine",
				Notes: []string{
					"CC is message-accurate (every pointer step charged); the baselines are charged per round,",
					"so absolute constants are not comparable across columns — the bm/CC growth (∝ lg n) is the claim.",
				},
				Columns: []string{"family", "n", "T CC", "T blockmerge", "bm/CC", "T naive", "naive/CC"}}
			// Extend the sweep past the configured maximum so the
			// lg n growth of bm/CC (and its crossover) is visible.
			sizes := append([]int{}, cfg.Sizes...)
			for m := cfg.maxSize() * 2; m <= cfg.maxSize()*8; m *= 2 {
				sizes = append(sizes, m)
			}
			for _, name := range []string{"random50", "hserpentine"} {
				fam := familyOrDie(name)
				for _, n := range sizes {
					img := fam.Generate(n)
					cc, err := labelChecked(img, core.Options{})
					if err != nil {
						return nil, err
					}
					bm, err := baseline.BlockMerge(img)
					if err != nil {
						return nil, err
					}
					if err := seqcc.Check(img, bm.Labels); err != nil {
						return nil, fmt.Errorf("blockmerge %s n=%d: %w", name, n, err)
					}
					naiveT, naiveRatio := "—", "—"
					if n <= naiveCap {
						nv, err := baseline.NaivePropagation(img, 0)
						if err != nil {
							return nil, err
						}
						if err := seqcc.Check(img, nv.Labels); err != nil {
							return nil, fmt.Errorf("naive %s n=%d: %w", name, n, err)
						}
						naiveT = fi(nv.Metrics.Time)
						naiveRatio = ff(float64(nv.Metrics.Time) / float64(cc.Metrics.Time))
					}
					t.AddRow(name, fi(int64(n)), fi(cc.Metrics.Time), fi(bm.Metrics.Time),
						ff(float64(bm.Metrics.Time)/float64(cc.Metrics.Time)), naiveT, naiveRatio)
				}
			}
			return []Table{t}, nil
		},
	}
}

// e9: Figure 3 — the paper's hard images, measured exactly.
func e9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "the paper's Figure 3 images",
		Claim: "Figure 3: the images illustrating why left-component labeling is hard are handled in near-linear time",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			t := Table{ID: "E9", Title: "exact step counts on Fig. 3(a)/(b) textures",
				Claim:   "T/n flat in n for both",
				Columns: []string{"figure", "n", "T", "T/n", "records sent", "peak queue", "components"}}
			for _, fig := range []struct {
				name string
				gen  func(int) *bitmap.Bitmap
			}{{"3a", bitmap.Fig3a}, {"3b", bitmap.Fig3b}} {
				for _, n := range cfg.Sizes {
					img := fig.gen(n)
					res, err := labelChecked(img, core.Options{})
					if err != nil {
						return nil, fmt.Errorf("fig%s n=%d: %w", fig.name, n, err)
					}
					t.AddRow(fig.name, fi(int64(n)), fi(res.Metrics.Time),
						ff(float64(res.Metrics.Time)/float64(n)),
						fi(res.Metrics.Sends), fi(int64(res.Metrics.MaxQueue)),
						fi(int64(res.Labels.ComponentCount())))
				}
			}
			return []Table{t}, nil
		},
	}
}

// e10: §3 — union–find variant ablation (Tarjan & van Leeuwen variants).
func e10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "union-find variant ablation",
		Claim: "§3: union by rank and one-pass compression (halving/splitting) are sound alternatives; naive linking is not",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			n := cfg.maxSize()
			t := Table{ID: "E10", Title: fmt.Sprintf("total steps by union-find variant (n=%d, Σ over 3 families)", n),
				Claim:   "compressing variants cluster together; nocompress and naivelink pay on adversaries",
				Columns: []string{"variant", "T total", "max op", "mean op"}}
			imgs := []*bitmap.Bitmap{
				familyOrDie("random50").Generate(n),
				familyOrDie("binarymerge").Generate(n),
				familyOrDie("vserpentine").Generate(n),
			}
			for _, kind := range unionfind.Kinds() {
				var total, maxOp int64
				var meanSum float64
				for _, img := range imgs {
					res, err := labelChecked(img, core.Options{UF: kind})
					if err != nil {
						return nil, fmt.Errorf("%s: %w", kind, err)
					}
					total += res.Metrics.Time
					if res.UF.MaxOpCost > maxOp {
						maxOp = res.UF.MaxOpCost
					}
					meanSum += res.UF.MeanOpCost
				}
				t.AddRow(string(kind), fi(total), fi(maxOp), f3(meanSum/float64(len(imgs))))
			}
			return []Table{t}, nil
		},
	}
}

// e11: §3 — speculative forwarding of dequeued unions.
func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "speculative union forwarding ablation",
		Claim: "§3: enqueue a pair of finds for the next processor as soon as two pixels are found adjacent to 1-pixels in the next column",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			n := cfg.maxSize()
			t := Table{ID: "E11", Title: fmt.Sprintf("makespan with and without speculation (n=%d)", n),
				Claim:   "speculation shortens the critical path on chain-heavy images; wasted sends stay a small fraction",
				Columns: []string{"family", "T off", "T on", "saving %", "spec sends", "wasted"}}
			for _, name := range []string{"hserpentine", "vserpentine", "binarymerge", "fig3b", "random50", "full"} {
				img := familyOrDie(name).Generate(n)
				off, err := labelChecked(img, core.Options{})
				if err != nil {
					return nil, err
				}
				on, err := labelChecked(img, core.Options{Speculate: true})
				if err != nil {
					return nil, err
				}
				save := 100 * (1 - float64(on.Metrics.Time)/float64(off.Metrics.Time))
				t.AddRow(name, fi(off.Metrics.Time), fi(on.Metrics.Time), ff(save),
					fi(on.Speculation.Sends), fi(on.Speculation.Wasted))
			}
			return []Table{t}, nil
		},
	}
}

// e13: strip-mined composition models — how the composed time of a
// fixed-width run moves with the seam-relabel model (host-sequential vs
// distributed broadcast+rewrite) and the strip schedule (sequential vs
// pipelined input overlap). Labeling is bit-identical under every
// combination (labelChecked holds it to the ground truth); only the
// charged schedule differs.
func e13() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "seam-relabel and strip-schedule composition models",
		Claim: "the distributed relabel turns the host-sequential rewrite into array phases (a win once rewrites dominate), and the pipelined schedule hides all but the first strip's input phase",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			n := cfg.maxSize()
			t := Table{ID: "E13", Title: fmt.Sprintf("composed time by seam/schedule model (n=%d)", n),
				Claim:   "T(host+seq) ≥ T(dist+seq) on rewrite-heavy images; T(·+pipe) shaves Σ later strips' input makespans; seam share counts all seam phases",
				Columns: []string{"family", "array", "T host+seq", "T dist+seq", "T dist+pipe", "pipe saves %", "seam %"}}
			for _, name := range []string{"random50", "checker", "hserpentine"} {
				img := familyOrDie(name).Generate(n)
				for _, div := range []int{4, 16} {
					aw := n / div
					if aw < 1 {
						break
					}
					hostSeq, err := labelChecked(img, core.Options{ArrayWidth: aw, Seam: core.SeamHost})
					if err != nil {
						return nil, fmt.Errorf("%s aw=%d host+seq: %w", name, aw, err)
					}
					distSeq, err := labelChecked(img, core.Options{ArrayWidth: aw})
					if err != nil {
						return nil, fmt.Errorf("%s aw=%d dist+seq: %w", name, aw, err)
					}
					distPipe, err := labelChecked(img, core.Options{ArrayWidth: aw, Schedule: core.SchedulePipelined})
					if err != nil {
						return nil, fmt.Errorf("%s aw=%d dist+pipe: %w", name, aw, err)
					}
					saving := 100 * (1 - float64(distPipe.Metrics.Time)/float64(distSeq.Metrics.Time))
					t.AddRow(name, fi(int64(aw)),
						fi(hostSeq.Metrics.Time), fi(distSeq.Metrics.Time), fi(distPipe.Metrics.Time),
						ff(saving),
						ff(100*float64(core.SeamTime(distSeq.Metrics))/float64(distSeq.Metrics.Time)))
				}
			}
			t.Notes = append(t.Notes,
				"labels are bit-identical across every model combination (each run is ground-truth checked)",
				"host+seq is the original PR 3 model, pinned unchanged by TestGoldenLargeStepCounts")
			return []Table{t}, nil
		},
	}
}

func sizeCols(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = fmt.Sprintf("n=%d", n)
	}
	return out
}

// e12: strip-mined labeling — an image wider than the physical array is
// labeled in vertical strips plus a host-side seam merge (the tiler's
// sequential schedule model; not a paper claim but the fixed-PE-count
// deployment of Algorithm CC).
func e12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "strip-mined labeling on a fixed-width array",
		Claim: "labeling composes across strips: total time stays near the whole-array run and the seam-merge phase is a lower-order term until strips get very narrow",
		Run: func(cfg Config) ([]Table, error) {
			if err := cfg.validate(); err != nil {
				return nil, err
			}
			n := cfg.maxSize()
			t := Table{ID: "E12", Title: fmt.Sprintf("composed time by array width (n=%d)", n),
				Claim:   "T composed / T whole stays near 1; seam share grows as strips narrow",
				Columns: []string{"family", "array", "strips", "T composed", "vs whole", "seam %"}}
			for _, name := range []string{"random50", "checker", "hserpentine"} {
				img := familyOrDie(name).Generate(n)
				whole, err := labelChecked(img, core.Options{})
				if err != nil {
					return nil, err
				}
				t.AddRow(name, fi(int64(n)), "1", fi(whole.Metrics.Time), ff(1), ff(0))
				for div := 2; div <= 16; div *= 2 {
					aw := n / div
					if aw < 1 {
						break
					}
					res, err := labelChecked(img, core.Options{ArrayWidth: aw})
					if err != nil {
						return nil, fmt.Errorf("%s aw=%d: %w", name, aw, err)
					}
					strips := (n + aw - 1) / aw
					t.AddRow(name, fi(int64(aw)), fi(int64(strips)), fi(res.Metrics.Time),
						ff(float64(res.Metrics.Time)/float64(whole.Metrics.Time)),
						ff(100*float64(core.SeamTime(res.Metrics))/float64(res.Metrics.Time)))
				}
			}
			return []Table{t}, nil
		},
	}
}
