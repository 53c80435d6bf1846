package mc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"stochsynth/internal/rng"
)

// distTestObserve draws a trial's observation from its reseeded stream,
// exercising every summary component: a continuous value, its integer
// floor (with out-of-range spill), a race outcome (sometimes None), and a
// step count.
func distTestObserve(gen *rng.PCG) Obs {
	v := gen.Normal(10, 6)
	outcome := None
	if k := gen.Intn(4); k < 3 {
		outcome = k
	}
	return Obs{Value: v, IValue: int64(math.Floor(v)), Outcome: outcome, Steps: int64(gen.Intn(500))}
}

var distTestHist = HistConfig{Lo: 0, Width: 5, Bins: 4} // narrow: forces under/over tallies

// TestRunDistRangeWithPartitionsMergeBitForBit: trial i draws from the
// stream (seed, i) whatever range computes it, so the summaries of any
// random partition of [0, n) — empty and single-trial ranges included —
// must MergeDist, in any order, to a bundle whose encoding is
// byte-identical to the unsharded run's. This is the collector contract
// sharded distribution sweeps (internal/shard) are built on.
func TestRunDistRangeWithPartitionsMergeBitForBit(t *testing.T) {
	cfg := Config{Seed: 23, Outcomes: 3, Workers: 3}
	newEngine := func(gen *rng.PCG) *rng.PCG { return gen }

	const n = 257
	whole := RunDistRangeWith(cfg, distTestHist, 0, n, newEngine, distTestObserve)
	if err := whole.Validate(cfg.Outcomes); err != nil {
		t.Fatal(err)
	}
	if whole.N() != n {
		t.Fatalf("N = %d", whole.N())
	}
	if whole.Hist.Under == 0 || whole.Hist.Over == 0 {
		t.Fatalf("test histogram too wide to exercise spill: %+v", whole.Hist)
	}
	wantEnc, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}

	gen := rng.New(77)
	for rep := 0; rep < 30; rep++ {
		cuts := []int{0, n}
		for c := gen.Intn(10); c > 0; c-- {
			cuts = append(cuts, gen.Intn(n+1))
		}
		sortInts(cuts)
		var parts []DistSummary
		for i := 1; i < len(cuts); i++ {
			parts = append(parts, RunDistRangeWith(cfg, distTestHist, cuts[i-1], cuts[i], newEngine, distTestObserve))
		}
		gen.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })

		var merged DistSummary
		for _, p := range parts {
			var err error
			if merged, err = MergeDist(merged, p); err != nil {
				t.Fatalf("rep %d: merge: %v", rep, err)
			}
		}
		enc, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, wantEnc) {
			t.Fatalf("rep %d: merged encoding differs from unsharded run", rep)
		}
	}
}

func TestRunDistRangeWithEmptyRange(t *testing.T) {
	cfg := Config{Seed: 1, Outcomes: 3}
	d := RunDistRangeWith(cfg, distTestHist, 5, 5, func(gen *rng.PCG) *rng.PCG { return gen }, distTestObserve)
	if !d.Empty() {
		t.Fatalf("empty range summary = %+v", d)
	}
	if err := d.Validate(3); err != nil {
		t.Fatal(err)
	}
	// The empty summary is a merge identity.
	other := RunDistRangeWith(cfg, distTestHist, 0, 3, func(gen *rng.PCG) *rng.PCG { return gen }, distTestObserve)
	m, err := MergeDist(d, other)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 {
		t.Fatalf("identity merge N = %d", m.N())
	}
}

func TestRunDistPanicsOnBadInputs(t *testing.T) {
	engine := func(gen *rng.PCG) *rng.PCG { return gen }
	cases := map[string]func(){
		"zero outcomes": func() {
			RunDistRangeWith(Config{}, distTestHist, 0, 1, engine, distTestObserve)
		},
		"bad histogram": func() {
			RunDistRangeWith(Config{Outcomes: 1}, HistConfig{}, 0, 1, engine, distTestObserve)
		},
		"inverted range": func() {
			RunDistRangeWith(Config{Outcomes: 1}, distTestHist, 4, 2, engine, distTestObserve)
		},
		"outcome out of range": func() {
			RunDistRangeWith(Config{Outcomes: 1}, distTestHist, 0, 4, engine,
				func(gen *rng.PCG) Obs { return Obs{Outcome: 1} })
		},
	}
	for name, run := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			run()
		}()
	}
}

func TestMergeDistRejectsOverlap(t *testing.T) {
	cfg := Config{Seed: 9, Outcomes: 3}
	engine := func(gen *rng.PCG) *rng.PCG { return gen }
	a := RunDistRangeWith(cfg, distTestHist, 0, 4, engine, distTestObserve)
	b := RunDistRangeWith(cfg, distTestHist, 2, 6, engine, distTestObserve)
	if _, err := MergeDist(a, b); err == nil {
		t.Fatal("overlapping merge did not error")
	}
	if _, err := MergeDist(a, a); err == nil {
		t.Fatal("duplicate merge did not error")
	}
}

func TestDistValidateCatchesComponentMismatch(t *testing.T) {
	cfg := Config{Seed: 3, Outcomes: 3}
	engine := func(gen *rng.PCG) *rng.PCG { return gen }
	good := RunDistRangeWith(cfg, distTestHist, 0, 8, engine, distTestObserve)
	if err := good.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(4); err == nil {
		t.Error("wrong first-passage arity accepted")
	}
	tally := good
	tally.Hist.N++
	if err := tally.Validate(3); err == nil {
		t.Error("histogram/moments trial-count mismatch accepted")
	}
	skew := good
	skew.Sketch = NewSketch(1, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err := skew.Validate(3); err == nil {
		t.Error("component coverage mismatch accepted")
	}
}
