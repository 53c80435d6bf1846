package shard

import (
	"math"
	"testing"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
)

// Test sweeps over pure-rng trials: the "engine" is just the worker's
// generator, so trials are cheap functions of the trial stream — exactly
// what the exactness protocol is about.

// testClassify maps the trial stream to an outcome index in [0, outcomes),
// with a ~5% None rate, modulated by the parameter.
func testClassify(param float64, outcomes int, gen *rng.PCG) int {
	if gen.Float64() < 0.05 {
		return mc.None
	}
	u := gen.Float64() * (1 + param/10)
	o := int(u * float64(outcomes))
	if o >= outcomes {
		o = outcomes - 1
	}
	return o
}

// testMeasure maps the trial stream to a numeric measurement.
func testMeasure(param float64, gen *rng.PCG) float64 {
	return param + gen.Normal(0, 1+param/5)
}

const (
	testTallySweep   = "test/tally"
	testNumericSweep = "test/numeric"
	testDistSweep    = "test/dist"
	testOutcomes     = 3
)

// testHist is the histogram layout of the test dist sweep — deliberately
// narrow so under/overflow tallies are exercised.
var testHist = mc.HistConfig{Lo: -4, Width: 2, Bins: 8}

// testObserve maps the trial stream to a full distribution observation:
// an outcome (drawn exactly like testClassify), a continuous measurement,
// and a synthetic step count.
func testObserve(param float64, gen *rng.PCG) mc.Obs {
	o := testClassify(param, testOutcomes, gen)
	v := testMeasure(param, gen)
	return mc.Obs{
		Value:   v,
		IValue:  int64(math.Floor(v)),
		Outcome: o,
		Steps:   int64(gen.Intn(1000)),
	}
}

// testRegistry registers the tally and numeric test sweeps.
func testRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(testTallySweep, Factory{
		Outcomes: testOutcomes,
		Outcome: func(param float64) (OutcomeTrial, error) {
			return OutcomeTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Classify:  func(eng any) int { return testClassify(param, testOutcomes, eng.(*rng.PCG)) },
			}, nil
		},
	})
	reg.Register(testNumericSweep, Factory{
		Numeric: true,
		NumericF: func(param float64) (NumericTrial, error) {
			return NumericTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Measure:   func(eng any) float64 { return testMeasure(param, eng.(*rng.PCG)) },
			}, nil
		},
	})
	reg.Register(testDistSweep, Factory{
		Outcomes: testOutcomes,
		Dist:     true,
		Hist:     testHist,
		DistF: func(param float64) (DistTrial, error) {
			return DistTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Observe:   func(eng any) mc.Obs { return testObserve(param, eng.(*rng.PCG)) },
			}, nil
		},
	})
	return reg
}

// singleProcessDist runs the reference unsharded distribution sweep with
// mc.RunDistRangeWith over the whole trial range, point seeds matching
// the sharded path.
func singleProcessDist(spec SweepSpec) []mc.DistSummary {
	out := make([]mc.DistSummary, len(spec.Grid))
	for i, param := range spec.Grid {
		cfg := mc.Config{Trials: spec.Trials, Outcomes: spec.Outcomes, Seed: mc.PointSeed(spec.Seed, i)}
		out[i] = mc.RunDistRangeWith(cfg, testHist, 0, spec.Trials,
			func(gen *rng.PCG) *rng.PCG { return gen },
			func(gen *rng.PCG) mc.Obs { return testObserve(param, gen) })
	}
	return out
}

// singleProcessTally runs the reference single-process sweep with
// mc.Sweep (fresh-generator path, no sharding machinery at all).
func singleProcessTally(spec SweepSpec) []mc.SweepPoint {
	cfg := mc.Config{Trials: spec.Trials, Outcomes: spec.Outcomes, Seed: spec.Seed}
	return mc.Sweep(cfg, spec.Grid, func(param float64) mc.Trial {
		return func(gen *rng.PCG) int { return testClassify(param, spec.Outcomes, gen) }
	})
}

func singleProcessNumeric(spec SweepSpec) []mc.NumericSweepPoint {
	cfg := mc.Config{Trials: spec.Trials, Seed: spec.Seed}
	return mc.SweepNumeric(cfg, spec.Grid, func(param float64) mc.NumericTrial {
		return func(gen *rng.PCG) float64 { return testMeasure(param, gen) }
	})
}

// randomPartition cuts [0, trials) into contiguous shards, deliberately
// including empty and single-trial shards.
func randomPartition(gen *rng.PCG, spec SweepSpec) []ShardSpec {
	cuts := []int{0, spec.Trials}
	for c := gen.Intn(7); c > 0; c-- {
		cuts = append(cuts, gen.Intn(spec.Trials+1))
	}
	if spec.Trials > 1 && gen.Float64() < 0.5 {
		// Force a single-trial shard and (often) an empty one.
		k := gen.Intn(spec.Trials)
		cuts = append(cuts, k, k+1, k+1)
	}
	sortCuts(cuts)
	var shards []ShardSpec
	for i := 1; i < len(cuts); i++ {
		shards = append(shards, spec.Shard(cuts[i-1], cuts[i]))
	}
	gen.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
	return shards
}

func sortCuts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func runShards(t *testing.T, reg *Registry, shards []ShardSpec) ShardResult {
	t.Helper()
	results := make([]ShardResult, len(shards))
	for i, sp := range shards {
		var err error
		results[i], err = Run(sp, reg)
		if err != nil {
			t.Fatalf("shard %s: %v", sp.SpanRange(), err)
		}
	}
	merged, err := MergeAll(results...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}

// TestShardedTallyMatchesUnshardedBitForBit is the foregrounded property
// test: for random trial counts, outcome arities and shard partitions
// (including empty and single-trial shards, merged in random order), the
// merged tallies equal the unsharded mc.Run/mc.Sweep output bit-for-bit.
func TestShardedTallyMatchesUnshardedBitForBit(t *testing.T) {
	reg := testRegistry()
	gen := rng.New(2024)
	reps := 40
	if testing.Short() {
		reps = 12
	}
	for rep := 0; rep < reps; rep++ {
		spec := SweepSpec{
			Sweep:    testTallySweep,
			Grid:     []float64{float64(gen.Intn(5)), float64(5 + gen.Intn(10))},
			Trials:   1 + gen.Intn(400),
			Seed:     gen.Uint64(),
			Outcomes: testOutcomes,
		}
		merged := runShards(t, reg, randomPartition(gen, spec))
		if !merged.Complete() {
			t.Fatalf("rep %d: merged result incomplete: missing %v", rep, merged.MissingRanges())
		}
		got, err := merged.SweepPoints()
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		want := singleProcessTally(spec)
		for i := range want {
			if want[i].Result.None != got[i].Result.None || want[i].Result.Trials != got[i].Result.Trials {
				t.Fatalf("rep %d point %d: none/trials %d/%d, want %d/%d", rep, i,
					got[i].Result.None, got[i].Result.Trials, want[i].Result.None, want[i].Result.Trials)
			}
			for o := range want[i].Result.Counts {
				if want[i].Result.Counts[o] != got[i].Result.Counts[o] {
					t.Fatalf("rep %d point %d outcome %d: %d, want %d", rep, i, o,
						got[i].Result.Counts[o], want[i].Result.Counts[o])
				}
			}
		}
	}
}

// TestShardedNumericMatchesUnshardedBitForBit: Welford moments of random
// partitions merge exactly — the merged Summary is bit-for-bit the
// unsharded mc.RunNumeric/mc.SweepNumeric output.
func TestShardedNumericMatchesUnshardedBitForBit(t *testing.T) {
	reg := testRegistry()
	gen := rng.New(777)
	reps := 40
	if testing.Short() {
		reps = 12
	}
	for rep := 0; rep < reps; rep++ {
		spec := SweepSpec{
			Sweep:   testNumericSweep,
			Grid:    []float64{gen.Float64() * 4, 5 + gen.Float64()},
			Trials:  1 + gen.Intn(400),
			Seed:    gen.Uint64(),
			Numeric: true,
		}
		merged := runShards(t, reg, randomPartition(gen, spec))
		got, err := merged.NumericSweepPoints()
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		want := singleProcessNumeric(spec)
		for i := range want {
			if !summariesIdentical(got[i].Summary, want[i].Summary) {
				t.Fatalf("rep %d point %d: summary %+v, want bit-identical %+v",
					rep, i, got[i].Summary, want[i].Summary)
			}
		}
	}
}

// TestMergeIsOrderIndependent merges the same shard set in two different
// association orders and demands bit-identical encodings.
func TestMergeIsOrderIndependent(t *testing.T) {
	reg := testRegistry()
	spec := SweepSpec{
		Sweep: testNumericSweep, Grid: []float64{1.5}, Trials: 97, Seed: 5, Numeric: true,
	}
	parts := []ShardSpec{spec.Shard(0, 13), spec.Shard(13, 14), spec.Shard(14, 64), spec.Shard(64, 97)}
	results := make([]ShardResult, len(parts))
	for i, sp := range parts {
		var err error
		if results[i], err = Run(sp, reg); err != nil {
			t.Fatal(err)
		}
	}
	leftToRight, err := MergeAll(results[0], results[1], results[2], results[3])
	if err != nil {
		t.Fatal(err)
	}
	ab, err := MergeResults(results[3], results[1])
	if err != nil {
		t.Fatal(err)
	}
	cd, err := MergeResults(results[2], results[0])
	if err != nil {
		t.Fatal(err)
	}
	treeOrder, err := MergeResults(ab, cd)
	if err != nil {
		t.Fatal(err)
	}
	encA, err := leftToRight.Encode()
	if err != nil {
		t.Fatal(err)
	}
	encB, err := treeOrder.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(encA) != string(encB) {
		t.Fatalf("merge order changed the encoded result:\n%s\nvs\n%s", encA, encB)
	}
}

func TestMergeRejectsDuplicateAndOverlap(t *testing.T) {
	reg := testRegistry()
	spec := SweepSpec{
		Sweep: testTallySweep, Grid: []float64{1}, Trials: 50, Seed: 9, Outcomes: testOutcomes,
	}
	a, err := Run(spec.Shard(0, 30), reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec.Shard(20, 50), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeResults(a, b); err == nil {
		t.Fatal("overlapping shards merged without error")
	}
	if _, err := MergeResults(a, a); err == nil {
		t.Fatal("duplicate shard merged without error")
	}
}

func TestMergeRejectsForeignSweeps(t *testing.T) {
	reg := testRegistry()
	mk := func(mutate func(*SweepSpec)) ShardResult {
		spec := SweepSpec{
			Sweep: testTallySweep, Grid: []float64{1}, Trials: 50, Seed: 9, Outcomes: testOutcomes,
		}
		mutate(&spec)
		res, err := Run(spec.Shard(0, 10), reg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(func(*SweepSpec) {})
	other := mk(func(s *SweepSpec) { s.Seed = 10 })
	if _, err := MergeResults(base, other); err == nil {
		t.Fatal("merged shards with different seeds")
	}
	other = mk(func(s *SweepSpec) { s.Grid = []float64{2} })
	if _, err := MergeResults(base, other); err == nil {
		t.Fatal("merged shards with different grids")
	}
	other = mk(func(s *SweepSpec) { s.Trials = 60 })
	if _, err := MergeResults(base, other); err == nil {
		t.Fatal("merged shards with different trial totals")
	}
}

func TestIncompleteMergeReportsMissingRanges(t *testing.T) {
	reg := testRegistry()
	spec := SweepSpec{
		Sweep: testTallySweep, Grid: []float64{1}, Trials: 100, Seed: 3, Outcomes: testOutcomes,
	}
	a, err := Run(spec.Shard(0, 20), reg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec.Shard(60, 90), reg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeResults(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Complete() {
		t.Fatal("gappy merge claims completeness")
	}
	missing := merged.MissingRanges()
	want := []Range{{Lo: 20, Hi: 60}, {Lo: 90, Hi: 100}}
	if !rangesEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	if _, err := merged.SweepPoints(); err == nil {
		t.Fatal("SweepPoints on incomplete result did not error")
	}
}

func summariesIdentical(a, b mc.Summary) bool {
	return a.N == b.N &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Var) == math.Float64bits(b.Var) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}
