package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
)

// TestShardedDistMatchesUnshardedBitForBit is the distribution analogue of
// the foregrounded tally/numeric property tests: for random trial counts
// and shard partitions (empty and single-trial shards included, merged in
// random order), every merged summary component — moments, sketch,
// histogram, first-passage — equals the unsharded mc.RunDistRangeWith bundle
// bit-for-bit, checked through the JSON encoding.
func TestShardedDistMatchesUnshardedBitForBit(t *testing.T) {
	reg := testRegistry()
	gen := rng.New(4242)
	reps := 25
	if testing.Short() {
		reps = 8
	}
	for rep := 0; rep < reps; rep++ {
		spec := SweepSpec{
			Sweep:    testDistSweep,
			Grid:     []float64{float64(gen.Intn(5)), float64(5 + gen.Intn(10))},
			Trials:   1 + gen.Intn(300),
			Seed:     gen.Uint64(),
			Outcomes: testOutcomes,
			Dist:     true,
		}
		merged := runShards(t, reg, randomPartition(gen, spec))
		if !merged.Complete() {
			t.Fatalf("rep %d: merged result incomplete: missing %v", rep, merged.MissingRanges())
		}
		want := singleProcessDist(spec)
		for i := range want {
			got, err := merged.DistAt(i)
			if err != nil {
				t.Fatalf("rep %d: %v", rep, err)
			}
			if !distSummariesIdentical(t, got, want[i]) {
				t.Fatalf("rep %d point %d: merged summary differs from unsharded run", rep, i)
			}
		}
	}
}

// TestDistMergeIsOrderIndependent merges the same dist shard set in two
// association orders and demands bit-identical wire encodings — the
// property the result cache and journal comparisons rely on.
func TestDistMergeIsOrderIndependent(t *testing.T) {
	reg := testRegistry()
	spec := SweepSpec{
		Sweep: testDistSweep, Grid: []float64{1.5}, Trials: 97, Seed: 5,
		Outcomes: testOutcomes, Dist: true,
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
	if !bytes.Equal(encA, encB) {
		t.Fatalf("merge order changed the encoded dist result:\n%s\nvs\n%s", encA, encB)
	}
}

// TestDistAgreesWithTallySweepTrialForTrial: the test dist observer draws
// its outcome exactly like the tally classifier before consuming anything
// else, so the first-passage class counts must equal the tally counts
// trial for trial — the property the builtin -dist sweeps promise.
func TestDistAgreesWithTallySweepTrialForTrial(t *testing.T) {
	reg := testRegistry()
	grid := []float64{1, 6}
	const (
		trials = 180
		seed   = uint64(31)
	)
	distSpec := SweepSpec{Sweep: testDistSweep, Grid: grid, Trials: trials, Seed: seed, Outcomes: testOutcomes, Dist: true}
	dist, err := Coordinate(distSpec, 4, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	tallySpec := SweepSpec{Sweep: testTallySweep, Grid: grid, Trials: trials, Seed: seed, Outcomes: testOutcomes}
	tally, err := Coordinate(tallySpec, 3, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range grid {
		d, err := dist.DistAt(i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tally.ResultAt(i)
		if err != nil {
			t.Fatal(err)
		}
		for o := range res.Counts {
			if d.FPT.Classes[o].Count != res.Counts[o] {
				t.Fatalf("point %d outcome %d: first-passage count %d, tally %d",
					i, o, d.FPT.Classes[o].Count, res.Counts[o])
			}
		}
		if d.FPT.Unresolved.Count != res.None {
			t.Fatalf("point %d: unresolved %d, tally none %d", i, d.FPT.Unresolved.Count, res.None)
		}
	}
}

// TestZeroTrialSweepCompletes: a zero-trial sweep is a degenerate but
// legal request. Regression: Complete() used to require exactly one
// covering range, so the coordinator's empty merge never completed.
func TestZeroTrialSweepCompletes(t *testing.T) {
	reg := testRegistry()
	spec := SweepSpec{
		Sweep: testTallySweep, Grid: []float64{1, 2}, Trials: 0, Seed: 7, Outcomes: testOutcomes,
	}
	got, err := Coordinate(spec, 4, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatalf("zero-trial sweep failed: %v", err)
	}
	if !got.Complete() {
		t.Fatalf("zero-trial result incomplete: missing %v", got.MissingRanges())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	pts, err := got.SweepPoints()
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if pt.Result.Trials != 0 || pt.Result.None != 0 {
			t.Fatalf("point %d of zero-trial sweep = %+v", i, pt.Result)
		}
	}

	distSpec := SweepSpec{
		Sweep: testDistSweep, Grid: []float64{1}, Trials: 0, Seed: 7, Outcomes: testOutcomes, Dist: true,
	}
	dres, err := Coordinate(distSpec, 2, LocalRunner(reg), Options{})
	if err != nil {
		t.Fatalf("zero-trial dist sweep failed: %v", err)
	}
	if !dres.Complete() {
		t.Fatal("zero-trial dist result incomplete")
	}
	d, err := dres.DistAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("zero-trial dist summary = %+v", d)
	}
}

func TestCompleteOnZeroTrialResult(t *testing.T) {
	r := ShardResult{Sweep: testTallySweep, Grid: []float64{1}, Trials: 0, Outcomes: testOutcomes}
	if !r.Complete() {
		t.Fatal("zero-trial result with no ranges should be complete")
	}
	if missing := r.MissingRanges(); len(missing) != 0 {
		t.Fatalf("missing = %v", missing)
	}
	r.Ranges = []Range{{Lo: 0, Hi: 0}}
	if r.Complete() {
		t.Fatal("zero-trial result carrying a range should not be complete")
	}
}

// distSummariesIdentical compares two summaries through their canonical
// JSON encodings, which pins every float bit and every integer tally.
func distSummariesIdentical(t *testing.T, a, b mc.DistSummary) bool {
	t.Helper()
	ea, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}

// TestDistSummaryQuantilesBracketMoments sanity-checks the rendered
// statistics line up on a real sharded run: the sketch median sits between
// the exact extremes, and the histogram mean-bin tallies cover N.
func TestDistSummaryQuantilesBracketMoments(t *testing.T) {
	reg := testRegistry()
	spec := SweepSpec{
		Sweep: testDistSweep, Grid: []float64{3}, Trials: 200, Seed: 13,
		Outcomes: testOutcomes, Dist: true,
	}
	res, err := Coordinate(spec, 3, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.DistAt(0)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Moments.Summary()
	med := d.Sketch.Quantile(0.5)
	if med < s.Min || med > s.Max {
		t.Fatalf("median %v outside [%v, %v]", med, s.Min, s.Max)
	}
	if math.Float64bits(d.Sketch.Quantile(0)) != math.Float64bits(s.Min) ||
		math.Float64bits(d.Sketch.Quantile(1)) != math.Float64bits(s.Max) {
		t.Fatalf("sketch extremes [%v, %v] differ from moment extremes [%v, %v]",
			d.Sketch.Quantile(0), d.Sketch.Quantile(1), s.Min, s.Max)
	}
	if d.Hist.N != int64(spec.Trials) || d.FPT.N() != int64(spec.Trials) {
		t.Fatalf("component trial counts %d/%d, want %d", d.Hist.N, d.FPT.N(), spec.Trials)
	}
}
