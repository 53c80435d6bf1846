package shard

import (
	"fmt"
	"math"
	"sort"

	"stochsynth/internal/mc"
)

// headerCompatible reports why two results cannot belong to the same
// sweep, or nil.
func headerCompatible(a, b ShardResult) error {
	switch {
	case a.Sweep != b.Sweep:
		return fmt.Errorf("shard: cannot merge sweeps %q and %q", a.Sweep, b.Sweep)
	case a.Trials != b.Trials:
		return fmt.Errorf("shard: cannot merge: total trials differ (%d vs %d)", a.Trials, b.Trials)
	case a.Seed != b.Seed:
		return fmt.Errorf("shard: cannot merge: seeds differ (%d vs %d)", a.Seed, b.Seed)
	case a.Outcomes != b.Outcomes:
		return fmt.Errorf("shard: cannot merge: outcome arity differs (%d vs %d)", a.Outcomes, b.Outcomes)
	case a.Numeric != b.Numeric, a.Dist != b.Dist:
		return fmt.Errorf("shard: cannot merge results of different sweep kinds")
	case len(a.Grid) != len(b.Grid):
		return fmt.Errorf("shard: cannot merge: grids differ in length (%d vs %d)", len(a.Grid), len(b.Grid))
	}
	for i := range a.Grid {
		if math.Float64bits(a.Grid[i]) != math.Float64bits(b.Grid[i]) {
			return fmt.Errorf("shard: cannot merge: grid point %d differs (%v vs %v)", i, a.Grid[i], b.Grid[i])
		}
	}
	return nil
}

// mergeRanges unions two sorted disjoint range sets, erroring on any
// overlap (a duplicated or overlapping shard) and coalescing adjacency so
// the representation is canonical.
func mergeRanges(a, b []Range) ([]Range, error) {
	all := make([]Range, 0, len(a)+len(b))
	all = append(all, a...)
	all = append(all, b...)
	sort.Slice(all, func(i, j int) bool { return all[i].Lo < all[j].Lo })
	var out []Range
	for _, rg := range all {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if rg.Lo < last.Hi {
				overlap := Range{Lo: rg.Lo, Hi: min(rg.Hi, last.Hi)}
				return nil, fmt.Errorf("shard: trials %s are covered by more than one shard (duplicate or overlapping shard)", overlap)
			}
			if rg.Lo == last.Hi {
				last.Hi = rg.Hi
				continue
			}
		}
		out = append(out, rg)
	}
	return out, nil
}

// MergeResults merges two shard results of the same sweep. The merge is
// pure, associative and order-independent: counts are integer sums and
// numeric moments combine through the canonical moment tree, so any merge
// order over any partition yields bit-for-bit identical results. Shards
// covering overlapping trial ranges (including duplicates) are rejected,
// as are results from different sweeps, seeds, grids or formats.
func MergeResults(a, b ShardResult) (ShardResult, error) {
	if err := a.Validate(); err != nil {
		return ShardResult{}, err
	}
	if err := b.Validate(); err != nil {
		return ShardResult{}, err
	}
	if err := headerCompatible(a, b); err != nil {
		return ShardResult{}, err
	}
	ranges, err := mergeRanges(a.Ranges, b.Ranges)
	if err != nil {
		return ShardResult{}, err
	}
	out := ShardResult{
		Version: FormatVersion, Sweep: a.Sweep, Grid: a.Grid, Trials: a.Trials,
		Seed: a.Seed, Outcomes: a.Outcomes, Numeric: a.Numeric, Dist: a.Dist,
		Ranges: ranges, Points: make([]PointTally, len(a.Points)),
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		pt := PointTally{Param: pa.Param}
		if a.Dist {
			d, err := mc.MergeDist(distOf(pa), distOf(pb))
			if err != nil {
				return ShardResult{}, fmt.Errorf("shard: point %d: %w", i, err)
			}
			pt.Dist = &d
			out.Points[i] = pt
			continue
		}
		if a.Numeric {
			m, err := MergeSummaries(pa.Moments, pb.Moments)
			if err != nil {
				return ShardResult{}, fmt.Errorf("shard: point %d: %w", i, err)
			}
			pt.Moments = m
		} else {
			pt.Counts = make([]int64, len(pa.Counts))
			for o := range pa.Counts {
				pt.Counts[o] = pa.Counts[o] + pb.Counts[o]
			}
			pt.None = pa.None + pb.None
		}
		out.Points[i] = pt
	}
	return out, nil
}

// MergeAll folds MergeResults over any number of shard results (at least
// one). Order does not matter.
func MergeAll(results ...ShardResult) (ShardResult, error) {
	if len(results) == 0 {
		return ShardResult{}, fmt.Errorf("shard: nothing to merge")
	}
	out := results[0]
	if err := out.Validate(); err != nil {
		return ShardResult{}, err
	}
	for _, r := range results[1:] {
		var err error
		out, err = MergeResults(out, r)
		if err != nil {
			return ShardResult{}, err
		}
	}
	return out, nil
}

// MergeSummaries merges the summary statistics of disjoint trial ranges
// of one numeric run. The operands are canonical moment forests, not
// mc.Summary values: a finished Summary cannot be merged exactly (float
// addition is not associative), which is why the wire format ships the
// mc.Moments nodes a Summary folds from. MergeResults applies this per
// grid point; derive the merged mc.Summary with Moments.Summary.
func MergeSummaries(a, b mc.Moments) (mc.Moments, error) {
	return mc.MergeMoments(a, b)
}

// distOf returns a point's distribution summary, treating a nil pointer
// (a zero-coverage point) as the empty summary.
func distOf(pt PointTally) mc.DistSummary {
	if pt.Dist == nil {
		return mc.DistSummary{}
	}
	return *pt.Dist
}

// DistAt returns grid point i's distribution summary bundle over the
// covered trials. For a complete result every component is bit-for-bit
// the single-process mc.RunDistRangeWith bundle of that sweep point over
// its whole trial range.
func (r ShardResult) DistAt(i int) (mc.DistSummary, error) {
	if !r.Dist {
		return mc.DistSummary{}, fmt.Errorf("shard: DistAt on a non-distribution sweep")
	}
	if i < 0 || i >= len(r.Points) {
		return mc.DistSummary{}, fmt.Errorf("shard: point %d outside grid of %d", i, len(r.Points))
	}
	return distOf(r.Points[i]), nil
}

// ResultAt converts grid point i of a tally result into an mc.Result over
// the covered trials. For a complete result this is bit-for-bit the
// single-process mc.Run tally of that sweep point.
func (r ShardResult) ResultAt(i int) (mc.Result, error) {
	if r.Numeric || r.Dist {
		return mc.Result{}, fmt.Errorf("shard: ResultAt on a non-tally sweep")
	}
	if i < 0 || i >= len(r.Points) {
		return mc.Result{}, fmt.Errorf("shard: point %d outside grid of %d", i, len(r.Points))
	}
	pt := r.Points[i]
	counts := make([]int64, len(pt.Counts))
	copy(counts, pt.Counts)
	return mc.Result{Counts: counts, None: pt.None, Trials: int64(r.Covered())}, nil
}

// SummaryAt converts grid point i of a numeric result into an mc.Summary
// over the covered trials. For a complete result this is bit-for-bit the
// single-process mc.RunNumeric summary of that sweep point.
func (r ShardResult) SummaryAt(i int) (mc.Summary, error) {
	if !r.Numeric {
		return mc.Summary{}, fmt.Errorf("shard: SummaryAt on a tally sweep")
	}
	if i < 0 || i >= len(r.Points) {
		return mc.Summary{}, fmt.Errorf("shard: point %d outside grid of %d", i, len(r.Points))
	}
	return r.Points[i].Moments.Summary(), nil
}

// SweepPoints converts a complete tally result into the []mc.SweepPoint
// that mc.Sweep would have produced single-process.
func (r ShardResult) SweepPoints() ([]mc.SweepPoint, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("shard: incomplete sweep: missing trials %v", r.MissingRanges())
	}
	out := make([]mc.SweepPoint, len(r.Points))
	for i := range r.Points {
		res, err := r.ResultAt(i)
		if err != nil {
			return nil, err
		}
		out[i] = mc.SweepPoint{Param: r.Grid[i], Result: res}
	}
	return out, nil
}

// NumericSweepPoints converts a complete numeric result into the
// []mc.NumericSweepPoint that mc.SweepNumeric would have produced
// single-process.
func (r ShardResult) NumericSweepPoints() ([]mc.NumericSweepPoint, error) {
	if !r.Complete() {
		return nil, fmt.Errorf("shard: incomplete sweep: missing trials %v", r.MissingRanges())
	}
	out := make([]mc.NumericSweepPoint, len(r.Points))
	for i := range r.Points {
		s, err := r.SummaryAt(i)
		if err != nil {
			return nil, err
		}
		out[i] = mc.NumericSweepPoint{Param: r.Grid[i], Summary: s}
	}
	return out, nil
}
