package mc

import (
	"fmt"
	"sync"

	"stochsynth/internal/rng"
)

// RunBatchWith executes cfg.Trials independent trials in trial-lockstep
// batches of up to k: each worker builds one batch engine (newBatch) and
// feeds it chunks of its trial stripe, and runBatch advances all trials of
// a chunk through one fused kernel (e.g. sim.BatchRace), writing trial j's
// outcome index — in [0, cfg.Outcomes) or None — to out[j].
//
// The stream contract is RunWith's, verbatim: before each chunk, gens[j]
// is repositioned (rng.PCG.Reseed) onto the stream (cfg.Seed, i) of the
// chunk's j-th global trial index. As long as runBatch advances trial j
// using only gens[j] and produces the same outcome the unbatched trial
// body would (sim.BatchRace guarantees exactly this for threshold races),
// the tallies are bit-for-bit identical to RunWith's — for every batch
// width, worker count, and range partition; pinned by
// TestRunBatchWithMatchesRunWith.
//
// RunBatchWith is the 1-shard special case of RunBatchRangeWith.
func RunBatchWith[E any](cfg Config, k int, newBatch func() E, runBatch func(eng E, gens []*rng.PCG, out []int)) Result {
	if cfg.Trials <= 0 {
		panic("mc: Config.Trials must be positive")
	}
	return RunBatchRangeWith(cfg, 0, cfg.Trials, k, newBatch, runBatch)
}

// RunBatchRangeWith executes the trial-index range [lo, hi) of a
// conceptual Monte Carlo run on the batch path. Randomness for trial i is
// drawn from the stream (cfg.Seed, i) exactly as in RunRangeWith, so the
// tallies of any disjoint partition of [0, n) — batched or not, any batch
// widths — sum to the tallies of the full run bit-for-bit. cfg.Trials is
// ignored; the range defines the work.
func RunBatchRangeWith[E any](cfg Config, lo, hi, k int, newBatch func() E, runBatch func(eng E, gens []*rng.PCG, out []int)) Result {
	if cfg.Outcomes <= 0 {
		panic("mc: Config.Outcomes must be positive")
	}
	if k < 1 {
		panic("mc: RunBatchRangeWith needs batch width k >= 1")
	}
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("mc: invalid trial range [%d,%d)", lo, hi))
	}
	res := Result{Counts: make([]int64, cfg.Outcomes), Trials: int64(hi - lo)}
	if lo == hi {
		return res
	}
	workers := rangeWorkers(cfg.Workers, hi-lo)

	type tally struct {
		counts []int64
		none   int64
		err    string
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tallies[w].counts = make([]int64, cfg.Outcomes)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer recoverTrialPanic(&tallies[w].err)
			gens := make([]*rng.PCG, k)
			for j := range gens {
				gens[j] = rng.NewStream(cfg.Seed, uint64(w))
			}
			out := make([]int, k)
			idx := make([]int, 0, k)
			eng := newBatch()
			flush := func() bool {
				m := len(idx)
				if m == 0 {
					return true
				}
				for j, id := range idx {
					gens[j].Reseed(cfg.Seed, uint64(id))
				}
				runBatch(eng, gens[:m], out[:m])
				for j := 0; j < m; j++ {
					switch outcome := out[j]; {
					case outcome == None:
						tallies[w].none++
					case outcome >= 0 && outcome < cfg.Outcomes:
						tallies[w].counts[outcome]++
					default:
						tallies[w].err = fmt.Sprintf(
							"mc: batch classifier returned %d for trial %d, want [0,%d) or None",
							outcome, idx[j], cfg.Outcomes)
						return false
					}
				}
				idx = idx[:0]
				return true
			}
			// Static striping: worker w owns trial indices lo+w,
			// lo+w+workers, …, grouped into chunks of up to k.
			for i := lo + w; i < hi; i += workers {
				idx = append(idx, i)
				if len(idx) == k {
					if !flush() {
						return
					}
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	for _, t := range tallies {
		if t.err != "" {
			panic(t.err)
		}
	}

	for _, t := range tallies {
		for i, c := range t.counts {
			res.Counts[i] += c
		}
		res.None += t.none
	}
	return res
}
