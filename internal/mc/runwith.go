package mc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"stochsynth/internal/rng"
)

// recoverTrialPanic converts a panic escaping a trial body into a
// recorded error string (with the original stack), to be re-raised on the
// caller's goroutine after the pool drains. A panic on a worker goroutine
// would kill the whole process unrecoverably — fatal for long-lived
// harnesses like the shard network worker, which must turn one bad trial
// body into an error frame and keep serving.
func recoverTrialPanic(dst *string) {
	if p := recover(); p != nil {
		*dst = fmt.Sprintf("mc: trial body panicked: %v\n%s", p, debug.Stack())
	}
}

// RunWith executes cfg.Trials independent trials with per-worker engine
// reuse: each worker calls newEngine once to build its simulation engine
// (or any other per-worker resource) and then runs every trial it claims
// through classify on that one engine, instead of allocating propensity
// vectors, dependency graphs and state clones on every trial. Workers
// claim the next unrun trial index as they free up, so uneven trial
// lengths do not leave a worker idle while another finishes a stripe.
//
// The generator handed to newEngine is owned by the worker; before each
// trial it is repositioned in place (rng.PCG.Reseed) onto the stream
// (cfg.Seed, trial index), so results are bit-for-bit identical to building
// a fresh engine per trial with rng.NewStream — and therefore identical
// across worker counts and scheduling.
//
// classify must reinitialise per-trial state itself (typically by calling
// the engine's Reset with the trial's initial state) and return an outcome
// index in [0, cfg.Outcomes) or None. RunWith panics on invalid
// configuration or out-of-range outcomes, like Run.
//
// RunWith is the 1-shard special case of RunRangeWith: it runs the whole
// range [0, cfg.Trials).
func RunWith[E any](cfg Config, newEngine func(gen *rng.PCG) E, classify func(eng E) int) Result {
	if cfg.Trials <= 0 {
		panic("mc: Config.Trials must be positive")
	}
	return RunRangeWith(cfg, 0, cfg.Trials, newEngine, classify)
}

// RunRangeWith executes the trial-index range [lo, hi) of a conceptual
// Monte Carlo run and tallies its outcomes. Randomness for trial i is
// drawn from the stream (cfg.Seed, i) exactly as in RunWith, so the
// tallies of any disjoint partition of [0, n) sum to the tallies of the
// full run bit-for-bit — the primitive behind distributed sweep sharding
// (internal/shard). Workers claim trials as in RunWith; tallies are
// integer sums, so they do not depend on which worker ran which trial.
// cfg.Trials is ignored; the range defines the work.
//
// An empty range (lo == hi) is valid and yields zero tallies.
func RunRangeWith[E any](cfg Config, lo, hi int, newEngine func(gen *rng.PCG) E, classify func(eng E) int) Result {
	if cfg.Outcomes <= 0 {
		panic("mc: Config.Outcomes must be positive")
	}
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("mc: invalid trial range [%d,%d)", lo, hi))
	}
	res := Result{Counts: make([]int64, cfg.Outcomes), Trials: int64(hi - lo)}
	if lo == hi {
		return res
	}
	workers := rangeWorkers(cfg.Workers, hi-lo)
	tallies := make([][]int64, workers)
	none := make([]int64, workers)
	for w := range tallies {
		tallies[w] = make([]int64, cfg.Outcomes)
	}
	runClaimed(cfg.Seed, lo, hi, workers, newEngine, func(w, i int, eng E) string {
		switch outcome := classify(eng); {
		case outcome == None:
			none[w]++
		case outcome >= 0 && outcome < cfg.Outcomes:
			tallies[w][outcome]++
		default:
			return fmt.Sprintf("mc: classifier returned %d for trial %d, want [0,%d) or None",
				outcome, i, cfg.Outcomes)
		}
		return ""
	})
	// Integer sums: the tallies are the same whichever worker ran which
	// trial.
	for w, counts := range tallies {
		for i, c := range counts {
			res.Counts[i] += c
		}
		res.None += none[w]
	}
	return res
}

// RunNumericWith is RunWith for numeric trials: per-worker engine reuse
// with the same trial→stream mapping as RunNumeric. cfg.Outcomes is
// ignored. The Summary is derived from the canonical moment tree (see
// Moments), so it is bit-for-bit identical to merging the moments of any
// sharded partition of the same run.
func RunNumericWith[E any](cfg Config, newEngine func(gen *rng.PCG) E, measure func(eng E) float64) Summary {
	if cfg.Trials <= 0 {
		panic("mc: Config.Trials must be positive")
	}
	return RunNumericRangeWith(cfg, 0, cfg.Trials, newEngine, measure).Summary()
}

// RunNumericRangeWith executes the trial-index range [lo, hi) of a
// conceptual numeric run and returns its canonical moment forest. Trial i
// draws from the stream (cfg.Seed, i), so the forests of any disjoint
// partition of [0, n) merge (MergeMoments) to the forest — and Summary —
// of the full run bit-for-bit. cfg.Trials and cfg.Outcomes are ignored.
func RunNumericRangeWith[E any](cfg Config, lo, hi int, newEngine func(gen *rng.PCG) E, measure func(eng E) float64) Moments {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("mc: invalid trial range [%d,%d)", lo, hi))
	}
	if lo == hi {
		return nil
	}
	values := make([]float64, hi-lo)
	runClaimed(cfg.Seed, lo, hi, rangeWorkers(cfg.Workers, hi-lo), newEngine, func(_, i int, eng E) string {
		values[i-lo] = measure(eng)
		return ""
	})
	return NewMoments(lo, values)
}

// runClaimed runs the trials [lo, hi) on workers goroutines. Each worker
// builds one engine with newEngine and then claims trial indices from a
// shared counter until the range is exhausted; before trial i its
// generator is repositioned (rng.PCG.Reseed) onto the stream (seed, i),
// so what a trial computes does not depend on which worker claimed it.
// Claiming instead of a fixed stripe keeps every worker busy until the
// range runs out, however unevenly trial lengths fall.
//
// trial runs trial i on worker w's engine and returns "" or an error
// message, which stops that worker. After every worker has stopped, the
// first message in worker order — or a panic escaping a trial body — is
// re-raised as a panic on the caller's goroutine. Callers write results
// only into per-worker integer tallies or per-trial slots, which keeps
// the aggregate independent of scheduling.
func runClaimed[E any](seed uint64, lo, hi, workers int, newEngine func(gen *rng.PCG) E, trial func(w, i int, eng E) string) {
	var next atomic.Int64
	next.Store(int64(lo))
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer recoverTrialPanic(&errs[w])
			gen := rng.NewStream(seed, uint64(w))
			eng := newEngine(gen)
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				gen.Reseed(seed, uint64(i))
				if msg := trial(w, i, eng); msg != "" {
					// Record the bug and stop this worker; panicking here
					// would crash the process from a non-caller goroutine.
					errs[w] = msg
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			panic(e)
		}
	}
}

// rangeWorkers resolves the worker count for a range of n trials.
func rangeWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}
