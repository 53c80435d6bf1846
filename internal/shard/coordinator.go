package shard

import (
	"bytes"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SweepSpec describes a whole sweep to be sharded: the named trial
// factory, its parameter grid, the per-point trial count, the base seed,
// and the outcome arity (or Numeric). It is the coordinator-side
// counterpart of mc.Sweep's arguments.
type SweepSpec struct {
	Sweep    string
	Grid     []float64
	Trials   int
	Seed     uint64
	Outcomes int
	Numeric  bool
	Dist     bool
	// Network, when non-nil, makes this a self-contained network sweep
	// (wire format v3): every shard carries the model and Sweep must be
	// the spec's content-addressed SweepID.
	Network *NetworkSpec
}

// Shard returns the ShardSpec for the trial range [lo, hi) of the sweep.
func (s SweepSpec) Shard(lo, hi int) ShardSpec {
	return ShardSpec{
		Version: FormatVersion, Sweep: s.Sweep, Grid: s.Grid, Trials: s.Trials,
		Lo: lo, Hi: hi, Seed: s.Seed, Outcomes: s.Outcomes, Numeric: s.Numeric, Dist: s.Dist,
		Network: s.Network,
	}
}

// emptyResult is the complete result of a zero-trial sweep: every point
// carries the empty tally of its kind and no trial ranges are covered.
func (s SweepSpec) emptyResult() ShardResult {
	r := ShardResult{
		Version: FormatVersion, Sweep: s.Sweep, Grid: s.Grid, Trials: s.Trials,
		Seed: s.Seed, Outcomes: s.Outcomes, Numeric: s.Numeric, Dist: s.Dist,
		Points: make([]PointTally, len(s.Grid)),
	}
	for i, p := range s.Grid {
		pt := PointTally{Param: p}
		if !s.Numeric && !s.Dist {
			pt.Counts = make([]int64, s.Outcomes)
		}
		r.Points[i] = pt
	}
	return r
}

// Validate checks the sweep description via its 1-shard spec.
func (s SweepSpec) Validate() error {
	return s.Shard(0, s.Trials).Validate()
}

// Partition splits the sweep's trial range [0, Trials) into n contiguous,
// near-equal shards (fewer when Trials < n). The single-process sweep is
// exactly the n = 1 case.
func (s SweepSpec) Partition(n int) []ShardSpec {
	if n < 1 {
		n = 1
	}
	if n > s.Trials {
		n = s.Trials
	}
	shards := make([]ShardSpec, 0, n)
	for i := 0; i < n; i++ {
		lo := i * s.Trials / n
		hi := (i + 1) * s.Trials / n
		shards = append(shards, s.Shard(lo, hi))
	}
	return shards
}

// Runner executes one shard somewhere — in this process, in a child
// process, or on another machine — and returns its result.
type Runner func(spec ShardSpec) (ShardResult, error)

// LocalRunner runs shards in-process against a registry.
func LocalRunner(reg *Registry) Runner {
	return func(spec ShardSpec) (ShardResult, error) {
		return Run(spec, reg)
	}
}

// ExecRunner runs each shard in a fresh OS process: it starts the given
// command (typically a sweepd binary with its -worker flag), writes the
// ShardSpec JSON to its stdin, and decodes the ShardResult JSON from its
// stdout. Whatever the worker wrote to stderr — its own error message, a
// panic with its stack, a library warning — is attached to the returned
// error on every failure path, so the coordinator's retry log says *why*
// a worker died, not just that it did.
func ExecRunner(command string, args ...string) Runner {
	return func(spec ShardSpec) (ShardResult, error) {
		payload, err := spec.Encode()
		if err != nil {
			return ShardResult{}, err
		}
		cmd := exec.Command(command, args...)
		cmd.Stdin = bytes.NewReader(payload)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return ShardResult{}, fmt.Errorf("shard: worker %s: %v%s", spec.SpanRange(), err, stderrSuffix(&stderr))
		}
		res, err := DecodeResult(stdout.Bytes())
		if err != nil {
			// Exit 0 with undecodable output: the worker's stderr is the
			// only clue to what it actually did.
			return ShardResult{}, fmt.Errorf("shard: worker %s: %w%s", spec.SpanRange(), err, stderrSuffix(&stderr))
		}
		return res, nil
	}
}

// maxStderrAttach caps how much worker stderr is folded into an error —
// enough for a full panic stack, bounded so a log-spewing worker cannot
// flood the coordinator's own logs. The tail is kept: that is where the
// panic and the final error live.
const maxStderrAttach = 16 << 10

func stderrSuffix(stderr *bytes.Buffer) string {
	msg := strings.TrimSpace(stderr.String())
	if msg == "" {
		return ""
	}
	if len(msg) > maxStderrAttach {
		msg = "…" + msg[len(msg)-maxStderrAttach:]
	}
	return "\nworker stderr:\n" + msg
}

// Options tunes Coordinate.
type Options struct {
	// Parallel bounds the shards dispatched to the Runner at once; 0
	// dispatches all at once (each in-process shard still parallelises
	// internally, so use Parallel with LocalRunner to avoid
	// oversubscription). A shard gives up its slot as soon as its result
	// passes the coverage check, so with a journal the next dispatch
	// overlaps this shard's fsync; the shard counts as done only after
	// the fsync. Up to 16 finished shards (or Parallel, if larger) may
	// wait for the journal; past that, a finished shard keeps its slot
	// until the journal catches up.
	Parallel int
	// Retries is how many times a failing shard is re-dispatched before
	// its range is reported missing.
	Retries int
	// OnShardDone, when set, is called after each shard completes and —
	// when a journal is in play (ResumeCoordinate) — after its result is
	// durably journaled: done counts completed shards of this run, total
	// is the number dispatched. It may be called concurrently from
	// dispatch goroutines.
	OnShardDone func(done, total int, res ShardResult)
}

// journalBacklog is the least number of completed shards that may wait
// for the journal at once. A short queue rides out fsync latency spikes
// without stalling dispatch; each waiting shard holds its result and its
// goroutine's grown stack, so the queue stays bounded.
const journalBacklog = 16

// Coordinate partitions the sweep into shards, fans them out over run,
// and merges the results, enforcing the protocol: a worker must return
// its shard's exact trial range (wrong or overlapping coverage is
// rejected), failed shards are retried Retries times, and a sweep that
// still has uncovered trials after merging fails with the missing ranges
// listed. On success the result is complete and bit-for-bit identical to
// the single-process sweep.
func Coordinate(spec SweepSpec, shards int, run Runner, opts Options) (ShardResult, error) {
	if err := spec.Validate(); err != nil {
		return ShardResult{}, err
	}
	return coordinate(spec, spec.Partition(shards), nil, nil, run, opts)
}

// coordinate is the dispatch core shared by Coordinate and
// ResumeCoordinate: fan specs out over run with bounded parallelism and
// retries, durably journal each completed result (when journal is
// non-nil) before counting it done, and merge the new results with any
// prior (journal-replayed) ones.
func coordinate(spec SweepSpec, specs []ShardSpec, prior []ShardResult, journal *Journal, run Runner, opts Options) (ShardResult, error) {
	if len(specs) == 0 && len(prior) == 0 {
		// A zero-trial sweep dispatches nothing and replays nothing; its
		// merged result is the empty complete result, not a failure.
		return spec.emptyResult(), nil
	}
	parallel := opts.Parallel
	if parallel <= 0 || parallel > len(specs) {
		parallel = len(specs)
	}

	results := make([]ShardResult, len(specs))
	errs := make([]error, len(specs))
	// sem bounds the shards at the runner; backlog bounds the results
	// waiting for (or in) their journal fsync, so a disk slower than the
	// fleet holds back dispatch instead of queueing results without bound.
	sem := make(chan struct{}, parallel)
	backlog := make(chan struct{}, max(parallel, journalBacklog))
	var done atomic.Int64
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp ShardSpec) {
			defer wg.Done()
			sem <- struct{}{}
			res, err := dispatch(run, sp, opts.Retries)
			if err == nil && journal != nil {
				backlog <- struct{}{}
			}
			// The runner is done with this shard: free its slot now, so the
			// next shard's round trip overlaps this shard's fsync.
			<-sem
			if err != nil {
				errs[i] = err
				return
			}
			if journal != nil {
				// Journal before counting the shard complete: a result
				// that is not durable is a result a crash will lose. A
				// journal failure is fatal rather than retryable —
				// recomputing the shard will not fix the disk.
				err := journal.Append(res)
				<-backlog
				if err != nil {
					errs[i] = fmt.Errorf("shard %s: %w", sp.SpanRange(), err)
					return
				}
			}
			results[i] = res
			if opts.OnShardDone != nil {
				opts.OnShardDone(int(done.Add(1)), len(specs), res)
			}
		}(i, sp)
	}
	wg.Wait()

	merged := ShardResult{}
	var failures []string
	first := true
	for _, res := range prior {
		if first {
			merged, first = res, false
			continue
		}
		var err error
		merged, err = MergeResults(merged, res)
		if err != nil {
			return ShardResult{}, err
		}
	}
	for i := range specs {
		if errs[i] != nil {
			failures = append(failures, errs[i].Error())
			continue
		}
		if first {
			merged, first = results[i], false
			continue
		}
		var err error
		merged, err = MergeResults(merged, results[i])
		if err != nil {
			return ShardResult{}, err
		}
	}
	if first {
		return ShardResult{}, fmt.Errorf("shard: every shard failed:\n%s", strings.Join(failures, "\n"))
	}
	if !merged.Complete() {
		missing := merged.MissingRanges()
		sort.Slice(failures, func(i, j int) bool { return failures[i] < failures[j] })
		return merged, fmt.Errorf("shard: incomplete sweep: missing trials %v:\n%s",
			missing, strings.Join(failures, "\n"))
	}
	return merged, nil
}

// dispatch runs one shard, re-dispatching it up to retries times until
// the runner returns a result covering exactly the shard.
func dispatch(run Runner, sp ShardSpec, retries int) (ShardResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := run(sp)
		if err == nil {
			err = checkShardResult(sp, res)
		}
		if err == nil {
			return res, nil
		}
		if attempt >= retries {
			return ShardResult{}, fmt.Errorf("shard %s (attempt %d): %w", sp.SpanRange(), attempt+1, err)
		}
	}
}

// checkShardResult enforces that a worker answered the shard it was
// asked: same sweep identity and exactly the spec's trial range.
func checkShardResult(sp ShardSpec, res ShardResult) error {
	want := ShardResult{
		Version: FormatVersion, Sweep: sp.Sweep, Grid: sp.Grid, Trials: sp.Trials,
		Seed: sp.Seed, Outcomes: sp.Outcomes, Numeric: sp.Numeric, Dist: sp.Dist,
	}
	if err := headerCompatible(want, res); err != nil {
		return err
	}
	wantRanges := []Range{{Lo: sp.Lo, Hi: sp.Hi}}
	if sp.Lo == sp.Hi {
		wantRanges = nil
	}
	if !rangesEqual(res.Ranges, wantRanges) {
		return fmt.Errorf("worker covered %v, spec asked %s", res.Ranges, sp.SpanRange())
	}
	return nil
}
