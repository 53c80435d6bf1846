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
	// Parallel is the number of dispatchers: goroutines that each take
	// the next undispatched shard, run it on the Runner and, once its
	// result passes the coverage check, take the next. 0 means one per
	// shard, all at once (each in-process shard still parallelises
	// internally, so use Parallel with LocalRunner to avoid
	// oversubscription). With a journal a dispatcher hands the result to
	// a single writer and moves on, so the next dispatch overlaps this
	// shard's fsync; the writer commits every result queued since its
	// last fsync in one write and one fsync, and only then counts those
	// shards done. Up to 16 finished shards (or Parallel, if larger) may
	// wait for the journal; past that, a dispatcher holds its finished
	// shard until the journal catches up.
	Parallel int
	// Retries is how many times a failing shard is re-dispatched before
	// its range is reported missing.
	Retries int
	// OnShardDone, when set, is called after each shard completes and —
	// when a journal is in play (ResumeCoordinate) — after its result is
	// durably journaled: done counts completed shards of this run, total
	// is the number dispatched. Without a journal it may be called
	// concurrently from dispatchers; with one, the journal writer calls
	// it, one shard at a time.
	OnShardDone func(done, total int, res ShardResult)
}

// journalBacklog is the least number of completed shards that may wait
// for the journal at once. A short queue rides out fsync latency spikes
// without stalling dispatch; each waiting shard holds its result, so the
// queue stays bounded.
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
//
// parallel long-lived dispatchers pull shard indices in order, so a
// dispatcher's stack, grown once by the first shard's decode, serves
// every later shard. With a journal, one writer group-commits: every
// result queued since its last fsync goes into one write and one fsync,
// and only then are those shards counted done.
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
	var done atomic.Int64
	finish := func(i int, res ShardResult) {
		results[i] = res
		if opts.OnShardDone != nil {
			opts.OnShardDone(int(done.Add(1)), len(specs), res)
		}
	}
	// backlog bounds the results waiting for (or in) their journal fsync,
	// so a disk slower than the fleet holds back dispatch instead of
	// queueing results without bound. queue never blocks: a result is
	// queued only with a backlog token in hand.
	backlog := make(chan struct{}, max(parallel, journalBacklog))
	queue := make(chan journaled, cap(backlog))
	var writer sync.WaitGroup
	if journal != nil {
		writer.Add(1)
		go func() {
			defer writer.Done()
			groupCommit(journal, specs, queue, backlog, errs, finish)
		}()
	}

	var next atomic.Int64
	var dispatchers sync.WaitGroup
	for range parallel {
		dispatchers.Add(1)
		go func() {
			defer dispatchers.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				res, err := dispatch(run, specs[i], opts.Retries)
				switch {
				case err != nil:
					errs[i] = err
				case journal != nil:
					// Journal before counting the shard complete: a
					// result that is not durable is a result a crash
					// will lose. The dispatcher moves on to the next
					// shard while the writer fsyncs this one.
					backlog <- struct{}{}
					queue <- journaled{i, res}
				default:
					finish(i, res)
				}
			}
		}()
	}
	dispatchers.Wait()
	close(queue)
	writer.Wait()

	var failures []string
	parts := prior[:len(prior):len(prior)] // appending copies; prior stays the caller's
	for i := range specs {
		if errs[i] != nil {
			failures = append(failures, errs[i].Error())
			continue
		}
		parts = append(parts, results[i])
	}
	if len(parts) == 0 {
		return ShardResult{}, fmt.Errorf("shard: every shard failed:\n%s", strings.Join(failures, "\n"))
	}
	merged, err := MergeAll(parts...)
	if err != nil {
		return ShardResult{}, err
	}
	if !merged.Complete() {
		missing := merged.MissingRanges()
		sort.Strings(failures)
		return merged, fmt.Errorf("shard: incomplete sweep: missing trials %v:\n%s",
			missing, strings.Join(failures, "\n"))
	}
	return merged, nil
}

// journaled is a dispatched shard's result on its way to the journal.
type journaled struct {
	i   int
	res ShardResult
}

// groupCommit is coordinate's journal writer. It takes every result
// queued since its last commit, appends them as one batch, returns their
// backlog tokens once the batch is durable (or failed), and counts each
// journaled shard done via finish. It returns when queue is closed and
// drained. A journal failure is fatal rather than retryable —
// recomputing the shard will not fix the disk — so it is recorded in
// errs under the shard's range.
func groupCommit(journal *Journal, specs []ShardSpec, queue <-chan journaled, backlog <-chan struct{}, errs []error, finish func(int, ShardResult)) {
	var batch []journaled
	var results []ShardResult
	for first := range queue {
		batch = append(batch[:0], first)
	drain:
		for {
			select {
			case q, ok := <-queue:
				if !ok {
					break drain
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		results = results[:0]
		for _, q := range batch {
			results = append(results, q.res)
		}
		failed := journal.appendBatch(results)
		for range batch {
			<-backlog
		}
		for k, q := range batch {
			if failed[k] != nil {
				errs[q.i] = fmt.Errorf("shard %s: %w", specs[q.i].SpanRange(), failed[k])
				continue
			}
			finish(q.i, q.res)
		}
	}
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
