package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.journal")
}

func encodeOrDie(t *testing.T, res ShardResult) []byte {
	t.Helper()
	enc, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestJournalRoundTrip(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)

	j, replayed, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d results", len(replayed))
	}
	var appended []ShardResult
	for _, rg := range []Range{{0, 50}, {50, 120}} {
		res, err := Run(spec.Shard(rg.Lo, rg.Hi), reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(res); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, res)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != len(appended) {
		t.Fatalf("replayed %d results, want %d", len(replayed), len(appended))
	}
	for i := range appended {
		if !bytes.Equal(encodeOrDie(t, replayed[i]), encodeOrDie(t, appended[i])) {
			t.Fatalf("record %d does not round-trip", i)
		}
	}
}

func TestJournalRejectsForeignSweepAndGarbage(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)
	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec.Shard(0, 30), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res); err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := spec
	other.Seed++
	if _, _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal of a different seed accepted")
	}
	other = spec
	other.Trials = 300
	if _, _, err := OpenJournal(path, other); err == nil {
		t.Fatal("journal of a different trial total accepted")
	}

	// Appending a result of another sweep must be refused before it hits
	// the disk.
	j2, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	foreign := res
	foreign.Seed++
	if err := j2.Append(foreign); err == nil {
		t.Fatal("foreign result appended")
	}

	// A file that is not a journal at all is refused, never truncated —
	// including foreign files shorter than the magic.
	for _, content := range []string{"do not clobber me, I am somebody's file", "tiny", "x"} {
		garbage := filepath.Join(t.TempDir(), "notes.txt")
		if err := os.WriteFile(garbage, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenJournal(garbage, spec); err == nil {
			t.Fatalf("non-journal file %q accepted", content)
		}
		kept, err := os.ReadFile(garbage)
		if err != nil || string(kept) != content {
			t.Fatalf("OpenJournal damaged the foreign file %q: now %q", content, kept)
		}
	}

	// A crash mid-creation can leave a bare prefix of the magic; that is
	// ours, and reopening rewrites it into a fresh journal.
	torn := filepath.Join(t.TempDir(), "torn.journal")
	if err := os.WriteFile(torn, []byte(journalMagic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	jt, replayed, err := OpenJournal(torn, spec)
	if err != nil {
		t.Fatalf("torn-creation journal not rewritten: %v", err)
	}
	jt.Close()
	if len(replayed) != 0 {
		t.Fatalf("torn-creation journal replayed %d results", len(replayed))
	}
}

// TestJournalRefusesOversizedRecord: a record replay would reject as a
// torn tail (and truncate, with everything after it) must be refused at
// write time instead.
func TestJournalRefusesOversizedRecord(t *testing.T) {
	spec := testSweepSpec()
	j, _, err := OpenJournal(tmpJournal(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.appendRecord(make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized journal record written; resume would truncate it away as a torn tail")
	}
	// The refusal must not poison the journal: regular appends still work.
	res, err := Run(spec.Shard(0, 10), testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res); err != nil {
		t.Fatalf("journal poisoned by refused oversize record: %v", err)
	}
}

// TestJournalRefusesConcurrentCoordinators: the exclusive lock keeps a
// resume rerun from interleaving appends with a still-running (hung, not
// dead) original coordinator.
func TestJournalRefusesConcurrentCoordinators(t *testing.T) {
	spec := testSweepSpec()
	path := tmpJournal(t)
	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, spec); err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("second coordinator acquired a held journal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatalf("journal not reopenable after release: %v", err)
	}
	j2.Close()
}

// recordingRunner wraps a runner, tracking every dispatched trial range.
func recordingRunner(run Runner) (Runner, *[]Range) {
	var mu sync.Mutex
	ranges := &[]Range{}
	return func(sp ShardSpec) (ShardResult, error) {
		mu.Lock()
		*ranges = append(*ranges, sp.SpanRange())
		mu.Unlock()
		return run(sp)
	}, ranges
}

func dispatchedTrials(ranges []Range) int {
	n := 0
	for _, rg := range ranges {
		n += rg.Len()
	}
	return n
}

// TestJournalTornTailEveryByteOffset is the torn-write sweep: a journal
// holding two results is truncated at *every* byte offset of its last
// record — the exact file states a crash mid-append can leave — and for
// each, OpenJournal must salvage the intact prefix and ResumeCoordinate
// must re-run only the missing trials and merge to a result bit-for-bit
// identical to an uninterrupted run.
func TestJournalTornTailEveryByteOffset(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)

	j, _, err := OpenJournal(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(spec.Shard(0, 50), reg)
	if err != nil {
		t.Fatal(err)
	}
	last, err := Run(spec.Shard(50, 120), reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(last); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastRecord := 8 + len(encodeOrDie(t, last))
	lastStart := len(data) - lastRecord

	want, err := Coordinate(spec, 1, LocalRunner(reg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := encodeOrDie(t, want)

	dir := t.TempDir()
	for cut := lastStart; cut < len(data); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.journal", cut))
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jt, replayed, err := OpenJournal(torn, spec)
		if err != nil {
			t.Fatalf("cut at %d: torn tail not tolerated: %v", cut, err)
		}
		jt.Close()
		if len(replayed) != 1 {
			t.Fatalf("cut at %d: replayed %d results, want the 1 intact record", cut, len(replayed))
		}
		if !bytes.Equal(encodeOrDie(t, replayed[0]), encodeOrDie(t, first)) {
			t.Fatalf("cut at %d: surviving record mutated", cut)
		}

		run, dispatched := recordingRunner(LocalRunner(reg))
		got, err := ResumeCoordinate(spec, torn, 4, run, Options{Parallel: 1})
		if err != nil {
			t.Fatalf("cut at %d: resume failed: %v", cut, err)
		}
		if !bytes.Equal(encodeOrDie(t, got), wantEnc) {
			t.Fatalf("cut at %d: resumed merge differs from uninterrupted run", cut)
		}
		// Only the missing trials — [50, 200) after losing the torn
		// record — may have been recomputed.
		if n := dispatchedTrials(*dispatched); n != spec.Trials-50 {
			t.Fatalf("cut at %d: resume dispatched %d trials, want %d", cut, n, spec.Trials-50)
		}
		for _, rg := range *dispatched {
			if rg.Lo < 50 {
				t.Fatalf("cut at %d: resume re-ran journaled range %s", cut, rg)
			}
		}
	}
}

// TestResumeCoordinateResumesKilledSweep kills a journaling coordinator
// after k shards (the runner starts failing permanently) and resumes it:
// the resumed sweep must dispatch exactly the missing trials and merge
// bit-for-bit with an uninterrupted single-process run.
func TestResumeCoordinateResumesKilledSweep(t *testing.T) {
	reg := testRegistry()
	for _, kind := range []string{"tally", "numeric", "dist"} {
		t.Run(kind, func(t *testing.T) {
			spec := testSweepSpec()
			switch kind {
			case "numeric":
				spec = SweepSpec{Sweep: testNumericSweep, Grid: []float64{0.5, 3}, Trials: 200, Seed: 11, Numeric: true}
			case "dist":
				spec = SweepSpec{Sweep: testDistSweep, Grid: []float64{0.5, 3}, Trials: 200, Seed: 11,
					Outcomes: testOutcomes, Dist: true}
			}
			path := tmpJournal(t)

			var completed atomic.Int64
			dying := func(sp ShardSpec) (ShardResult, error) {
				if completed.Load() >= 3 {
					return ShardResult{}, fmt.Errorf("injected coordinator death")
				}
				res, err := Run(sp, reg)
				if err == nil {
					completed.Add(1)
				}
				return res, err
			}
			if _, err := ResumeCoordinate(spec, path, 8, dying, Options{Parallel: 1}); err == nil {
				t.Fatal("killed sweep reported success")
			}

			jr, replayed, err := OpenJournal(path, spec)
			if err != nil {
				t.Fatal(err)
			}
			jr.Close()
			journaled := 0
			for _, res := range replayed {
				journaled += res.Covered()
			}
			if journaled == 0 || journaled >= spec.Trials {
				t.Fatalf("journal covers %d trials after the kill, want partial coverage", journaled)
			}

			run, dispatched := recordingRunner(LocalRunner(reg))
			got, err := ResumeCoordinate(spec, path, 8, run, Options{Parallel: 1})
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if n := dispatchedTrials(*dispatched); n != spec.Trials-journaled {
				t.Fatalf("resume dispatched %d trials, want the %d missing", n, spec.Trials-journaled)
			}
			want, err := Coordinate(spec, 1, LocalRunner(reg), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, want)) {
				t.Fatal("resumed merge differs from uninterrupted single-process run")
			}
		})
	}
}

// TestResumeCoordinateCompleteJournalDispatchesNothing: re-running a
// finished sweep is a pure journal read.
func TestResumeCoordinateCompleteJournalDispatchesNothing(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)
	want, err := ResumeCoordinate(spec, path, 4, LocalRunner(reg), Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(sp ShardSpec) (ShardResult, error) {
		t.Errorf("complete journal re-dispatched shard %s", sp.SpanRange())
		return ShardResult{}, fmt.Errorf("should not run")
	}
	got, err := ResumeCoordinate(spec, path, 4, refuse, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, want)) {
		t.Fatal("journal replay differs from the original merge")
	}
}

// TestResumeCoordinateFreshRunMatchesCoordinate: journaling must not
// perturb results — a fresh journaled sweep equals the plain coordinator
// bit for bit.
func TestResumeCoordinateFreshRunMatchesCoordinate(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	got, err := ResumeCoordinate(spec, tmpJournal(t), 5, LocalRunner(reg), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Coordinate(spec, 5, LocalRunner(reg), Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOrDie(t, got), encodeOrDie(t, want)) {
		t.Fatal("journaled sweep differs from plain Coordinate")
	}
}

// TestResumeCoordinateOverNetworkWorkers closes the loop on the two new
// subsystems together: a journaling coordinator dispatching to TCP
// workers is killed (runner-side) partway, then resumed against the same
// fleet, and the final merge is bitwise identical to the unsharded run.
func TestResumeCoordinateOverNetworkWorkers(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	srv1 := startTestServer(t, reg)
	srv2 := startTestServer(t, reg)
	pool := testPool(t, RemoteOptions{}, srv1, srv2)
	path := tmpJournal(t)

	var completed atomic.Int64
	netRun := pool.Runner()
	dying := func(sp ShardSpec) (ShardResult, error) {
		if completed.Load() >= 2 {
			return ShardResult{}, fmt.Errorf("injected coordinator death")
		}
		res, err := netRun(sp)
		if err == nil {
			completed.Add(1)
		}
		return res, err
	}
	if _, err := ResumeCoordinate(spec, path, 6, dying, Options{Parallel: 1}); err == nil {
		t.Fatal("killed sweep reported success")
	}
	merged, err := ResumeCoordinate(spec, path, 6, netRun, Options{Parallel: 2, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	expectTallyBitwise(t, spec, merged)
}

// journaledRanges replays the journal file at path byte by byte (the
// coordinator holds its lock, so OpenJournal cannot) and returns the
// trial ranges its result records cover.
func journaledRanges(t *testing.T, path string) []Range {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ranges []Range
	rest := data[len(journalMagic):]
	for header := true; len(rest) > 0; header = false {
		payload, n, ok := readJournalRecord(rest)
		if !ok {
			t.Fatalf("journal has a torn record at byte %d", len(data)-len(rest))
		}
		if !header {
			res, err := DecodeResult(payload)
			if err != nil {
				t.Fatal(err)
			}
			ranges = append(ranges, res.Ranges...)
		}
		rest = rest[n:]
	}
	return ranges
}

// TestJournaledDispatchRespectsParallel: releasing the slot before the
// journal fsync must not let more than Parallel shards reach the runner
// at once.
func TestJournaledDispatchRespectsParallel(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	for _, parallel := range []int{1, 2, 3} {
		var inflight, over atomic.Int64
		counting := func(sp ShardSpec) (ShardResult, error) {
			if n := inflight.Add(1); n > int64(parallel) {
				over.Store(n)
			}
			defer inflight.Add(-1)
			time.Sleep(time.Millisecond)
			return Run(sp, reg)
		}
		merged, err := ResumeCoordinate(spec, tmpJournal(t), 12, counting, Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		expectTallyBitwise(t, spec, merged)
		if n := over.Load(); n != 0 {
			t.Fatalf("Parallel %d: %d shards were at the runner at once", parallel, n)
		}
	}
}

// TestShardDoneAfterJournalRecord: when OnShardDone reports a shard, the
// journal file already holds that shard's record.
func TestShardDoneAfterJournalRecord(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	path := tmpJournal(t)
	var mu sync.Mutex
	calls := 0
	opts := Options{Parallel: 2, OnShardDone: func(_, _ int, res ShardResult) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		for _, rg := range journaledRanges(t, path) {
			if rangesEqual([]Range{rg}, res.Ranges) {
				return
			}
		}
		t.Errorf("shard %v reported done before its journal record landed", res.Ranges)
	}}
	if _, err := ResumeCoordinate(spec, path, 8, LocalRunner(reg), opts); err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Fatalf("OnShardDone called %d times, want 8", calls)
	}
}

// TestNextDispatchOverlapsJournal: with Parallel 1 the next shard reaches
// the runner while the previous one is still being journaled, so a
// shard's fsync overlaps the next shard's round trip.
func TestNextDispatchOverlapsJournal(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	var calls atomic.Int64
	second := make(chan struct{})
	run := func(sp ShardSpec) (ShardResult, error) {
		if calls.Add(1) == 2 {
			close(second)
		}
		return Run(sp, reg)
	}
	var once sync.Once
	opts := Options{Parallel: 1, OnShardDone: func(int, int, ShardResult) {
		once.Do(func() {
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Error("the next shard was not dispatched until the previous one was journaled")
			}
		})
	}}
	merged, err := ResumeCoordinate(spec, tmpJournal(t), 4, run, opts)
	if err != nil {
		t.Fatal(err)
	}
	expectTallyBitwise(t, spec, merged)
}

// TestJournalFailureFailsSweep: a journal that dies mid-sweep still fails
// the sweep, and every shard it could not record is reported missing.
func TestJournalFailureFailsSweep(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	j, _, err := OpenJournal(tmpJournal(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var mu sync.Mutex
	var done []Range
	first := make(chan struct{})
	opts := Options{Parallel: 1, OnShardDone: func(_, _ int, res ShardResult) {
		mu.Lock()
		done = append(done, res.Ranges...)
		if len(done) == 1 {
			close(first)
		}
		mu.Unlock()
	}}
	var calls atomic.Int64
	run := func(sp ShardSpec) (ShardResult, error) {
		if calls.Add(1) == 2 {
			// Kill the journal's file once the first shard is durable.
			<-first
			j.mu.Lock()
			j.f.Close()
			j.mu.Unlock()
		}
		return Run(sp, reg)
	}
	shards := spec.Partition(5)
	merged, err := coordinate(spec, shards, nil, j, run, opts)
	if err == nil {
		t.Fatal("sweep with a dead journal reported success")
	}
	if len(done) != 1 {
		t.Fatalf("%d shards counted done, want only the one journaled before the failure", len(done))
	}
	if !strings.Contains(err.Error(), "journal append") {
		t.Fatalf("error does not name the journal failure: %v", err)
	}
	var want []Range
	for _, sp := range shards {
		if rg := sp.SpanRange(); rg != done[0] {
			want = append(want, rg)
			if !strings.Contains(err.Error(), rg.String()) {
				t.Errorf("error does not name the unjournaled range %s: %v", rg, err)
			}
		}
	}
	wantMissing, err := mergeRanges(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.MissingRanges(); !rangesEqual(got, wantMissing) {
		t.Fatalf("missing ranges %v, want %v", got, wantMissing)
	}
}

// TestJournalBacklogBounded: while the journal is stalled, dispatch stops
// once journalBacklog finished shards wait for it (plus the one holding
// the slot), and resumes when the journal does.
func TestJournalBacklogBounded(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	j, _, err := OpenJournal(tmpJournal(t), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var calls atomic.Int64
	run := func(sp ShardSpec) (ShardResult, error) {
		calls.Add(1)
		return Run(sp, reg)
	}
	j.mu.Lock() // stall every Append
	type outcome struct {
		res ShardResult
		err error
	}
	finished := make(chan outcome, 1)
	go func() {
		res, err := coordinate(spec, spec.Partition(40), nil, j, run, Options{Parallel: 1})
		finished <- outcome{res, err}
	}()
	const want = journalBacklog + 1
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for a dispatch past the bound
	got := calls.Load()
	j.mu.Unlock()
	if got != want {
		t.Fatalf("%d shards dispatched while the journal stalled, want %d", got, want)
	}
	out := <-finished
	if out.err != nil {
		t.Fatal(out.err)
	}
	expectTallyBitwise(t, spec, out.res)
}

// TestJournalGroupCommit: a batch writes exactly the bytes the same
// results appended one by one write, so group commit changes neither
// the record layout nor the torn-tail rule; a result foreign to the
// sweep fails alone, and a failed write fails every record of the batch
// with the named journal error and poisons the journal.
func TestJournalGroupCommit(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	var results []ShardResult
	for _, rg := range []Range{{0, 30}, {30, 100}, {100, 200}} {
		res, err := Run(spec.Shard(rg.Lo, rg.Hi), reg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	foreign := results[1]
	foreign.Seed++

	onePath, batchPath := tmpJournal(t), tmpJournal(t)+".batch"
	one, _, err := OpenJournal(onePath, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if err := one.Append(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	batch, _, err := OpenJournal(batchPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	errs := batch.appendBatch([]ShardResult{results[0], foreign, results[1], results[2]})
	for i, err := range errs {
		if (err != nil) != (i == 1) {
			t.Fatalf("record %d: %v (only the foreign record 1 should fail)", i, err)
		}
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(onePath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("group commit wrote %d bytes that differ from %d bytes of one-by-one appends", len(got), len(want))
	}

	dead, replayed, err := OpenJournal(batchPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	if len(replayed) != len(results) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(results))
	}
	dead.mu.Lock()
	dead.f.Close()
	dead.mu.Unlock()
	errs = dead.appendBatch(results[:2])
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "journal append") {
			t.Fatalf("record %d of a failed batch: %v, want the named journal error", i, err)
		}
	}
	if err := dead.Append(results[2]); err != errs[0] {
		t.Fatalf("append after a failed batch: %v, want the poisoning error %v", err, errs[0])
	}
}
