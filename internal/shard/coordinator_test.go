package shard

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testSweepSpec() SweepSpec {
	return SweepSpec{
		Sweep: testTallySweep, Grid: []float64{1, 6}, Trials: 200, Seed: 11, Outcomes: testOutcomes,
	}
}

func TestCoordinateMatchesSingleProcess(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	want := singleProcessTally(spec)
	for _, shards := range []int{1, 3, 8} {
		merged, err := Coordinate(spec, shards, LocalRunner(reg), Options{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := merged.SweepPoints()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range want {
			for o := range want[i].Result.Counts {
				if got[i].Result.Counts[o] != want[i].Result.Counts[o] {
					t.Fatalf("shards=%d point %d outcome %d: %d, want %d",
						shards, i, o, got[i].Result.Counts[o], want[i].Result.Counts[o])
				}
			}
		}
	}
}

func TestCoordinatePartitionCoversExactly(t *testing.T) {
	spec := testSweepSpec()
	for _, n := range []int{1, 3, 7, 200, 500} {
		shards := spec.Partition(n)
		at := 0
		for _, sp := range shards {
			if sp.Lo != at {
				t.Fatalf("n=%d: shard starts at %d, want %d", n, sp.Lo, at)
			}
			if sp.Hi < sp.Lo {
				t.Fatalf("n=%d: negative shard %s", n, sp.SpanRange())
			}
			at = sp.Hi
		}
		if at != spec.Trials {
			t.Fatalf("n=%d: partition covers [0,%d), want [0,%d)", n, at, spec.Trials)
		}
		if n <= spec.Trials && len(shards) != n {
			t.Fatalf("n=%d: got %d shards", n, len(shards))
		}
	}
}

func TestCoordinateRetriesFlakyWorker(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	var calls atomic.Int64
	flaky := func(sp ShardSpec) (ShardResult, error) {
		if calls.Add(1)%2 == 1 {
			return ShardResult{}, fmt.Errorf("injected transient failure")
		}
		return Run(sp, reg)
	}
	merged, err := Coordinate(spec, 4, flaky, Options{Retries: 2})
	if err != nil {
		t.Fatalf("retrying coordinator failed: %v", err)
	}
	if !merged.Complete() {
		t.Fatal("retried sweep incomplete")
	}
}

func TestCoordinateReportsMissingRangesOnWorkerFailure(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	shards := spec.Partition(4)
	dead := shards[2].SpanRange()
	runner := func(sp ShardSpec) (ShardResult, error) {
		if sp.SpanRange() == dead {
			return ShardResult{}, fmt.Errorf("worker lost")
		}
		return Run(sp, reg)
	}
	_, err := Coordinate(spec, 4, runner, Options{})
	if err == nil {
		t.Fatal("coordinator succeeded with a dead shard")
	}
	if !strings.Contains(err.Error(), dead.String()) {
		t.Fatalf("error does not name the missing range %s: %v", dead, err)
	}
}

func TestCoordinateRejectsWrongRangeFromWorker(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	// A confused worker that always computes the first quarter, whatever
	// it was asked: the coordinator must refuse the wrong coverage rather
	// than merge a duplicate.
	confused := func(sp ShardSpec) (ShardResult, error) {
		sp.Lo, sp.Hi = 0, 50
		return Run(sp, reg)
	}
	_, err := Coordinate(spec, 4, confused, Options{})
	if err == nil {
		t.Fatal("coordinator accepted wrong-range results")
	}
}

// expectTallyBitwise asserts a merged result equals the unsharded
// single-process sweep bit for bit.
func expectTallyBitwise(t *testing.T, spec SweepSpec, merged ShardResult) {
	t.Helper()
	got, err := merged.SweepPoints()
	if err != nil {
		t.Fatal(err)
	}
	want := singleProcessTally(spec)
	for i := range want {
		if want[i].Result.None != got[i].Result.None {
			t.Fatalf("point %d: none %d, want %d", i, got[i].Result.None, want[i].Result.None)
		}
		for o := range want[i].Result.Counts {
			if want[i].Result.Counts[o] != got[i].Result.Counts[o] {
				t.Fatalf("point %d outcome %d: %d, want %d", i, o,
					got[i].Result.Counts[o], want[i].Result.Counts[o])
			}
		}
	}
}

// TestCoordinateRetriesOntoHealthyWorkersThroughFaults is the transport
// fault-injection suite: one worker of a three-worker fleet has its
// connections sabotaged — frames dropped mid-shard, truncated, corrupted,
// or delayed past the shard deadline — and in every mode the coordinator
// must route retries onto the healthy workers and still merge a sweep
// bit-for-bit identical to the unsharded mc.Run path.
func TestCoordinateRetriesOntoHealthyWorkersThroughFaults(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()

	cases := map[string]struct {
		opts RemoteOptions
		wrap func(net.Conn, *atomic.Int64) net.Conn
	}{
		// The connection dies after ~120 bytes read: enough to survive
		// the handshake, so the first result frame is cut off mid-stream.
		"drops connection mid-result": {
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: 120, corruptAt: -1, faults: faults}
			},
		},
		// The stream is cut inside the frame header of the first result:
		// a truncated frame, not a clean close.
		"truncates result frame": {
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: 82, corruptAt: -1, faults: faults}
			},
		},
		// A bit flip deep in the result frame: the CRC must catch it and
		// the coordinator must treat the worker as unusable, not merge
		// silently corrupted tallies.
		"corrupts result frame": {
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: -1, corruptAt: 150, faults: faults}
			},
		},
		// The worker stalls: reads outlast the shard deadline.
		"delays frames past the deadline": {
			opts: RemoteOptions{ShardTimeout: 150 * time.Millisecond, DialTimeout: 2 * time.Second},
			wrap: func(c net.Conn, faults *atomic.Int64) net.Conn {
				return &flakyConn{Conn: c, readLimit: -1, corruptAt: -1, delay: 400 * time.Millisecond, faults: faults}
			},
		},
	}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			healthy1 := startTestServer(t, reg)
			healthy2 := startTestServer(t, reg)
			faulty := startTestServer(t, reg)
			faultyAddr := faulty.Addr().String()

			var faults atomic.Int64
			opts := tc.opts
			opts.Dial = func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					return nil, err
				}
				if addr == faultyAddr {
					return tc.wrap(c, &faults), nil
				}
				return c, nil
			}
			pool, err := NewRemotePool(
				[]string{faultyAddr, healthy1.Addr().String(), healthy2.Addr().String()}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			merged, err := Coordinate(spec, 6, pool.Runner(), Options{Parallel: 3, Retries: 4})
			if err != nil {
				t.Fatalf("coordinator did not survive the faulty worker: %v", err)
			}
			if faults.Load() == 0 {
				t.Fatal("fault injection never fired; the test proved nothing")
			}
			expectTallyBitwise(t, spec, merged)
		})
	}
}

// TestCoordinateSurvivesServerSideFlakiness drives the flakyListener
// side of the harness: a worker whose *accepted* connections corrupt
// traffic is indistinguishable from a broken NIC, and the coordinator
// must still converge on the healthy worker.
func TestCoordinateSurvivesServerSideFlakiness(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var faults atomic.Int64
	flaky := Serve(&flakyListener{Listener: ln, wrap: func(c net.Conn) net.Conn {
		// Server-side read faults cut the coordinator's frames: the spec
		// frame never arrives whole, so the worker hangs up mid-request.
		return &flakyConn{Conn: c, readLimit: 60, corruptAt: -1, faults: &faults}
	}}, reg)
	defer flaky.Close()
	healthy := startTestServer(t, reg)

	pool := testPool(t, RemoteOptions{}, flaky, healthy)
	merged, err := Coordinate(spec, 4, pool.Runner(), Options{Parallel: 2, Retries: 3})
	if err != nil {
		t.Fatalf("coordinator did not survive the flaky listener: %v", err)
	}
	if faults.Load() == 0 {
		t.Fatal("fault injection never fired")
	}
	expectTallyBitwise(t, spec, merged)
}

// TestCoordinateDrainingWorkerShardsReassigned: shards answered with a
// drain frame are retried onto the remaining worker, preserving the
// bitwise merge.
func TestCoordinateDrainingWorkerShardsReassigned(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	draining := startTestServer(t, reg)
	healthy := startTestServer(t, reg)
	pool := testPool(t, RemoteOptions{}, draining, healthy)
	draining.Drain()

	merged, err := Coordinate(spec, 4, pool.Runner(), Options{Parallel: 2, Retries: 3})
	if err != nil {
		t.Fatalf("coordinator did not survive a draining worker: %v", err)
	}
	expectTallyBitwise(t, spec, merged)
}

// TestExecRunnerAttachesStderr: whatever a worker process writes to
// stderr must land in the returned error — on non-zero exits and on
// exit-0-with-garbage alike — so retry logs explain the failure.
func TestExecRunnerAttachesStderr(t *testing.T) {
	spec := testSweepSpec().Shard(0, 50)

	_, err := ExecRunner("sh", "-c", "echo the-actual-reason >&2; exit 3")(spec)
	if err == nil || !strings.Contains(err.Error(), "the-actual-reason") {
		t.Fatalf("stderr of a failing worker not attached: %v", err)
	}
	if !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("exit status missing from error: %v", err)
	}

	_, err = ExecRunner("sh", "-c", "echo not-json; echo decode-side-clue >&2")(spec)
	if err == nil || !strings.Contains(err.Error(), "decode-side-clue") {
		t.Fatalf("stderr of an exit-0 worker with garbage output not attached: %v", err)
	}
}

// TestStderrSuffixKeepsTail: a log-spewing worker is capped, keeping the
// tail where the panic lives.
func TestStderrSuffixKeepsTail(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&buf, "noise line %d\n", i)
	}
	buf.WriteString("panic: the part that matters")
	got := stderrSuffix(&buf)
	if len(got) > maxStderrAttach+64 {
		t.Fatalf("suffix not capped: %d bytes", len(got))
	}
	if !strings.Contains(got, "panic: the part that matters") {
		t.Fatal("tail of stderr (the panic) was lost")
	}
	var empty bytes.Buffer
	if s := stderrSuffix(&empty); s != "" {
		t.Fatalf("empty stderr produced suffix %q", s)
	}
}

func TestCoordinateRejectsForeignResult(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	// A worker answering for a different seed must be rejected before the
	// merge can silently mix streams.
	foreign := func(sp ShardSpec) (ShardResult, error) {
		sp.Seed++
		return Run(sp, reg)
	}
	if _, err := Coordinate(spec, 2, foreign, Options{}); err == nil {
		t.Fatal("coordinator accepted results for a different seed")
	}
}

// TestCoordinateRunsParallelDispatchers: Coordinate runs Parallel
// long-lived dispatchers (plus the journal writer), not one goroutine
// per shard, and still merges bit for bit.
func TestCoordinateRunsParallelDispatchers(t *testing.T) {
	reg := testRegistry()
	spec := testSweepSpec()
	const parallel, shards = 2, 50
	// Precomputed results keep the runner itself from starting
	// goroutines (Run's mc workers) that would blur the count.
	done := make(map[Range]ShardResult)
	for _, sp := range spec.Partition(shards) {
		res, err := Run(sp, reg)
		if err != nil {
			t.Fatal(err)
		}
		done[sp.SpanRange()] = res
	}
	for _, journaled := range []bool{false, true} {
		base := runtime.NumGoroutine()
		var most atomic.Int64
		run := func(sp ShardSpec) (ShardResult, error) {
			n := int64(runtime.NumGoroutine())
			for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
			}
			return done[sp.SpanRange()], nil
		}
		opts := Options{Parallel: parallel}
		var merged ShardResult
		var err error
		if journaled {
			merged, err = ResumeCoordinate(spec, tmpJournal(t), shards, run, opts)
		} else {
			merged, err = Coordinate(spec, shards, run, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		expectTallyBitwise(t, spec, merged)
		want := base + parallel
		if journaled {
			want++ // the journal writer
		}
		if got := int(most.Load()); got > want {
			t.Fatalf("journal=%v: %d goroutines during dispatch, want at most %d (%d before, %d dispatchers)",
				journaled, got, want, base, parallel)
		}
	}
}
