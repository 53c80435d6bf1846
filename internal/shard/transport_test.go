package shard

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochsynth/internal/rng"
)

// startTestServer runs a real TCP worker on loopback for the duration of
// the test.
func startTestServer(t *testing.T, reg *Registry) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listening on loopback: %v", err)
	}
	srv := Serve(ln, reg)
	t.Cleanup(srv.Close)
	return srv
}

func testPool(t *testing.T, opts RemoteOptions, servers ...*Server) *RemotePool {
	t.Helper()
	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.Addr().String()
	}
	pool, err := NewRemotePool(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// checkGoldenBinary pins raw frame bytes, sharing the -update flag with
// the JSON golden fixtures in wire_test.go. A drift without a
// ProtocolVersion bump is the bug.
func checkGoldenBinary(t *testing.T, name string, encoded []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update after an intentional, version-bumped change): %v", err)
	}
	if !bytes.Equal(encoded, want) {
		t.Fatalf("frame encoding of %s drifted without a ProtocolVersion bump.\ngot:  %x\nwant: %x", name, encoded, want)
	}
}

// TestGoldenFrameEncoding pins the transport framing byte for byte: the
// client and server handshake hellos and a spec frame. Like the JSON
// fixtures, any intentional change must bump ProtocolVersion and
// regenerate with -update.
func TestGoldenFrameEncoding(t *testing.T) {
	var client bytes.Buffer
	if err := writeHello(&client, Hello{Protocol: ProtocolVersion, Format: FormatVersion}); err != nil {
		t.Fatal(err)
	}
	checkGoldenBinary(t, "frame_hello_client.v3.bin", client.Bytes())

	var server bytes.Buffer
	err := writeHello(&server, Hello{
		Protocol: ProtocolVersion, Format: FormatVersion,
		Sweeps: testRegistry().Names(),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenBinary(t, "frame_hello_server.v3.bin", server.Bytes())

	payload, err := goldenSpec().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var spec bytes.Buffer
	if err := writeFrame(&spec, frameSpec, payload); err != nil {
		t.Fatal(err)
	}
	checkGoldenBinary(t, "frame_spec.v3.bin", spec.Bytes())
}

// TestOldHellosStillAccepted pins mixed-fleet compatibility across every
// format bump: the retained v1 and v2 hello fixtures must still pass the
// handshake check, and the retained old spec frames must still decode.
func TestOldHellosStillAccepted(t *testing.T) {
	for _, c := range []struct {
		helloFixture, specFixture string
		format                    int
	}{
		{"frame_hello_client.v1.bin", "frame_spec.v1.bin", 1},
		{"frame_hello_client.v2.bin", "frame_spec.v2.bin", 2},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", c.helloFixture))
		if err != nil {
			t.Fatal(err)
		}
		h, err := readHello(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if h.Format != c.format {
			t.Fatalf("%s carries format %d, want %d", c.helloFixture, h.Format, c.format)
		}
		if err := h.check(); err != nil {
			t.Fatalf("v%d peer rejected: %v", c.format, err)
		}
		rawSpec, err := os.ReadFile(filepath.Join("testdata", c.specFixture))
		if err != nil {
			t.Fatal(err)
		}
		ft, payload, err := readFrame(bytes.NewReader(rawSpec))
		if err != nil || ft != frameSpec {
			t.Fatalf("%s unreadable: type %s err %v", c.specFixture, ft, err)
		}
		if _, err := DecodeSpec(payload); err != nil {
			t.Fatalf("v%d spec payload no longer decodes: %v", c.format, err)
		}
	}
}

// TestMixedVersionHelloOverTCP runs the mixed-fleet handshake against a
// live server: a client announcing format 2 (an old coordinator mid-
// upgrade) must be accepted by a v3 worker and still able to run a
// non-network shard, while the version gate (not field strictness) is
// what keeps v3 network specs away from it.
func TestMixedVersionHelloOverTCP(t *testing.T) {
	srv := startTestServer(t, testRegistry())
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeHello(c, Hello{Protocol: ProtocolVersion, Format: formatVersionV2}); err != nil {
		t.Fatal(err)
	}
	h, err := readHello(c)
	if err != nil {
		t.Fatalf("v2 client rejected by v3 server: %v", err)
	}
	if h.Format != FormatVersion {
		t.Fatalf("server announced format %d, want %d", h.Format, FormatVersion)
	}
	// The old coordinator can still dispatch what its format can say.
	spec := testSweepSpec().Shard(0, 10)
	spec.Version = formatVersionV2
	payload, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c, frameSpec, payload); err != nil {
		t.Fatal(err)
	}
	ft, body, err := readFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if ft != frameResult {
		t.Fatalf("v2 spec answered with %s %q, want result", ft, body)
	}
	res, err := DecodeResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if !rangesEqual(res.Ranges, []Range{{0, 10}}) {
		t.Fatalf("v2-dispatched shard covered %v", res.Ranges)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("shard"), 1000)}
	types := []frameType{frameHello, frameSpec, frameResult, frameError, framePing, framePong, frameDrain}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := writeFrame(&buf, types[i%len(types)], p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		ft, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != types[i%len(types)] {
			t.Fatalf("frame %d type = %s, want %s", i, ft, types[i%len(types)])
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d payload mismatch", i)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("read past last frame: %v", err)
	}
}

// TestReadFrameRejectsOversized mirrors the JSON strictness tests at the
// framing layer: a length prefix past MaxFramePayload is rejected before
// any allocation.
func TestReadFrameRejectsOversized(t *testing.T) {
	head := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := readFrame(bytes.NewReader(head)); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
	if _, _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameSpec, make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized frame written")
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameResult, []byte(`{"some":"payload"}`)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, at := range []int{5, len(raw) - 6, len(raw) - 1} { // type byte, payload, checksum
		corrupt := append([]byte(nil), raw...)
		corrupt[at] ^= 0x40
		if _, _, err := readFrame(bytes.NewReader(corrupt)); err == nil {
			t.Errorf("bit flip at byte %d went undetected", at)
		}
	}
	// Truncation at any point is detected as a short read, never as a
	// valid shorter frame.
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := readFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestHandshakeRejectsUnknownVersions pins both directions of version
// strictness: a server refuses a future-protocol client with an error
// frame naming versions, and a client refuses a future-protocol server.
func TestHandshakeRejectsUnknownVersions(t *testing.T) {
	srv := startTestServer(t, testRegistry())

	for _, hello := range []Hello{
		{Protocol: ProtocolVersion + 1, Format: FormatVersion},
		{Protocol: ProtocolVersion, Format: FormatVersion + 1},
	} {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeHello(c, hello); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := readFrame(c)
		if err != nil {
			t.Fatalf("hello %+v: %v", hello, err)
		}
		if ft != frameError || !strings.Contains(string(payload), "this build speaks") {
			t.Fatalf("hello %+v answered with %s %q, want version-error frame", hello, ft, payload)
		}
		c.Close()
	}

	// Client side: a fake worker that answers the handshake with a future
	// protocol version must be rejected before any shard is sent.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := readHello(c); err != nil {
			return
		}
		writeHello(c, Hello{Protocol: ProtocolVersion + 1, Format: FormatVersion})
	}()
	pool, err := NewRemotePool([]string{ln.Addr().String()}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if _, err := pool.Runner()(testSweepSpec().Shard(0, 10)); err == nil || !strings.Contains(err.Error(), "this build speaks") {
		t.Fatalf("future-protocol server accepted: %v", err)
	}
}

// TestRemoteRunnerMatchesLocalRun is the transport's exactness anchor: a
// shard served over TCP is byte-identical to the same shard run
// in-process.
func TestRemoteRunnerMatchesLocalRun(t *testing.T) {
	reg := testRegistry()
	srv := startTestServer(t, reg)
	pool := testPool(t, RemoteOptions{}, srv)

	for _, spec := range []ShardSpec{
		testSweepSpec().Shard(25, 150),
		{Version: FormatVersion, Sweep: testNumericSweep, Grid: []float64{0.5, 2}, Trials: 80, Lo: 3, Hi: 61, Seed: 5, Numeric: true},
	} {
		remote, err := pool.Runner()(spec)
		if err != nil {
			t.Fatal(err)
		}
		local, err := Run(spec, reg)
		if err != nil {
			t.Fatal(err)
		}
		remoteEnc, err := remote.Encode()
		if err != nil {
			t.Fatal(err)
		}
		localEnc, err := local.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(remoteEnc, localEnc) {
			t.Fatalf("network result differs from local run:\n%s\nvs\n%s", remoteEnc, localEnc)
		}
	}
}

// countingConn counts Write calls on the wrapped connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServerWritesEachResponseOnce: the server buffers each response
// frame (header, payload, checksum) and flushes it in one write, so a
// response is one segment train, not three tiny segments.
func TestServerWritesEachResponseOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	srv := Serve(&flakyListener{Listener: ln, wrap: func(c net.Conn) net.Conn {
		return &countingConn{Conn: c, writes: &writes}
	}}, testRegistry())
	t.Cleanup(srv.Close)
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrip := func(what string, ft frameType, payload []byte, want frameType) {
		t.Helper()
		before := writes.Load()
		if ft == frameHello {
			err = writeHello(c, Hello{Protocol: ProtocolVersion, Format: FormatVersion})
		} else {
			err = writeFrame(c, ft, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := readFrame(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: got %s frame, want %s", what, got, want)
		}
		if n := writes.Load() - before; n != 1 {
			t.Fatalf("%s: response took %d writes, want 1", what, n)
		}
	}
	roundTrip("hello", frameHello, nil, frameHello)
	spec, err := testSweepSpec().Shard(0, 40).Encode()
	if err != nil {
		t.Fatal(err)
	}
	roundTrip("result", frameSpec, spec, frameResult)
	roundTrip("pong", framePing, []byte("keepalive"), framePong)
	bad := testSweepSpec()
	bad.Sweep = "no/such/sweep"
	badSpec, err := bad.Shard(0, 40).Encode()
	if err != nil {
		t.Fatal(err)
	}
	roundTrip("error", frameSpec, badSpec, frameError)
}

// TestRemoteRunnerPoolsConnectionsWithKeepalive: sequential shards to one
// worker reuse a single connection, revalidated by the ping/pong
// keepalive before each reuse.
func TestRemoteRunnerPoolsConnectionsWithKeepalive(t *testing.T) {
	srv := startTestServer(t, testRegistry())
	var dials atomic.Int64
	pool, err := NewRemotePool([]string{srv.Addr().String()}, RemoteOptions{
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec := testSweepSpec()
	for _, rg := range []Range{{0, 40}, {40, 90}, {90, 200}} {
		if _, err := pool.Runner()(spec.Shard(rg.Lo, rg.Hi)); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("3 sequential shards used %d connections, want 1 (pooled + keepalive)", n)
	}

	// Kill the server: the pooled connection must fail its keepalive ping
	// on next checkout, and the dispatch must surface a transport error
	// (not hang or return stale data).
	srv.Close()
	if _, err := pool.Runner()(spec.Shard(0, 10)); err == nil {
		t.Fatal("dispatch to a dead worker succeeded")
	}
}

// TestServerAnswersUnknownSweepWithErrorFrame exercises the server-side
// error path over a raw connection (the pool normally fails fast from
// the handshake's registry identity before sending anything).
func TestServerAnswersUnknownSweepWithErrorFrame(t *testing.T) {
	srv := startTestServer(t, testRegistry())
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeHello(c, Hello{Protocol: ProtocolVersion, Format: FormatVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(c); err != nil {
		t.Fatal(err)
	}
	spec := testSweepSpec().Shard(0, 10)
	spec.Sweep = "no/such-sweep"
	payload, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c, frameSpec, payload); err != nil {
		t.Fatal(err)
	}
	ft, body, err := readFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	if ft != frameError || !strings.Contains(string(body), "unknown sweep") {
		t.Fatalf("got %s %q, want unknown-sweep error frame", ft, body)
	}

	// The pool's fast path: same misdeployment caught client-side from
	// the handshake, without burning a round trip.
	pool := testPool(t, RemoteOptions{}, srv)
	if _, err := pool.Runner()(spec); err == nil || !strings.Contains(err.Error(), "does not register") {
		t.Fatalf("pool dispatched a sweep the worker does not register: %v", err)
	}
}

// blockingRegistry returns a registry whose tally sweep blocks each trial
// until released — the scaffolding for deterministic drain tests.
func blockingRegistry(entered chan<- struct{}, release <-chan struct{}) *Registry {
	reg := NewRegistry()
	reg.Register(testTallySweep, Factory{
		Outcomes: testOutcomes,
		Outcome: func(param float64) (OutcomeTrial, error) {
			return OutcomeTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Classify: func(eng any) int {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-release
					return 0
				},
			}, nil
		},
	})
	return reg
}

// TestServerDrainFinishesInFlightShard: Drain must let an in-flight
// shard finish and deliver its result, while refusing new work.
func TestServerDrainFinishesInFlightShard(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := startTestServer(t, blockingRegistry(entered, release))
	pool := testPool(t, RemoteOptions{}, srv)

	spec := SweepSpec{Sweep: testTallySweep, Grid: []float64{1}, Trials: 4, Seed: 1, Outcomes: testOutcomes}
	type outcome struct {
		res ShardResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := pool.Runner()(spec.Shard(0, 4))
		done <- outcome{res, err}
	}()
	<-entered // the shard is provably mid-flight

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	close(release)

	got := <-done
	if got.err != nil {
		t.Fatalf("in-flight shard failed during drain: %v", got.err)
	}
	if !rangesEqual(got.res.Ranges, []Range{{0, 4}}) {
		t.Fatalf("in-flight shard covered %v", got.res.Ranges)
	}
	<-drained

	if _, err := pool.Runner()(spec.Shard(0, 4)); err == nil {
		t.Fatal("drained server accepted new work")
	}
}

// TestServerRecoversPanickingTrial: a panicking trial body becomes an
// error frame carrying the stack, the server keeps serving, and the
// client keeps the connection — an application error must not cost a
// re-dial or a health demerit.
func TestServerRecoversPanickingTrial(t *testing.T) {
	reg := testRegistry()
	reg.Register("test/panics", Factory{
		Outcomes: 1,
		Outcome: func(param float64) (OutcomeTrial, error) {
			return OutcomeTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Classify:  func(eng any) int { panic("trial body exploded") },
			}, nil
		},
	})
	srv := startTestServer(t, reg)
	var dials atomic.Int64
	pool, err := NewRemotePool([]string{srv.Addr().String()}, RemoteOptions{
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec := SweepSpec{Sweep: "test/panics", Grid: []float64{1}, Trials: 4, Seed: 1, Outcomes: 1}
	_, err = pool.Runner()(spec.Shard(0, 4))
	if err == nil || !strings.Contains(err.Error(), "trial body exploded") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic not surfaced with stack: %v", err)
	}
	// The worker survived; a healthy sweep still runs — over the same
	// pooled connection (error frames leave the stream at a clean
	// boundary, so no re-dial).
	if _, err := pool.Runner()(testSweepSpec().Shard(0, 20)); err != nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("application error cost a re-dial: %d dials, want 1", n)
	}
}

// --- fault-injection harness -------------------------------------------

// flakyConn injects transport faults into a real connection: it can cut
// the stream dead after a byte budget (dropped/truncated frames), flip a
// bit at a chosen stream offset (corruption the checksum must catch), and
// delay reads (a stalled worker the shard deadline must catch). Faults
// apply to the read side, where the coordinator consumes worker frames.
type flakyConn struct {
	net.Conn
	mu        sync.Mutex
	readLimit int           // total readable bytes; < 0 = unlimited
	corruptAt int           // stream offset whose byte is bit-flipped; < 0 = never
	delay     time.Duration // sleep before every read
	seen      int
	faults    *atomic.Int64 // incremented when a fault actually fires
}

var errInjectedCut = errors.New("injected connection cut")

func (c *flakyConn) Read(p []byte) (int, error) {
	if c.delay > 0 {
		if c.faults != nil {
			c.faults.Add(1)
		}
		time.Sleep(c.delay)
	}
	c.mu.Lock()
	if c.readLimit >= 0 {
		if c.seen >= c.readLimit {
			c.mu.Unlock()
			if c.faults != nil {
				c.faults.Add(1)
			}
			c.Conn.Close()
			return 0, errInjectedCut
		}
		if remaining := c.readLimit - c.seen; len(p) > remaining {
			p = p[:remaining]
		}
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	if c.corruptAt >= c.seen && c.corruptAt < c.seen+n {
		p[c.corruptAt-c.seen] ^= 0x40
		if c.faults != nil {
			c.faults.Add(1)
		}
	}
	c.seen += n
	c.mu.Unlock()
	return n, err
}

// flakyListener wraps every accepted connection with the given fault
// maker — the server-side counterpart of dial-side injection.
type flakyListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l *flakyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// writeCountingConn counts the client's Write calls on a connection.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestRemoteRunnerPipelinesKeepaliveWithSpec: on a pooled connection the
// keepalive ping and the spec leave in one client write, so reuse costs
// no extra round trip before the spec is on its way. A freshly dialed
// connection writes the hello and then the spec, without a ping.
func TestRemoteRunnerPipelinesKeepaliveWithSpec(t *testing.T) {
	srv := startTestServer(t, testRegistry())
	var writes, dials atomic.Int64
	pool, err := NewRemotePool([]string{srv.Addr().String()}, RemoteOptions{
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			return &writeCountingConn{Conn: c, writes: &writes}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	spec := testSweepSpec()
	for i, rg := range []Range{{0, 40}, {40, 90}, {90, 150}, {150, 200}} {
		before := writes.Load()
		if _, err := pool.Runner()(spec.Shard(rg.Lo, rg.Hi)); err != nil {
			t.Fatal(err)
		}
		want := int64(1) // ping + spec, one flush
		if i == 0 {
			want = 2 // hello, then spec
		}
		if got := writes.Load() - before; got != want {
			t.Fatalf("shard %d: %d client writes, want %d", i, got, want)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("4 sequential shards used %d connections, want 1", n)
	}
}

// stallConn is a worker-side connection that, once stalled, keeps
// draining the client's bytes (so its writes succeed) but never delivers
// one to the server: a worker that has stopped answering without closing
// the connection.
type stallConn struct {
	net.Conn
	stalled *atomic.Bool
}

func (c *stallConn) Read(p []byte) (int, error) {
	for {
		n, err := c.Conn.Read(p)
		if err != nil || !c.stalled.Load() {
			return n, err
		}
	}
}

// TestRemoteRunnerDropsStalledPooledConnection: a pooled connection whose
// worker stops answering fails its keepalive within PingTimeout and is
// dropped; the shard then either finishes on a freshly dialed connection
// or, when the worker answers nothing at all, fails with a named error
// instead of hanging.
func TestRemoteRunnerDropsStalledPooledConnection(t *testing.T) {
	const pingTimeout = 200 * time.Millisecond
	const dialTimeout = 300 * time.Millisecond
	reg := testRegistry()
	spec := testSweepSpec()
	for _, tc := range []struct {
		name         string
		stallRedials bool // whether connections dialed after the stall stall too
	}{
		{"fresh connection finishes the shard", false},
		{"silent worker fails the shard", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var stall atomic.Bool
			var accepted atomic.Int64
			srv := Serve(&flakyListener{Listener: ln, wrap: func(c net.Conn) net.Conn {
				flag := &stall
				if accepted.Add(1) > 1 && !tc.stallRedials {
					flag = new(atomic.Bool)
				}
				return &stallConn{Conn: c, stalled: flag}
			}}, reg)
			defer srv.Close()
			pool := testPool(t, RemoteOptions{PingTimeout: pingTimeout, DialTimeout: dialTimeout}, srv)

			if _, err := pool.Runner()(spec.Shard(0, 10)); err != nil {
				t.Fatal(err)
			}
			stall.Store(true)
			sp := spec.Shard(10, 60)
			start := time.Now()
			res, err := pool.Runner()(sp)
			elapsed := time.Since(start)

			if tc.stallRedials {
				if err == nil {
					t.Fatal("shard on a silent worker succeeded")
				}
				if !strings.Contains(err.Error(), "shard: worker "+srv.Addr().String()+": handshake:") {
					t.Fatalf("error does not name the failed redial: %v", err)
				}
				if limit := pingTimeout + dialTimeout + time.Second; elapsed > limit {
					t.Fatalf("silent worker held the shard %v, want under %v", elapsed, limit)
				}
				return
			}
			if err != nil {
				t.Fatalf("shard did not finish on a fresh connection: %v", err)
			}
			if elapsed < pingTimeout || elapsed > pingTimeout+time.Second {
				t.Fatalf("stalled connection dropped after %v, want PingTimeout (%v) plus a fresh round trip", elapsed, pingTimeout)
			}
			want, err := Run(sp, reg)
			if err != nil {
				t.Fatal(err)
			}
			gotEnc, err := res.Encode()
			if err != nil {
				t.Fatal(err)
			}
			wantEnc, err := want.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotEnc, wantEnc) {
				t.Fatal("shard finished on the fresh connection differs from a local run")
			}
			// The stalled connection is gone from the pool: the next shard
			// reuses the fresh one, without another dial.
			if _, err := pool.Runner()(spec.Shard(60, 100)); err != nil {
				t.Fatal(err)
			}
			if n := accepted.Load(); n != 2 {
				t.Fatalf("worker accepted %d connections, want 2 (the stalled one and its replacement)", n)
			}
		})
	}
}
