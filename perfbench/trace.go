package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"stochsynth/internal/rng"
	"stochsynth/internal/shard"
)

// wallNow is the benchmark's only wall-clock read; every timing goes
// through it. Timing is this program's purpose, so the read is exempt from
// the repository's determinism lint, which walks this directory too.
func wallNow() time.Time {
	return time.Now() //stochlint:allow wallclock
}

// span is one timed call into a layer. Spans of one sweep share its
// Sweep id (the request identifier); times are nanoseconds since the
// tracer started.
type span struct {
	Sweep int    `json:"sweep"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	sweep int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

func (t *tracer) now() int64 { return int64(wallNow().Sub(t.t0)) }

func (t *tracer) add(layer string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Sweep: t.sweep, Layer: layer, Start: start, End: end})
	t.mu.Unlock()
}

// beginSweep opens sweep k's request id; sweeps never overlap.
func (t *tracer) beginSweep(k int) {
	t.mu.Lock()
	t.sweep = k
	t.mu.Unlock()
}

func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	header["spans"] = t.spans
	raw, err := json.Marshal(header)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// Layers in the order self time is charged: at each instant of a traced
// sweep the first active layer of this list — the deepest call on the
// blocking path — gets the time.
var layerOrder = []string{"mc.trial", "sim.new_engine", "lambda.model_build", "shard.journal", "shard.rt", "sweep"}

// selfTimes charges every instant covered by spans to the deepest layer
// active at that instant and returns the time charged to each layer.
func selfTimes(spans []span) map[string]time.Duration {
	rank := make(map[string]int, len(layerOrder))
	for i, l := range layerOrder {
		rank[l] = i
	}
	type edge struct {
		t     int64
		delta int
		rank  int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		r, ok := rank[s.Layer]
		if !ok {
			continue
		}
		edges = append(edges, edge{s.Start, 1, r}, edge{s.End, -1, r})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	active := make([]int, len(layerOrder))
	out := make(map[string]time.Duration, len(layerOrder))
	var prev int64
	for _, e := range edges {
		for r, n := range active {
			if n > 0 {
				out[layerOrder[r]] += time.Duration(e.t - prev)
				break
			}
		}
		active[e.rank] += e.delta
		prev = e.t
	}
	return out
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, math.MinInt64
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// minTail is the least number of samples a reported tail percentile must
// have beyond it.
const minTail = 10

// tailPercentile returns the value at the highest percentile, at most
// want, that still has minTail samples beyond it, and that percentile.
// ok is false when fewer than 2·minTail samples leave not even the
// median with minTail beyond it; the maximum is returned then.
func tailPercentile(xs []float64, want float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 2*minTail {
		return s[n-1], 100, false
	}
	// Nearest rank: the want-th percentile is the ceil(want·n/100)-th
	// smallest sample; the rule caps the rank at n−minTail.
	if rank := int(math.Ceil(want/100*float64(n) - 1e-9)); rank <= n-minTail {
		return s[rank-1], want, true
	}
	return s[n-minTail-1], 100 * float64(n-minTail) / float64(n), true
}

// dispatchLog counts one sweep's Runner calls per trial range. A call
// fails when it returns an error or when the coordinator dispatches the
// same range again (it rejected the result); a call is a retry when its
// range was dispatched before.
type dispatchLog struct {
	mu    sync.Mutex
	calls map[shard.Range]int
	ok    map[shard.Range]bool // whether the latest call returned a result
}

func newDispatchLog() *dispatchLog {
	return &dispatchLog{calls: make(map[shard.Range]int), ok: make(map[shard.Range]bool)}
}

func (d *dispatchLog) record(r shard.Range, ok bool) {
	d.mu.Lock()
	d.calls[r]++
	d.ok[r] = ok
	d.mu.Unlock()
}

// totals returns the calls attempted, the calls that failed, and the
// calls that were retries.
func (d *dispatchLog) totals() (attempted, failed, retries int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r, n := range d.calls {
		attempted += int64(n)
		retries += int64(n - 1)
		failed += int64(n)
		if d.ok[r] {
			failed--
		}
	}
	return attempted, failed, retries
}

// capture is one dispatched shard and the result it came back with.
type capture struct {
	spec shard.ShardSpec
	res  shard.ShardResult
}

// instrument wraps a Runner: every call is counted in log and, with a
// tracer, recorded as a shard.rt span whose end time and result are kept
// for the journal spans and the shard-layer probes.
type instrument struct {
	log *dispatchLog
	tr  *tracer

	mu       sync.Mutex
	rtEnd    map[shard.Range]int64
	captured []capture
}

func (in *instrument) wrap(run shard.Runner) shard.Runner {
	return func(spec shard.ShardSpec) (shard.ShardResult, error) {
		if in.tr == nil {
			res, err := run(spec)
			in.log.record(spec.SpanRange(), err == nil)
			return res, err
		}
		start := in.tr.now()
		res, err := run(spec)
		end := in.tr.now()
		in.tr.add("shard.rt", start, end)
		in.log.record(spec.SpanRange(), err == nil)
		if err == nil {
			in.mu.Lock()
			in.rtEnd[spec.SpanRange()] = end
			in.captured = append(in.captured, capture{spec, res})
			in.mu.Unlock()
		}
		return res, err
	}
}

// onShardDone closes a shard.journal span: ResumeCoordinate calls it
// after the shard's result is checked and durably journaled, so the span
// runs from the round trip's end to that point.
func (in *instrument) onShardDone(_, _ int, res shard.ShardResult) {
	if len(res.Ranges) != 1 {
		return
	}
	in.mu.Lock()
	start, ok := in.rtEnd[res.Ranges[0]]
	in.mu.Unlock()
	if ok {
		in.tr.add("shard.journal", start, in.tr.now())
	}
}

// tracedRegistry returns a registry serving name with the factory of reg
// wrapped in spans: the factory call (the model build), engine
// construction, and every trial body call.
func tracedRegistry(reg *shard.Registry, name string, tr *tracer) (*shard.Registry, error) {
	f, err := reg.Lookup(name)
	if err != nil {
		return nil, err
	}
	if f.Outcome == nil {
		return nil, fmt.Errorf("sweep %q is not a tally sweep", name)
	}
	build := f.Outcome
	f.Outcome = func(param float64) (shard.OutcomeTrial, error) {
		t0 := tr.now()
		trial, err := build(param)
		tr.add("lambda.model_build", t0, tr.now())
		if err != nil {
			return trial, err
		}
		newEngine, classify := trial.NewEngine, trial.Classify
		trial.NewEngine = func(gen *rng.PCG) any {
			t0 := tr.now()
			eng := newEngine(gen)
			tr.add("sim.new_engine", t0, tr.now())
			return eng
		}
		trial.Classify = func(eng any) int {
			t0 := tr.now()
			out := classify(eng)
			tr.add("mc.trial", t0, tr.now())
			return out
		}
		return trial, nil
	}
	out := shard.NewRegistry()
	out.Register(name, f)
	return out, nil
}
