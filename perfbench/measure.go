package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"stochsynth/internal/shard"
)

// minSweeps is the least number of sweeps a run times, whatever
// --seconds says, so the median has something to stand on.
const minSweeps = 5

// untracedRun times sweeps until their wall time adds up to budget and
// reports the median throughput of the sweeps the hypervisor left alone
// (unstolenMedian). Correctness checks and a throwaway set-up (resetup)
// run between sweeps, outside the timed calls.
func untracedRun(w io.Writer, fx *fixture, budget time.Duration, resetup func() error) (result, error) {
	res := result{Metrics: map[string]metric{}}
	var sweeps []sweepSample
	var measured time.Duration
	for k := 0; k < minSweeps || measured < budget; k++ {
		spec := fx.spec(k)
		in := &instrument{log: newDispatchLog()}
		stolen := stealSeconds()
		t0 := wallNow()
		out, err := fx.sweep(spec, in.wrap(fx.runner), sweepOptions())
		dt := wallNow().Sub(t0)
		a, f, _ := in.log.totals()
		res.Attempted += a
		res.Failed += f
		if err != nil {
			fmt.Fprintf(w, "# sweep %d failed: %v\n", k, err)
			return res, errIncorrect
		}
		measured += dt
		sweeps = append(sweeps, sweepSample{
			tps:   float64(out.Covered()*len(spec.Grid)) / dt.Seconds(),
			steal: (stealSeconds() - stolen) / (dt.Seconds() * float64(runtime.NumCPU())),
		})
		if err := resetup(); err != nil {
			return res, err
		}
		if err := fx.check(k, spec, out); err != nil {
			fmt.Fprintf(w, "# sweep %d check failed: %v\n", k, err)
			return res, errIncorrect
		}
	}
	// The high-water mark is read before the final checks, whose
	// reference runs are the benchmark's work, not the workload's.
	rss := peakRSSMB()
	if fx.final != nil {
		if err := fx.final(); err != nil {
			fmt.Fprintf(w, "# check failed: %v\n", err)
			return res, errIncorrect
		}
	}
	tps, clean, steal := unstolenMedian(sweeps)
	res.Correct = true
	res.Metrics["trials_per_s"] = metric{tps, "1/s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	fmt.Fprintf(w, "# trials_per_s %12.6g 1/s    median of the %d of %d sweeps with at most %.1f%% of CPU time stolen (%.1f s timed, %s)\n",
		tps, clean, len(sweeps), 100*steal, measured.Seconds(), fx.transport())
	fmt.Fprintf(w, "# failed_ratio %12.6g ratio  %d of %d dispatches failed or were retried\n",
		ratio(res.Failed, res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(w, "# peak_rss_mb  %12.6g MB     before the final checks\n", rss)
	return res, nil
}

// sweepSample is one timed sweep: its throughput, and the share of the
// machine's CPU time the hypervisor stole while it ran.
type sweepSample struct {
	tps, steal float64
}

// minStealCut is the steal share below which a sweep always counts as
// unstolen.
const minStealCut = 0.02

// unstolenMedian returns the median throughput of the sweeps the
// hypervisor left alone, how many those were, and the steal share that
// admitted them. On a shared virtual machine the hypervisor can stop
// this machine's CPUs for a large share of a sweep — a slowdown of the
// host, not of the program — so sweeps with at most minStealCut of their
// CPU time stolen count; when fewer than half qualify, the less-stolen
// half does. Where the kernel reports no steal, every sweep counts.
func unstolenMedian(sweeps []sweepSample) (tps float64, n int, cut float64) {
	steals := make([]float64, len(sweeps))
	for i, s := range sweeps {
		steals[i] = s.steal
	}
	cut = max(minStealCut, median(steals))
	var kept []float64
	for _, s := range sweeps {
		if s.steal <= cut {
			kept = append(kept, s.tps)
		}
	}
	return median(kept), len(kept), cut
}

// tracedRun interleaves untraced and traced sweeps of the same specs
// (alternating which goes first, so drift in machine speed hits both),
// checks that tracing changes no result bit, then probes each layer and
// prints the per-layer metrics and the blocking-path report.
func tracedRun(w io.Writer, fx *fixture, budget time.Duration, dir, spansPath string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	tr := newTracer()
	traced := fx.runner
	if fx.traced != nil {
		var err error
		if traced, err = fx.traced(tr); err != nil {
			return res, err
		}
	}
	var plainTPS, tracedTPS, sweepSelf []float64
	var last []capture
	var lastSpec shard.SweepSpec
	var dispatches, retries int64
	var measured time.Duration
	for k := 0; k < minSweeps || measured < budget; k++ {
		spec := fx.spec(k)
		var encoded [2][]byte
		for i := 0; i < 2; i++ {
			withTrace := (i+k)%2 == 1
			in := &instrument{log: newDispatchLog(), rtEnd: map[shard.Range]int64{}}
			run := fx.runner
			opts := sweepOptions()
			if withTrace {
				tr.beginSweep(k)
				in.tr = tr
				run = traced
				if fx.journal != "" {
					opts.OnShardDone = in.onShardDone
				}
			}
			start := tr.now()
			out, err := fx.sweep(spec, in.wrap(run), opts)
			end := tr.now()
			a, f, r := in.log.totals()
			res.Attempted += a
			res.Failed += f
			if err != nil {
				fmt.Fprintf(w, "# sweep %d failed: %v\n", k, err)
				return res, errIncorrect
			}
			measured += time.Duration(end - start)
			tps := float64(out.Covered()*len(spec.Grid)) / time.Duration(end-start).Seconds()
			_, raw, err := encodeDigest(out)
			if err != nil {
				return res, err
			}
			if withTrace {
				tr.add("sweep", start, end)
				tracedTPS = append(tracedTPS, tps)
				sweepSelf = append(sweepSelf, float64(end-start-covered(rtSpans(tr, k), start, end))/1e6)
				dispatches += a
				retries += r
				last, lastSpec = in.captured, spec
				encoded[1] = raw
			} else {
				plainTPS = append(plainTPS, tps)
				encoded[0] = raw
				if err := fx.check(k, spec, out); err != nil {
					fmt.Fprintf(w, "# sweep %d check failed: %v\n", k, err)
					return res, errIncorrect
				}
			}
		}
		if !bytes.Equal(encoded[0], encoded[1]) {
			fmt.Fprintf(w, "# sweep %d: the traced result differs from the untraced one\n", k)
			return res, errIncorrect
		}
	}
	if fx.final != nil {
		if err := fx.final(); err != nil {
			fmt.Fprintf(w, "# check failed: %v\n", err)
			return res, errIncorrect
		}
	}

	sweeps := float64(len(tracedTPS))
	m := res.Metrics
	m["trace.overhead"] = metric{median(tracedTPS) / median(plainTPS), "ratio"}
	m["sweep.self_ms"] = metric{median(sweepSelf), "ms"}
	m["shard.dispatches"] = metric{float64(dispatches) / sweeps, "count/sweep"}
	m["shard.retries"] = metric{float64(retries) / sweeps, "count/sweep"}
	m["failed_ratio"] = metric{ratio(res.Failed, res.Attempted), "ratio"}
	rt := spanMillis(tr, "shard.rt")
	addTail(m, "shard.rt", rt)
	if !fx.remote {
		// A local runner's round trip is the shard.Run call itself.
		m["shard.run_ms.p50"] = metric{median(rt), "ms"}
	}

	probeStart := wallNow()
	if err := probeShard(m, fx, dir, lastSpec, last); err != nil {
		return res, err
	}
	probeLayers(m, fx.target, fx.spec(0).Seed)
	probeTime := wallNow().Sub(probeStart)

	fmt.Fprintf(w, "# %d traced + %d untraced sweeps (%s); median trials/s traced %.4g, untraced %.4g; probes %.1f s\n",
		len(tracedTPS), len(plainTPS), fx.transport(), median(tracedTPS), median(plainTPS), probeTime.Seconds())
	printBlockingPath(w, tr)
	if err := checkLayerMetrics(m); err != nil {
		return res, err
	}
	fmt.Fprintln(w, "# per-layer metrics, each with the end-to-end metric it should move:")
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "#   %-33s %12.6g %-11s -> %s\n", lm.name, m[lm.name].Value, lm.unit, lm.moves)
	}
	header := map[string]any{"layers": layerOrder}
	if err := tr.write(spansPath, header); err != nil {
		return res, err
	}
	fmt.Fprintf(w, "# %d spans written to %s\n", len(tr.spans), spansPath)
	res.Correct = true
	return res, nil
}

// rtSpans returns traced sweep k's round-trip spans.
func rtSpans(tr *tracer, k int) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.Sweep == k && s.Layer == "shard.rt" {
			out = append(out, s)
		}
	}
	return out
}

// spanMillis returns the durations of every span of a layer, in ms.
func spanMillis(tr *tracer, layer string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Layer == layer {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// addTail reports a latency sample as its median, its tail percentile
// under the minTail rule, the percentile that tail is, and the count.
func addTail(m map[string]metric, name string, ms []float64) {
	tail, pct, _ := tailPercentile(ms, 99)
	m[name+"_ms.p50"] = metric{median(ms), "ms"}
	m[name+"_ms.p99"] = metric{tail, "ms"}
	m[name+"_ms.tail_pct"] = metric{pct, "%"}
	m[name+".n"] = metric{float64(len(ms)), "count"}
}

// printBlockingPath prints each layer's self time along the blocking
// path of the traced sweeps, as a share of their wall time.
func printBlockingPath(w io.Writer, tr *tracer) {
	tr.mu.Lock()
	self := selfTimes(tr.spans)
	tr.mu.Unlock()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	fmt.Fprintf(w, "# self time along the blocking path of the traced sweeps (%.1f ms):\n", float64(total)/1e6)
	for _, l := range layerOrder {
		if d, ok := self[l]; ok {
			fmt.Fprintf(w, "#   %-20s %10.1f ms %6.1f%%\n", l, float64(d)/1e6, 100*float64(d)/float64(total))
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkLayerMetrics holds the traced run to layerMetrics: exactly those
// metrics, in those units.
func checkLayerMetrics(m map[string]metric) error {
	if len(m) != len(layerMetrics) {
		return fmt.Errorf("traced run measured %d per-layer metrics, layerMetrics lists %d", len(m), len(layerMetrics))
	}
	for _, lm := range layerMetrics {
		got, ok := m[lm.name]
		if !ok {
			return fmt.Errorf("traced run did not measure %s", lm.name)
		}
		if got.Unit != lm.unit {
			return fmt.Errorf("%s measured in %s, layerMetrics says %s", lm.name, got.Unit, lm.unit)
		}
	}
	return nil
}
