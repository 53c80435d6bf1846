package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
	"stochsynth/internal/shard"
	"stochsynth/internal/sim"
)

// layerTarget is what the per-layer probes run on: the workload's own
// network, kernel, race and trial body.
type layerTarget struct {
	net        *chem.Network
	text       string // the network in the chem.ParseNetwork format
	st0        chem.State
	compile    func(*chem.Network) *chem.Compiled // the compile the workload's trials run on
	a, b       sim.SpeciesThreshold
	maxSteps   int64
	body       trialBody
	modelBuild func() // the lambda model build; nil when lambda is not on the path
	simTrials  int
	mcTrials   int
}

// trialBody is a workload's per-trial code, as its factory builds it:
// tally sweeps classify, dist sweeps observe.
type trialBody struct {
	newEngine func(*rng.PCG) any
	tally     func(any) int
	observe   func(any) mc.Obs
	hist      mc.HistConfig
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

// timeNs returns the nanoseconds per call of f over n calls.
func timeNs(n int, f func(i int)) float64 {
	t0 := wallNow()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(wallNow().Sub(t0).Nanoseconds()) / float64(n)
}

// medianOf runs f reps times and returns the median of its results.
func medianOf(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// guardTrials is how many trials checkProbeTarget compares.
const guardTrials = 3

// checkProbeTarget holds the probes' kernel to the workload's own trial
// path. The probes build their engine on tg.compile, which restates the
// library's compile policy (CompileAt for the lambda model, CompilePilot
// and its pilot length for wide networks, Compile for narrow ones); if
// the library changes that policy, the probes would time a kernel the
// sweeps no longer run. For a few trials, the workload's trial body (its
// factory's engine, classifier or observer) and the probe engine start
// from the same generator state; their final states, and for dist
// bodies their event counts, must agree exactly.
func checkProbeTarget(tg layerTarget, seed uint64) error {
	comp := tg.compile(tg.net)
	for i := uint64(0); i < guardTrials; i++ {
		gen := rng.New(seed)
		eng := tg.body.newEngine(gen)
		gen.Reseed(seed, i)
		steps := int64(-1)
		if tg.body.observe != nil {
			steps = tg.body.observe(eng).Steps
		} else {
			tg.body.tally(eng)
		}
		se, ok := eng.(sim.Engine)
		if !ok {
			return fmt.Errorf("trial engine %T is not a sim.Engine", eng)
		}
		want := append(chem.State(nil), se.State()...)

		pgen := rng.New(seed)
		peng := sim.NewOptimizedDirectCompiled(comp, pgen)
		pgen.Reseed(seed, i)
		peng.Reset(tg.st0, 0)
		res := sim.RunThresholdRace(peng, tg.a, tg.b, tg.maxSteps)
		got := peng.State()
		if steps >= 0 && res.Steps != steps {
			return fmt.Errorf("probe kernel ran %d events in trial %d, the workload's trial body %d", res.Steps, i, steps)
		}
		if len(got) != len(want) {
			return fmt.Errorf("probe kernel has %d species, the workload's trial body %d", len(got), len(want))
		}
		for s := range want {
			if got[s] != want[s] {
				return fmt.Errorf("probe kernel ends trial %d with species %d at %d, the workload's trial body at %d", i, s, got[s], want[s])
			}
		}
	}
	return nil
}

// probeLayers times calls into the rng, chem, sim, mc and lambda layers
// on the workload's target.
func probeLayers(m map[string]metric, tg layerTarget, seed uint64) {
	gen := rng.New(seed)
	m["rng.float64_ns"] = metric{medianOf(3, func() float64 {
		return timeNs(2_000_000, func(int) { sink += gen.Float64() })
	}), "ns"}
	m["rng.reseed_ns"] = metric{medianOf(3, func() float64 {
		return timeNs(500_000, func(i int) { gen.Reseed(seed, uint64(i)) })
	}), "ns"}

	m["chem.parse_us"] = metric{medianOf(15, func() float64 {
		t0 := wallNow()
		if _, err := chem.ParseNetworkString(tg.text); err != nil {
			panic(err) // the text parsed at set-up
		}
		return float64(wallNow().Sub(t0).Nanoseconds()) / 1e3
	}), "us"}
	m["chem.compile_us"] = metric{medianOf(9, func() float64 {
		t0 := wallNow()
		tg.compile(tg.net)
		return float64(wallNow().Sub(t0).Nanoseconds()) / 1e3
	}), "us"}

	comp := tg.compile(tg.net)
	wide := comp.NumSelectBlocks() > 0
	st := comp.NewStateVec()
	copy(st, tg.st0)
	prop := make([]float64, comp.NumChannels())
	sums := make([]float64, comp.NumSelectBlocks())
	full := func() float64 {
		if wide {
			return comp.PropensitiesBlocksInto(st, prop, sums)
		}
		return comp.PropensitiesInto(st, prop)
	}
	m["chem.propensities_ns"] = metric{medianOf(3, func() float64 {
		return timeNs(max(1000, 4_000_000/comp.NumChannels()), func(int) { sink += full() })
	}), "ns"}

	walks, targets, events := recordWalks(comp, tg, seed, 400_000)
	fire := medianOf(3, func() float64 { return replay(comp, tg.st0, walks, nil) })
	both := medianOf(3, func() float64 { return replay(comp, tg.st0, walks, targets) })
	m["chem.fire_refresh_ns"] = metric{fire / float64(events), "ns"}
	m["chem.select_ns"] = metric{(both - fire) / float64(events), "ns"}

	probeSim(m, comp, tg, seed)
	probeMC(m, tg, seed)

	build := 0.0
	if tg.modelBuild != nil {
		build = medianOf(5, func() float64 {
			t0 := wallNow()
			tg.modelBuild()
			return float64(wallNow().Sub(t0).Nanoseconds()) / 1e6
		})
	}
	m["lambda.model_build_ms"] = metric{build, "ms"}
}

// recordWalks steps an engine from the trial's start state, trial after
// trial, until budget events, and returns each trial's fired channels
// (in compiled order), for each event the point of the cumulative
// propensity, as a share of the total, that falls mid-way through the
// fired channel, and the event total. Replaying a walk from the same
// start state reproduces its states exactly.
func recordWalks(comp *chem.Compiled, tg layerTarget, seed uint64, budget int) ([][]int32, [][]float64, int) {
	gen := rng.New(seed)
	eng := sim.NewOptimizedDirectCompiled(comp, gen)
	prop := make([]float64, comp.NumChannels())
	var walks [][]int32
	var targets [][]float64
	events := 0
	for trial := uint64(0); events < budget; trial++ {
		gen.Reseed(seed, trial)
		eng.Reset(tg.st0, 0)
		var walk []int32
		var target []float64
		for int64(len(walk)) < tg.maxSteps && events < budget {
			st := eng.State()
			if st[tg.a.Species] >= tg.a.Count || st[tg.b.Species] >= tg.b.Count {
				break
			}
			total := comp.PropensitiesInto(st, prop)
			r, status := eng.Step(math.Inf(1))
			if status != sim.Fired {
				break
			}
			ch := comp.Channel[r]
			var below float64
			for _, a := range prop[:ch] {
				below += a
			}
			walk = append(walk, ch)
			target = append(target, (below+prop[ch]/2)/total)
			events++
		}
		if len(walk) == 0 {
			break // quiescent at the start: nothing to replay
		}
		walks = append(walks, walk)
		targets = append(targets, target)
	}
	return walks, targets, events
}

// replay re-fires the recorded walks through the kernel ops an engine
// step uses — FireAndRefresh, plus RefreshBlockSums on wide kernels. With
// targets, each event first selects its channel (SelectChannel on narrow
// kernels, SelectBlock on wide ones) at the recorded cumulative target
// and fires the channel selected, so the fire waits on the selection as
// in an engine step. It returns the nanoseconds spent in the walks,
// leaving out the full recompute that starts each.
func replay(comp *chem.Compiled, st0 chem.State, walks [][]int32, targets [][]float64) float64 {
	wide := comp.NumSelectBlocks() > 0
	st := comp.NewStateVec()
	prop := make([]float64, comp.NumChannels())
	sums := make([]float64, comp.NumSelectBlocks())
	var elapsed time.Duration
	for w, walk := range walks {
		copy(st, st0)
		var total float64
		if wide {
			total = comp.PropensitiesBlocksInto(st, prop, sums)
		} else {
			total = comp.PropensitiesInto(st, prop)
		}
		t0 := wallNow()
		for e, ch := range walk {
			c := int(ch)
			if targets != nil {
				if wide {
					c = comp.SelectBlock(prop, sums, targets[w][e]*total)
				} else {
					c = comp.SelectChannel(prop, targets[w][e]*total)
				}
				if c < 0 {
					c = int(ch) // float slack past the end; never seen mid-channel
				}
			}
			total = comp.FireAndRefresh(c, st, prop, total)
			if wide {
				comp.RefreshBlockSums(c, prop, sums)
			}
		}
		elapsed += wallNow().Sub(t0)
		sink += total
	}
	return float64(elapsed.Nanoseconds())
}

// probeSim times the engine step through sim.RunThresholdRace and the
// engine's Reset on the trial's start state. events_per_trial is exact:
// the probe trials draw from fixed streams.
func probeSim(m map[string]metric, comp *chem.Compiled, tg layerTarget, seed uint64) {
	gen := rng.New(seed)
	eng := sim.NewOptimizedDirectCompiled(comp, gen)
	var raceNs, steps int64
	for i := 0; i < tg.simTrials; i++ {
		gen.Reseed(seed, uint64(i))
		eng.Reset(tg.st0, 0)
		t0 := wallNow()
		res := sim.RunThresholdRace(eng, tg.a, tg.b, tg.maxSteps)
		raceNs += wallNow().Sub(t0).Nanoseconds()
		steps += res.Steps
	}
	m["sim.ns_per_event"] = metric{float64(raceNs) / float64(steps), "ns"}
	m["sim.events_per_trial"] = metric{float64(steps) / float64(tg.simTrials), "count"}
	m["sim.reset_ns"] = metric{medianOf(3, func() float64 {
		return timeNs(max(1000, 2_000_000/comp.NumChannels()), func(int) { eng.Reset(tg.st0, 0) })
	}), "ns"}
}

// probeMC runs the workload's trial body through the mc runner the shard
// layer uses for it, on one worker and on GOMAXPROCS workers.
func probeMC(m map[string]metric, tg layerTarget, seed uint64) {
	n := tg.mcTrials
	runOnce := func(workers int) (secs float64, unresolved int64, alloc uint64) {
		cfg := mc.Config{Outcomes: 2, Seed: seed, Workers: workers}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := wallNow()
		if tg.body.observe != nil {
			d := mc.RunDistRangeWith(cfg, tg.body.hist, 0, n, tg.body.newEngine, tg.body.observe)
			unresolved = d.FPT.Unresolved.Count
		} else {
			unresolved = mc.RunRangeWith(cfg, 0, n, tg.body.newEngine, tg.body.tally).None
		}
		secs = wallNow().Sub(t0).Seconds()
		runtime.ReadMemStats(&after)
		return secs, unresolved, after.TotalAlloc - before.TotalAlloc
	}
	// Each configuration runs twice, interleaved, and keeps its faster
	// run: the first run of a probe also pays for warming caches.
	procs := runtime.GOMAXPROCS(0)
	all, unresolved, _ := runOnce(procs)
	one, _, alloc := runOnce(1)
	if again, _, _ := runOnce(procs); again < all {
		all = again
	}
	if again, _, _ := runOnce(1); again < one {
		one = again
	}
	tps1 := float64(n) / one
	m["mc.trials_per_s_1w"] = metric{tps1, "1/s"}
	m["mc.scaling_eff"] = metric{float64(n) / all / (float64(procs) * tps1), "ratio"}
	m["mc.resolved_ratio"] = metric{float64(int64(n)-unresolved) / float64(n), "ratio"}
	m["mc.alloc_bytes_per_trial"] = metric{float64(alloc) / float64(n), "B"}
}

// probeShardSamples caps how many captured shards the shard probes use.
const probeShardSamples = 64

// journalAppends is how many appends the journal probe times: enough for
// a p95 with minTail appends beyond it.
const journalAppends = 200

// probeShard times the shard layer's public functions on the shards of
// the last traced sweep (spec): validation, encoding, decoding and merging of
// its specs and results, journal appends, and — for a remote fleet, whose
// shard.Run happens inside the servers — shard.Run itself.
func probeShard(m map[string]metric, fx *fixture, dir string, spec shard.SweepSpec, caps []capture) error {
	if len(caps) == 0 {
		return fmt.Errorf("no traced shard to probe")
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].spec.Lo < caps[j].spec.Lo })
	sample := caps
	if len(sample) > probeShardSamples {
		sample = sample[:probeShardSamples]
	}
	var validate, encode, decode, size []float64
	for _, c := range sample {
		t0 := wallNow()
		if err := c.spec.Validate(); err != nil {
			return err
		}
		validate = append(validate, float64(wallNow().Sub(t0).Nanoseconds())/1e3)

		t0 = wallNow()
		rawSpec, err := c.spec.Encode()
		if err != nil {
			return err
		}
		rawRes, err := c.res.Encode()
		if err != nil {
			return err
		}
		encode = append(encode, float64(wallNow().Sub(t0).Nanoseconds())/1e3)

		t0 = wallNow()
		if _, err := shard.DecodeSpec(rawSpec); err != nil {
			return err
		}
		if _, err := shard.DecodeResult(rawRes); err != nil {
			return err
		}
		decode = append(decode, float64(wallNow().Sub(t0).Nanoseconds())/1e3)
		size = append(size, float64(len(rawRes)))
	}
	m["shard.validate_us"] = metric{median(validate), "us"}
	m["shard.encode_us"] = metric{median(encode), "us"}
	m["shard.decode_us"] = metric{median(decode), "us"}
	m["shard.result_bytes"] = metric{median(size), "B"}

	results := make([]shard.ShardResult, len(caps))
	for i, c := range caps {
		results[i] = c.res
	}
	var mergeErr error
	m["shard.merge_us"] = metric{medianOf(5, func() float64 {
		t0 := wallNow()
		if _, err := shard.MergeAll(results...); err != nil {
			mergeErr = err
		}
		return float64(wallNow().Sub(t0).Nanoseconds()) / 1e3
	}), "us"}
	if mergeErr != nil {
		return mergeErr
	}

	appends, err := probeJournal(filepath.Join(dir, "probe.jrnl"), spec, results)
	if err != nil {
		return err
	}
	addTail(m, "shard.journal_append", appends)

	if fx.remote {
		var runs []float64
		for _, c := range sample {
			t0 := wallNow()
			if _, err := shard.Run(c.spec, shard.NewRegistry()); err != nil {
				return err
			}
			runs = append(runs, float64(wallNow().Sub(t0).Nanoseconds())/1e6)
		}
		m["shard.run_ms.p50"] = metric{median(runs), "ms"}
	}
	return nil
}

// probeJournal appends results to a fresh journal for spec, round robin,
// journalAppends times, and returns each append's milliseconds.
func probeJournal(path string, spec shard.SweepSpec, results []shard.ShardResult) ([]float64, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	j, _, err := shard.OpenJournal(path, spec)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	ms := make([]float64, 0, journalAppends)
	for i := 0; i < journalAppends; i++ {
		t0 := wallNow()
		if err := j.Append(results[i%len(results)]); err != nil {
			j.Close()
			return nil, err
		}
		ms = append(ms, float64(wallNow().Sub(t0).Nanoseconds())/1e6)
	}
	return ms, j.Close()
}
