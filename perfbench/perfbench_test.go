package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
	"stochsynth/internal/shard"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{n: 2000, wantPct: 99, ok: true},
		{n: 1000, wantPct: 99, ok: true},
		{n: 999, wantPct: 100 * 989.0 / 999, ok: true},
		{n: 100, wantPct: 90, ok: true},
		{n: 20, wantPct: 50, ok: true},
		{n: 19, wantPct: 100, ok: false},
		{n: 1, wantPct: 100, ok: false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: the rule must sort
		}
		v, pct, ok := tailPercentile(xs, 99)
		if ok != c.ok || math.Abs(pct-c.wantPct) > 1e-9 {
			t.Errorf("n=%d: pct %.4f ok %v, want %.4f ok %v", c.n, pct, ok, c.wantPct, c.ok)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if ok && beyond < minTail {
			t.Errorf("n=%d: %d samples beyond the reported tail, want at least %d", c.n, beyond, minTail)
		}
		if !ok && v != float64(c.n) {
			t.Errorf("n=%d: too few samples should report the maximum, got %v", c.n, v)
		}
	}
	// Every size from 20 up keeps at least minTail samples beyond.
	for n := 2 * minTail; n <= 1500; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, pct, _ := tailPercentile(xs, 99)
		if beyond := n - 1 - int(v); beyond < minTail || pct > 99 {
			t.Fatalf("n=%d: %d beyond at p%.3f", n, beyond, pct)
		}
	}
}

// coinRegistry serves "coin", a cheap tally sweep, so the counting tests
// exercise the real coordinator without simulating a network.
func coinRegistry() *shard.Registry {
	reg := shard.NewRegistry()
	reg.Register("coin", shard.Factory{
		Outcomes: 2,
		Outcome: func(float64) (shard.OutcomeTrial, error) {
			return shard.OutcomeTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Classify:  func(eng any) int { return eng.(*rng.PCG).Intn(2) },
			}, nil
		},
	})
	return reg
}

func TestFailedRatioCountsErrorsAndRejectedResults(t *testing.T) {
	spec := shard.SweepSpec{Sweep: "coin", Grid: []float64{0, 1}, Trials: 100, Seed: 9, Outcomes: 2}
	local := shard.LocalRunner(coinRegistry())
	seen := map[int]int{}
	// The first attempt at shards 2 and 5 errors; the first attempt at
	// shard 7 answers the wrong range, which the coordinator rejects.
	failing := func(sp shard.ShardSpec) (shard.ShardResult, error) {
		seen[sp.Lo]++
		first := seen[sp.Lo] == 1
		switch {
		case first && (sp.Lo == 20 || sp.Lo == 50):
			return shard.ShardResult{}, fmt.Errorf("injected failure at %v", sp.SpanRange())
		case first && sp.Lo == 70:
			return local(spec.Shard(sp.Lo, sp.Hi-1))
		}
		return local(sp)
	}
	in := &instrument{log: newDispatchLog()}
	res, err := shard.Coordinate(spec, 10, in.wrap(failing), shard.Options{Parallel: 1, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatal("sweep incomplete after retries")
	}
	attempted, failed, retries := in.log.totals()
	if attempted != 13 || failed != 3 || retries != 3 {
		t.Fatalf("attempted %d failed %d retries %d, want 13, 3, 3", attempted, failed, retries)
	}
	if r := ratio(failed, attempted); math.Abs(r-3.0/13) > 1e-12 {
		t.Fatalf("failed_ratio %v, want 3/13", r)
	}
}

func TestFailedRatioZeroOnCleanSweep(t *testing.T) {
	spec := shard.SweepSpec{Sweep: "coin", Grid: []float64{0}, Trials: 40, Seed: 1, Outcomes: 2}
	in := &instrument{log: newDispatchLog()}
	if _, err := shard.Coordinate(spec, 4, in.wrap(shard.LocalRunner(coinRegistry())), shard.Options{}); err != nil {
		t.Fatal(err)
	}
	if a, f, r := in.log.totals(); a != 4 || f != 0 || r != 0 {
		t.Fatalf("attempted %d failed %d retries %d, want 4, 0, 0", a, f, r)
	}
}

func TestWideCRNDeterministicPerSeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		w := genWide(seed)
		text := w.text()
		if again := genWide(seed).text(); again != text {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if other := genWide(seed + 1).text(); other == text {
			t.Fatalf("seeds %d and %d generate the same network", seed, seed+1)
		}
		net, err := chem.ParseNetworkString(text)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if net.NumReactions() != wideChannels || net.NumSpecies() != wideSpecies {
			t.Fatalf("seed %d: %d reactions over %d species, want %d over %d",
				seed, net.NumReactions(), net.NumSpecies(), wideChannels, wideSpecies)
		}
		if net.NumReactions() < chem.BlockThreshold {
			t.Fatalf("seed %d: below the block-selection threshold", seed)
		}
		for i := 0; i < net.NumReactions(); i++ {
			r := net.Reaction(i)
			if len(r.Reactants) != 1 || len(r.Products) != 1 ||
				r.Reactants[0].Coeff != 1 || r.Products[0].Coeff != 1 {
				t.Fatalf("seed %d: reaction %d is not a one-to-one conversion", seed, i)
			}
		}
		ns := wideSpec(text, w.obsName())
		id, err := ns.SweepID()
		if err != nil {
			t.Fatal(err)
		}
		spec := shard.SweepSpec{Sweep: id, Grid: []float64{0}, Trials: wideTrials, Seed: seed,
			Outcomes: shard.NetworkOutcomes, Dist: true, Network: ns}
		for _, sp := range spec.Partition(wideShards) {
			if err := sp.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestSweepSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		for k := 0; k < 50; k++ {
			s := sweepSeed(seed, k)
			if seen[s] {
				t.Fatalf("sweep seed collision at workload seed %d, sweep %d", seed, k)
			}
			seen[s] = true
		}
	}
}

func TestSelfTimesChargeTheDeepestLayer(t *testing.T) {
	spans := []span{
		{Layer: "sweep", Start: 0, End: 100},
		{Layer: "shard.rt", Start: 10, End: 60},
		{Layer: "shard.rt", Start: 20, End: 80},
		{Layer: "mc.trial", Start: 30, End: 40},
		{Layer: "shard.journal", Start: 80, End: 90},
	}
	got := selfTimes(spans)
	want := map[string]int64{"sweep": 20, "shard.rt": 60, "mc.trial": 10, "shard.journal": 10}
	for l, w := range want {
		if int64(got[l]) != w {
			t.Errorf("%s self time %d, want %d", l, got[l], w)
		}
	}
	if c := covered(spans[1:3], 0, 100); c != 70 {
		t.Errorf("rt spans cover %d, want 70", c)
	}
}

func TestUnstolenMedianDropsStolenSweeps(t *testing.T) {
	// No steal reported: every sweep counts.
	quiet := []sweepSample{{tps: 1}, {tps: 5}, {tps: 3}}
	if tps, n, _ := unstolenMedian(quiet); tps != 3 || n != 3 {
		t.Errorf("quiet run: median %v over %d sweeps, want 3 over 3", tps, n)
	}
	// Two of five sweeps lost 30% of their CPU time: they drop out.
	mixed := []sweepSample{{10, 0}, {4, 0.3}, {12, 0.01}, {5, 0.3}, {11, 0}}
	if tps, n, _ := unstolenMedian(mixed); tps != 11 || n != 3 {
		t.Errorf("mixed run: median %v over %d sweeps, want 11 over 3", tps, n)
	}
	// Most sweeps stolen: the less-stolen half counts.
	stolen := []sweepSample{{4, 0.2}, {6, 0.1}, {2, 0.4}, {7, 0.05}}
	if tps, n, cut := unstolenMedian(stolen); n != 2 || tps != 6.5 || math.Abs(cut-0.15) > 1e-12 {
		t.Errorf("stolen run: median %v over %d sweeps at cut %v, want 6.5 over 2 at 0.15", tps, n, cut)
	}
}

func TestCheckEndpointsRejectsAShiftedChain(t *testing.T) {
	sample := func(mean float64, p0 int64) endpointStats {
		var e endpointStats
		for i := int64(0); i < 1000; i++ {
			e.add(int64(mean) + i%21 - 10) // mean ± 10, sd ≈ 6
		}
		e.p0 = p0
		return e
	}
	ref := sample(130, 800)
	if err := checkEndpoints("s1", sample(130, 810), ref); err != nil {
		t.Errorf("equal chains rejected: %v", err)
	}
	if err := checkEndpoints("s1", sample(133, 800), ref); err == nil {
		t.Error("mean shifted by 3 (≈11 standard errors) accepted")
	}
	if err := checkEndpoints("s1", sample(130, 600), ref); err == nil {
		t.Error("P0 0.6 against 0.8 accepted")
	}
}

func TestDigestAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	if err := checkDigestAcrossRuns(dir, "w", 7, "abc"); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := checkDigestAcrossRuns(dir, "w", 7, "abc"); err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if err := checkDigestAcrossRuns(dir, "w", 8, "def"); err != nil {
		t.Fatalf("other seed: %v", err)
	}
	if err := checkDigestAcrossRuns(dir, "w", 7, "abd"); err == nil {
		t.Fatal("a changed digest for the same binary and seed was accepted")
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the code: the
// same workloads, and per_layer naming exactly the metrics the traced
// run reports, in the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerMetrics %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != lm.name || got.Unit != lm.unit || got.Better != lm.better {
			t.Errorf("per_layer[%d] = %+v, layerMetrics has %s %s %s", i, got, lm.name, lm.unit, lm.better)
		}
	}
}
