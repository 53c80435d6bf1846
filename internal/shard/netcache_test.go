package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"stochsynth/internal/mc"
)

// cacheLen reports the number of cached networks.
func (c *networkCache) cacheLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// reset empties the cache, so a test starts from a cold process.
func (c *networkCache) reset() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
}

func cacheBaseSpec() *NetworkSpec {
	return &NetworkSpec{
		CRN:      goldenCRN,
		MaxSteps: 100_000,
		Observable: ObservableSpec{
			Kind: ObsRace, SpeciesA: "x", CountA: 5, SpeciesB: "y", CountB: 5,
		},
		Param: &ParamSpec{Rate: "mkx"},
	}
}

// cacheVariant is one valid spec differing from the base in one field.
type cacheVariant struct {
	name          string
	mutate        func(*NetworkSpec)
	numeric, dist bool
}

func cacheVariants() []cacheVariant {
	hist := func(lo, width int64, bins int) func(*NetworkSpec) {
		return func(ns *NetworkSpec) { ns.Hist = &mc.HistConfig{Lo: lo, Width: width, Bins: bins} }
	}
	return []cacheVariant{
		// A comment changes the text but not the canonical network, so the
		// SweepID is shared: the key must still tell them apart.
		{name: "crn byte", mutate: func(ns *NetworkSpec) { ns.CRN += "# comment\n" }},
		{name: "crn rate", mutate: func(ns *NetworkSpec) { ns.CRN += "a -> a @ 2\n" }},
		{name: "engine", mutate: func(ns *NetworkSpec) { ns.Engine = "direct" }},
		{name: "maxSteps", mutate: func(ns *NetworkSpec) { ns.MaxSteps++ }},
		{name: "obs kind", mutate: func(ns *NetworkSpec) {
			ns.Observable = ObservableSpec{Kind: ObsEndpoint, SpeciesA: "x", CountA: 5}
		}},
		{name: "obs speciesA", mutate: func(ns *NetworkSpec) { ns.Observable.SpeciesA = "a" }},
		{name: "obs countA", mutate: func(ns *NetworkSpec) { ns.Observable.CountA++ }},
		{name: "obs speciesB", mutate: func(ns *NetworkSpec) { ns.Observable.SpeciesB = "b" }},
		{name: "obs countB", mutate: func(ns *NetworkSpec) { ns.Observable.CountB++ }},
		{name: "obs value", mutate: func(ns *NetworkSpec) { ns.Observable.Value = "a" }},
		{name: "param none", mutate: func(ns *NetworkSpec) { ns.Param = nil }},
		{name: "param rate", mutate: func(ns *NetworkSpec) { ns.Param = &ParamSpec{Rate: "mky"} }},
		{name: "param species", mutate: func(ns *NetworkSpec) { ns.Param = &ParamSpec{Species: "a"} }},
		{name: "numeric", mutate: func(*NetworkSpec) {}, numeric: true},
		{name: "dist", mutate: hist(0, 1, 8), dist: true},
		{name: "hist lo", mutate: hist(1, 1, 8), dist: true},
		{name: "hist width", mutate: hist(0, 2, 8), dist: true},
		{name: "hist bins", mutate: hist(0, 1, 9), dist: true},
	}
}

func TestNetworkCacheKeysOnEveryField(t *testing.T) {
	networks.reset()
	base := cacheBaseSpec()
	variants := cacheVariants()
	specs := []*NetworkSpec{base}
	kinds := [][2]bool{{false, false}}
	for _, v := range variants {
		ns := cacheBaseSpec()
		v.mutate(ns)
		specs = append(specs, ns)
		kinds = append(kinds, [2]bool{v.numeric, v.dist})
	}
	name := func(i int) string {
		if i == 0 {
			return "base"
		}
		return variants[i-1].name
	}
	for i := range specs {
		for j := i + 1; j < len(specs); j++ {
			a, err := networks.get(specs[i], kinds[i][0], kinds[i][1])
			if err != nil {
				t.Fatalf("%s: %v", name(i), err)
			}
			b, err := networks.get(specs[j], kinds[j][0], kinds[j][1])
			if err != nil {
				t.Fatalf("%s: %v", name(j), err)
			}
			if a == b {
				t.Fatalf("%s and %s share a cache entry", name(i), name(j))
			}
			if !equalNetworkSpec(a.ns, specs[i]) || !equalNetworkSpec(b.ns, specs[j]) {
				t.Fatalf("%s / %s: entry holds a different spec", name(i), name(j))
			}
			// The second lookup of the same content is a hit.
			if again, _ := networks.get(specs[j], kinds[j][0], kinds[j][1]); again != b {
				t.Fatalf("%s: same content missed the cache", name(j))
			}
		}
	}
	id0, _ := specs[0].SweepID()
	id1, _ := specs[1].SweepID()
	if id0 != id1 {
		t.Fatalf("comment-only edit changed the SweepID (%s vs %s); the crn-byte case no longer tests a shared id", id0, id1)
	}
}

func TestNetworkCacheRereadsMutatedSpec(t *testing.T) {
	networks.reset()
	ns := cacheBaseSpec()
	f1, err := NetworkFactory(ns, false, false)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := ns.SweepID()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate through the pointer fields too: a key holding the pointers
	// would miss this.
	ns.Param.Rate = "mky"
	cn, err := networks.get(ns, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if cn.ns.Param.Rate != "mky" {
		t.Fatalf("mutated param not re-read: entry has rate label %q", cn.ns.Param.Rate)
	}
	id2, err := ns.SweepID()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 || cn.id != id2 {
		t.Fatalf("ids after mutation: old %s new %s entry %s", id1, id2, cn.id)
	}
	spec := ShardSpec{
		Version: FormatVersion, Sweep: id1, Grid: []float64{1}, Trials: 4, Hi: 4,
		Outcomes: NetworkOutcomes, Network: ns,
	}
	if err := spec.Validate(); err == nil {
		t.Fatal("spec validated against the pre-mutation content id")
	}
	ns.Observable.SpeciesA = "ghost"
	if _, err := NetworkFactory(ns, false, false); err == nil {
		t.Fatal("mutation to an invalid spec not re-validated")
	}
	// The earlier factory keeps serving the model it was built from.
	trial, err := f1.Outcome(2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NetworkFactory(cacheBaseSpec(), false, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Outcome(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mc.Config{Outcomes: NetworkOutcomes, Seed: 5}
	got := mc.RunRangeWith(cfg, 0, 32, trial.NewEngine, trial.Classify)
	exp := mc.RunRangeWith(cfg, 0, 32, want.NewEngine, want.Classify)
	if fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("factory built before the mutation changed behaviour: %v vs %v", got, exp)
	}
}

func TestNetworkCacheBounded(t *testing.T) {
	networks.reset()
	for i := 0; i < 3*networkCacheEntries; i++ {
		ns := cacheBaseSpec()
		ns.MaxSteps = int64(1000 + i)
		cn, err := networks.get(ns, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if n := networks.cacheLen(); n > networkCacheEntries {
			t.Fatalf("after %d specs the cache holds %d entries, bound %d", i+1, n, networkCacheEntries)
		}
		if again, _ := networks.get(ns, false, false); again != cn {
			t.Fatalf("spec %d evicted right after insertion", i)
		}
	}
	if n := networks.cacheLen(); n != networkCacheEntries {
		t.Fatalf("full cache holds %d entries, want %d", n, networkCacheEntries)
	}
	cn, err := networks.get(cacheBaseSpec(), false, false)
	if err != nil {
		t.Fatal(err)
	}
	no, err := cn.observable(0)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := kernelCells(no)
	for i := 1; i < networkCacheCells/perPoint+10; i++ {
		if _, err := cn.observable(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cn.mu.Lock()
	n, cells := len(cn.points), cn.cells
	cn.mu.Unlock()
	if cells > networkCacheCells || n != networkCacheCells/perPoint || cells != n*perPoint {
		t.Fatalf("entry caches %d grid values in %d cells (%d per value), bound %d cells",
			n, cells, perPoint, networkCacheCells)
	}
}

// TestNetworkCacheSharesLabelOnlyGrid: without a ParamSpec the grid
// values are labels, so every value shares one compiled model.
func TestNetworkCacheSharesLabelOnlyGrid(t *testing.T) {
	ns := cacheBaseSpec()
	ns.Param = nil
	cn, err := networks.get(ns, false, false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cn.observable(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cn.observable(2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("label-only grid values compiled separately")
	}
}

func TestNetworkCacheSkipsInvalidSpecs(t *testing.T) {
	networks.reset()
	bad := cacheBaseSpec()
	bad.Observable.SpeciesB = "ghost"
	var first string
	for i := 0; i < 3; i++ {
		_, err := NetworkFactory(bad, false, false)
		if err == nil {
			t.Fatal("invalid spec accepted")
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("call %d error %q differs from first %q", i+1, err, first)
		}
	}
	if n := networks.cacheLen(); n != 0 {
		t.Fatalf("invalid spec cached: %d entries", n)
	}
	// An invalid grid value fails the same way every time, uncached.
	f, err := NetworkFactory(cacheBaseSpec(), false, false)
	if err != nil {
		t.Fatal(err)
	}
	var gridErr string
	for i := 0; i < 3; i++ {
		_, err := f.Outcome(-1)
		if err == nil {
			t.Fatal("negative rate accepted")
		}
		if i == 0 {
			gridErr = err.Error()
		} else if err.Error() != gridErr {
			t.Fatalf("grid error %q differs from first %q", err, gridErr)
		}
	}
}

// TestNetworkCacheConcurrentRuns runs one network spec from many
// goroutines on a cold cache (so they race on the fill) and holds every
// result to a serial run, byte for byte.
func TestNetworkCacheConcurrentRuns(t *testing.T) {
	ns := cacheBaseSpec()
	ns.Hist = &mc.HistConfig{Lo: -20, Width: 2, Bins: 20}
	id, err := ns.SweepID()
	if err != nil {
		t.Fatal(err)
	}
	spec := ShardSpec{
		Version: FormatVersion, Sweep: id, Grid: []float64{0.5, 1, 2}, Trials: 48, Lo: 0, Hi: 48,
		Seed: 77, Outcomes: NetworkOutcomes, Dist: true, Network: ns,
	}
	encode := func(res ShardResult, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	networks.reset()
	want := encode(Run(spec, nil))
	networks.reset()
	const goroutines = 8
	got := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Run(spec, nil)
			if err == nil {
				got[g], err = res.Encode()
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !bytes.Equal(got[g], want) {
			t.Fatalf("goroutine %d result differs from the serial run", g)
		}
	}
}

// TestNetworkFactoryCacheHitAllocs pins the cache-hit path: building a
// factory for a known spec and fetching a compiled grid value costs the
// factory's one closure, nothing more.
func TestNetworkFactoryCacheHitAllocs(t *testing.T) {
	ns := cacheBaseSpec()
	ns.Hist = &mc.HistConfig{Lo: -20, Width: 2, Bins: 20}
	run := func() {
		f, err := NetworkFactory(ns, false, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.DistF(2); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill
	if allocs := testing.AllocsPerRun(100, run); allocs > 1 {
		t.Fatalf("cache-hit NetworkFactory+DistF allocates %v times, want <= 1", allocs)
	}
}
