package sim

import (
	"fmt"
	"math"
	"testing"

	"stochsynth/internal/chem"
	"stochsynth/internal/rng"
)

// TestRaceRefreshLockstep pins the manually inlined refresh body of
// OptimizedDirect.raceThresholds to chem.Compiled.FireAndRefresh: after a
// race, every cached propensity must be bit-equal to a fresh evaluation at
// the final state (refreshed dependents were written exactly; untouched
// channels' propensities provably did not change), and the running total
// must agree with the fresh sum within accumulation drift. Any divergence
// between the inlined copy and the kernel method — wrong operand, missed
// delta, dropped tail — shows up here deterministically.
func TestRaceRefreshLockstep(t *testing.T) {
	nets := []*chem.Network{
		allocPinNet(),
		chem.MustParseNetwork(`
x = 30
y = 10
-> x @ 2
x -> y @ 0.7
2 y -> x @ 0.3
3 x -> y @ 0.05
4 x ->  @ 0.01
x + y -> 2 y @ 0.2
`),
		// The Figure 4 log module's 2x1 + a shape, in species order
		// (x before y), next to its reverse-order twin x + 2 y.
		chem.MustParseNetwork(`
x = 30
y = 10
-> x @ 2
-> y @ 1
x -> @ 0.05
y -> @ 0.05
2 x + y -> y @ 0.002
x + 2 y -> x @ 0.003
`),
		// A wide kernel: the block-sum selection path.
		wideRingNet(64),
	}
	for ni, net := range nets {
		for seed := uint64(1); seed <= 20; seed++ {
			o := NewOptimizedDirect(net, rng.New(seed))
			a := SpeciesThreshold{Species: 0, Count: 1 << 40} // unreachable
			b := SpeciesThreshold{Species: chem.Species(net.NumSpecies() - 1), Count: 1 << 40}
			res := o.raceThresholds(a, b, 500)
			if res.Steps == 0 {
				t.Fatalf("net %d seed %d: race fired no events", ni, seed)
			}
			comp := o.comp
			st := o.State()
			freshTotal := 0.0
			for c := 0; c < comp.NumChannels(); c++ {
				want := comp.Propensity(c, st)
				if o.prop[c] != want {
					t.Fatalf("net %d seed %d: cached propensity of channel %d = %v, want %v (inlined race body diverged from FireAndRefresh)",
						ni, seed, c, o.prop[c], want)
				}
				freshTotal += want
			}
			tol := 256 * 2.220446049250313e-16 * (1 + math.Abs(freshTotal)) * float64(res.Steps)
			if diff := math.Abs(o.total - freshTotal); diff > tol {
				t.Fatalf("net %d seed %d: cached total %v vs fresh %v (diff %v > tol %v)",
					ni, seed, o.total, freshTotal, diff, tol)
			}
			// Wide kernels also maintain per-block sums incrementally; they
			// must equal a rebuild from the cached propensities bit for bit.
			if o.sums != nil {
				rebuilt := make([]float64, len(o.sums))
				comp.BlockSumsInto(o.prop, rebuilt)
				for j := range rebuilt {
					if math.Float64bits(o.sums[j]) != math.Float64bits(rebuilt[j]) {
						t.Fatalf("net %d seed %d: cached block sum %d = %v, rebuilt %v",
							ni, seed, j, o.sums[j], rebuilt[j])
					}
				}
			}
		}
	}
}

// TestBatchRaceSumsLockstep runs a batch of threshold races on the wide
// ring, one engine reseeded per trial, and checks after each race that the
// engine's incrementally maintained block sums equal a rebuild from its
// cached propensities bit for bit. The races run long enough to cross the
// renormalisation period, so both the per-event block refresh and the
// periodic full rebuild are exercised between checks.
func TestBatchRaceSumsLockstep(t *testing.T) {
	net := wideRingNet(64)
	comp := chem.Compile(net)
	if comp.NumSelectBlocks() == 0 {
		t.Fatal("wide test network did not cross chem.BlockThreshold")
	}
	const k = 8
	a := SpeciesThreshold{Species: net.MustSpecies("win"), Count: 10}
	b := SpeciesThreshold{Species: net.MustSpecies("s0"), Count: 1 << 40}
	st0 := net.InitialState()
	eng := NewOptimizedDirectCompiled(comp, rng.NewStream(5, 0))
	rebuilt := make([]float64, comp.NumSelectBlocks())
	for i := 0; i < k; i++ {
		eng.gen.Reseed(5, uint64(i))
		eng.Reset(st0, 0)
		res := eng.raceThresholds(a, b, 20000)
		if res.Steps == 0 {
			t.Fatalf("trial %d: race fired no events", i)
		}
		comp.BlockSumsInto(eng.prop, rebuilt)
		for j := range rebuilt {
			if math.Float64bits(eng.sums[j]) != math.Float64bits(rebuilt[j]) {
				t.Fatalf("trial %d block %d: cached sum %v != rebuilt %v",
					i, j, eng.sums[j], rebuilt[j])
			}
		}
	}
}

// wideRingNet is a >= chem.BlockThreshold conversion ring with a slow leak
// into a race species, exercising the block-selection path.
func wideRingNet(n int) *chem.Network {
	net := chem.NewNetwork()
	b := chem.WrapBuilder(net)
	for i := 0; i < n; i++ {
		from := fmt.Sprintf("s%d", i)
		to := fmt.Sprintf("s%d", (i+1)%n)
		b.Rxn("").In(from, 1).Out(to, 1).Rate(1)
		net.SetInitialByName(from, 30)
	}
	b.Rxn("").In("s0", 1).Out("win", 1).Rate(0.05)
	return net
}

// kernelRace is a reference threshold race with raceThresholds' control
// flow, built only from the kernel's public ops: a full refresh
// (PropensitiesInto, or PropensitiesBlocksInto on wide kernels), the
// reference SelectChannel scan, FireAndRefresh, and RefreshBlockSums. It
// keeps the same drained recheck, drift redraw and refresh-period
// renormalisation as the engine, so it must consume the generator
// identically and end in the same state.
type kernelRace struct {
	comp  *chem.Compiled
	st    chem.State
	prop  []float64
	sums  []float64 // nil on narrow kernels
	total float64
	stale int
}

func newKernelRace(comp *chem.Compiled, st0 chem.State) *kernelRace {
	k := &kernelRace{comp: comp, st: comp.NewStateVec(), prop: make([]float64, comp.NumChannels())}
	if nb := comp.NumSelectBlocks(); nb > 0 {
		k.sums = make([]float64, nb)
	}
	copy(k.st, st0)
	k.recompute()
	return k
}

func (k *kernelRace) recompute() {
	if k.sums != nil {
		k.total = k.comp.PropensitiesBlocksInto(k.st, k.prop, k.sums)
	} else {
		k.total = k.comp.PropensitiesInto(k.st, k.prop)
	}
	k.stale = 0
}

func (k *kernelRace) race(gen *rng.PCG, a, b SpeciesThreshold, maxSteps int64) RunResult {
	const refresh = 4096 // OptimizedDirect's renormalisation period
	hit := func() bool { return k.st[a.Species] >= a.Count || k.st[b.Species] >= b.Count }
	if hit() {
		return RunResult{Reason: StopPredicate}
	}
	var steps int64
	for {
		if steps >= maxSteps {
			return RunResult{Steps: steps, Reason: StopSteps}
		}
		if k.total <= 1e-300 {
			k.recompute()
			if k.total <= 0 {
				return RunResult{Steps: steps, Reason: StopQuiescent}
			}
		}
		fired := k.comp.SelectChannel(k.prop, gen.Float64()*k.total)
		if fired < 0 {
			k.recompute()
			if k.total <= 0 {
				return RunResult{Steps: steps, Reason: StopQuiescent}
			}
			fired = k.comp.SelectChannel(k.prop, gen.Float64()*k.total)
			if fired < 0 {
				return RunResult{Steps: steps, Reason: StopQuiescent}
			}
		}
		k.total = k.comp.FireAndRefresh(fired, k.st, k.prop, k.total)
		if k.sums != nil {
			k.comp.RefreshBlockSums(fired, k.prop, k.sums)
		}
		k.stale++
		if k.stale >= refresh || k.total < 0 {
			k.recompute()
		}
		steps++
		if hit() {
			return RunResult{Steps: steps, Reason: StopPredicate}
		}
	}
}

// TestRaceMatchesKernelReference pins OptimizedDirect.raceThresholds — the
// one hand-inlined race loop of the exact engines — to kernelRace, bit for
// bit: per trial of stream (0xba7c, i), the same Steps, Reason and final
// species counts, and on wide kernels the same maintained block sums.
// Covers both selection regimes: a narrow kernel (the live-channel masked
// flat scan) and a wide one (the block scan). A mask that loses a live
// channel, or a block sum left stale, shifts the generator stream and
// shows up here deterministically.
func TestRaceMatchesKernelReference(t *testing.T) {
	cases := []struct {
		name     string
		net      *chem.Network
		a, b     string
		ca, cb   int64
		maxSteps int64
	}{
		{"narrow", allocPinNet(), "c", "a", 40, 1 << 40, 3000},
		{"wide", wideRingNet(64), "win", "s0", 12, 1 << 40, 50000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comp := chem.Compile(tc.net)
			st0 := tc.net.InitialState()
			a := SpeciesThreshold{Species: tc.net.MustSpecies(tc.a), Count: tc.ca}
			b := SpeciesThreshold{Species: tc.net.MustSpecies(tc.b), Count: tc.cb}
			const seed = uint64(0xba7c)
			eng := NewOptimizedDirectCompiled(comp, rng.NewStream(seed, 0))
			for i := 0; i < 32; i++ {
				eng.gen.Reseed(seed, uint64(i))
				eng.Reset(st0, 0)
				got := eng.raceThresholds(a, b, tc.maxSteps)
				ref := newKernelRace(comp, st0)
				want := ref.race(rng.NewStream(seed, uint64(i)), a, b, tc.maxSteps)
				if got.Steps != want.Steps || got.Reason != want.Reason {
					t.Fatalf("trial %d: engine race %d steps (%v), kernel reference %d steps (%v)",
						i, got.Steps, got.Reason, want.Steps, want.Reason)
				}
				st := eng.State()
				for s := range st {
					if st[s] != ref.st[s] {
						t.Fatalf("trial %d species %d: engine count %d, kernel reference %d", i, s, st[s], ref.st[s])
					}
				}
				for j := range ref.sums {
					if math.Float64bits(eng.sums[j]) != math.Float64bits(ref.sums[j]) {
						t.Fatalf("trial %d block %d: engine sum %v, kernel reference %v", i, j, eng.sums[j], ref.sums[j])
					}
				}
			}
		})
	}
}
