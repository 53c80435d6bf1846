package chem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomNetwork builds a random CRN exercising every lowering case: orders
// 0–3 (sources, conversions, homodimers, mixed bimolecular, trimolecular),
// higher-order generic-binomial channels, catalysts (species on both
// sides), sinks (no products), and zero-rate channels.
func randomNetwork(rng *rand.Rand) *Network {
	net := NewNetwork()
	numSpecies := 1 + rng.Intn(8)
	species := make([]Species, numSpecies)
	for i := range species {
		species[i] = net.AddSpecies(fmt.Sprintf("s%d", i))
		net.SetInitial(species[i], int64(rng.Intn(7)))
	}
	numReactions := 1 + rng.Intn(14)
	for r := 0; r < numReactions; r++ {
		var reactants []Term
		switch rng.Intn(8) {
		case 0: // source (const)
		case 1: // conversion/decay (linear)
			reactants = []Term{{species[rng.Intn(numSpecies)], 1}}
		case 2: // homodimer
			reactants = []Term{{species[rng.Intn(numSpecies)], 2}}
		case 3: // mixed bimolecular (may merge to a homodimer)
			reactants = []Term{
				{species[rng.Intn(numSpecies)], 1},
				{species[rng.Intn(numSpecies)], 1},
			}
		case 4: // homotrimer
			reactants = []Term{{species[rng.Intn(numSpecies)], 3}}
		case 5: // order-3 mixed
			reactants = []Term{
				{species[rng.Intn(numSpecies)], 1},
				{species[rng.Intn(numSpecies)], 2},
			}
		case 6: // generic binomial (coefficient ≥ 4)
			reactants = []Term{{species[rng.Intn(numSpecies)], int64(4 + rng.Intn(3))}}
		default: // multi-species generic
			reactants = []Term{
				{species[rng.Intn(numSpecies)], int64(1 + rng.Intn(4))},
				{species[rng.Intn(numSpecies)], int64(1 + rng.Intn(4))},
				{species[rng.Intn(numSpecies)], int64(1 + rng.Intn(2))},
			}
		}
		var products []Term
		for p := rng.Intn(3); p > 0; p-- { // 0 products = sink
			products = append(products, Term{species[rng.Intn(numSpecies)], int64(1 + rng.Intn(2))})
		}
		if rng.Intn(4) == 0 && len(reactants) > 0 {
			// Catalyst: restore a reactant on the product side.
			products = append(products, reactants[0])
		}
		rate := rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
		if rng.Intn(12) == 0 {
			rate = 0
		}
		net.AddReaction("", reactants, products, rate)
	}
	return net
}

// randomState draws counts that exercise the x < coeff zero cutoffs (small
// counts) as well as multi-digit populations.
func randomState(rng *rand.Rand, n int) State {
	st := make(State, n)
	for i := range st {
		if rng.Intn(2) == 0 {
			st[i] = int64(rng.Intn(7)) // 0..6: hits every cutoff
		} else {
			st[i] = int64(rng.Intn(1000))
		}
	}
	return st
}

// TestCompiledMatchesReferenceProperty is the compiled-kernel exactness
// property: on randomized networks and states, every compiled channel's
// propensity equals Propensity bit for bit (including the x < coeff
// cutoff and the generic binomialFloat path) and the compiled Apply
// produces exactly State.Apply's state.
func TestCompiledMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for iter := 0; iter < 200; iter++ {
		net := randomNetwork(rng)
		for _, comp := range []*Compiled{Compile(net), CompileIdentity(net)} {
			checkPermutation(t, net, comp)
			for trial := 0; trial < 20; trial++ {
				st := randomState(rng, net.NumSpecies())
				for ch := 0; ch < comp.NumChannels(); ch++ {
					r := net.Reaction(int(comp.Perm[ch]))
					want := Propensity(r, st)
					got := comp.Propensity(ch, st)
					if got != want {
						t.Fatalf("iter %d ch %d (%v): compiled propensity %v != reference %v\nstate %v",
							iter, ch, comp.Op[ch], got, want, st)
					}
					if st.CanFire(r) != comp.CanFire(ch, st) {
						t.Fatalf("iter %d ch %d: CanFire mismatch", iter, ch)
					}
					if !st.CanFire(r) {
						continue
					}
					ref := st.Clone()
					ref.Apply(r)
					cst := st.Clone()
					comp.Apply(ch, cst)
					for s := range ref {
						if ref[s] != cst[s] {
							t.Fatalf("iter %d ch %d: Apply state mismatch at species %d: %d != %d",
								iter, ch, s, cst[s], ref[s])
						}
					}
				}
				checkBatchOps(t, net, comp, st, iter)
			}
		}
	}
}

// checkBatchOps pins the batch forms against the per-channel reference:
// PropensitiesInto must reproduce each Propensity bit for bit with the
// channel-order sequential total, and FireAndRefresh must leave every
// dependent's cached propensity bit-equal to a fresh recomputation on the
// post-fire state, with the non-dependents untouched.
func checkBatchOps(t *testing.T, net *Network, comp *Compiled, st State, iter int) {
	t.Helper()
	prop := make([]float64, comp.NumChannels())
	total := comp.PropensitiesInto(st, prop)
	wantTotal := 0.0
	for ch := range prop {
		want := Propensity(net.Reaction(int(comp.Perm[ch])), st)
		if prop[ch] != want {
			t.Fatalf("iter %d: PropensitiesInto[%d] = %v, want %v", iter, ch, prop[ch], want)
		}
		wantTotal += want
	}
	if total != wantTotal {
		t.Fatalf("iter %d: PropensitiesInto total %v, want %v", iter, total, wantTotal)
	}

	for ch := 0; ch < comp.NumChannels(); ch++ {
		if !comp.CanFire(ch, st) {
			continue
		}
		ext := comp.NewStateVec()
		copy(ext, st)
		cache := append([]float64(nil), prop...)
		newTotal := comp.FireAndRefresh(ch, ext, cache, total)
		after := ext[:comp.NumSpecies()]
		refAfter := st.Clone()
		refAfter.Apply(net.Reaction(int(comp.Perm[ch])))
		for s := range refAfter {
			if after[s] != refAfter[s] {
				t.Fatalf("iter %d ch %d: FireAndRefresh state mismatch at species %d", iter, ch, s)
			}
		}
		if ext[comp.NumSpecies()] != 1 {
			t.Fatalf("iter %d ch %d: FireAndRefresh clobbered the phantom slot", iter, ch)
		}
		isDep := make(map[int32]bool)
		for _, j := range comp.Deps(ch) {
			isDep[j] = true
			want := comp.Propensity(int(j), after)
			if cache[j] != want {
				t.Fatalf("iter %d ch %d: refreshed propensity of dependent %d = %v, want %v",
					iter, ch, j, cache[j], want)
			}
		}
		checkTotal := 0.0
		for j := range cache {
			if !isDep[int32(j)] && cache[j] != prop[j] {
				t.Fatalf("iter %d ch %d: non-dependent %d propensity changed", iter, ch, j)
			}
			checkTotal += cache[j]
		}
		// The running total accumulates incrementally, so its error scales
		// with the *largest* magnitude passing through the sum — a huge
		// propensity dropping to zero on firing cancels catastrophically
		// (that is precisely the drift the engines renormalise for). Bound
		// the discrepancy by a few hundred ulps of the pre-fire total.
		tol := 256 * 2.220446049250313e-16 * (1 + math.Abs(total) + math.Abs(checkTotal))
		if diff := math.Abs(newTotal - checkTotal); diff > tol {
			t.Fatalf("iter %d ch %d: FireAndRefresh total drifted: %v vs %v (tol %v)",
				iter, ch, newTotal, checkTotal, tol)
		}
	}
}

// checkPermutation verifies Perm/Channel are inverse permutations and the
// CSR dependency rows are exactly DependencyGraph remapped through them.
func checkPermutation(t *testing.T, net *Network, comp *Compiled) {
	t.Helper()
	numR := net.NumReactions()
	seen := make([]bool, numR)
	for ch := 0; ch < numR; ch++ {
		i := comp.Perm[ch]
		if seen[i] {
			t.Fatalf("Perm maps two channels to reaction %d", i)
		}
		seen[i] = true
		if comp.Channel[i] != int32(ch) {
			t.Fatalf("Channel is not the inverse of Perm at %d", i)
		}
	}
	deps := DependencyGraph(net)
	for ch := 0; ch < numR; ch++ {
		want := make(map[int32]bool)
		for _, j := range deps[comp.Perm[ch]] {
			want[comp.Channel[j]] = true
		}
		row := comp.Deps(ch)
		if len(row) != len(want) {
			t.Fatalf("dep row %d: %d entries, want %d", ch, len(row), len(want))
		}
		for k, j := range row {
			if !want[j] {
				t.Fatalf("dep row %d contains unexpected channel %d", ch, j)
			}
			if k > 0 && row[k-1] >= j {
				t.Fatalf("dep row %d is not strictly ascending", ch)
			}
		}
	}
}

// TestCompileOpcodeClassification pins the opcode table on a hand-built
// network covering every lowering rule.
func TestCompileOpcodeClassification(t *testing.T) {
	net := NewNetwork()
	a := net.AddSpecies("a")
	b := net.AddSpecies("b")
	net.AddReaction("src", nil, []Term{{a, 1}}, 1)            // const
	net.AddReaction("lin", []Term{{a, 1}}, nil, 1)            // linear
	net.AddReaction("bi", []Term{{a, 1}, {b, 1}}, nil, 1)     // bilinear
	net.AddReaction("dim", []Term{{a, 2}}, []Term{{b, 1}}, 1) // dimer
	net.AddReaction("tri", []Term{{a, 3}}, nil, 1)            // trimer
	net.AddReaction("gen4", []Term{{a, 4}}, nil, 1)           // generic
	net.AddReaction("gen12", []Term{{a, 1}, {b, 2}}, nil, 1)  // generic
	want := map[string]PropOp{
		"src": OpConst, "lin": OpLinear, "bi": OpBilinear, "dim": OpDimer,
		"tri": OpTrimer, "gen4": OpGeneric, "gen12": OpGeneric,
	}
	comp := CompileIdentity(net)
	for ch := 0; ch < comp.NumChannels(); ch++ {
		label := comp.Reaction(ch).Label
		if comp.Op[ch] != want[label] {
			t.Errorf("%s: opcode %v, want %v", label, comp.Op[ch], want[label])
		}
	}
	// The propensity-descending ordering must still map channels back to
	// the right reactions (exercised structurally above; spot-check here).
	ordered := Compile(net)
	for ch := 0; ch < ordered.NumChannels(); ch++ {
		if ordered.Reaction(ch).Label == "" {
			t.Fatalf("ordered compile lost reaction identity")
		}
	}
}

// evalRefreshRecord is RefreshInstr's documented formula, evaluated
// against the pre-fire extended state.
func evalRefreshRecord(ins RefreshInstr, ext State) float64 {
	xA := ext[ins.S1] + int64(ins.DA)
	xB := ext[ins.S2] + int64(ins.DB)
	fA := xA + int64(ins.Dim)*(xA*(xA-1)>>1-xA)
	return (ins.Rate * float64(fA)) * float64(xB)
}

// TestRefreshRecordsMatchPropensity pins every packed refresh record —
// linear, bilinear and dimer — to Propensity at the post-fire state, bit
// for bit (math.Float64bits, so a -0 for +0 fails too), on random states
// of random networks and of a hand-built one whose mixed-order laws
// 2 a + b and a + 2 b must stay tail records: the record formula
// multiplies as (Rate·fA)·xB, while the binomial walk multiplies the
// terms in species order.
func TestRefreshRecordsMatchPropensity(t *testing.T) {
	fixed := NewNetwork()
	a := fixed.AddSpecies("a")
	b := fixed.AddSpecies("b")
	c := fixed.AddSpecies("c")
	fixed.AddReaction("src", nil, []Term{{a, 1}}, 3)
	fixed.AddReaction("lin", []Term{{a, 1}}, []Term{{b, 1}}, 0.5)
	fixed.AddReaction("bi", []Term{{a, 1}, {b, 1}}, []Term{{c, 1}}, 0.01)
	fixed.AddReaction("dim", []Term{{b, 2}}, []Term{{c, 1}}, 0.02)
	fixed.AddReaction("2a+b", []Term{{a, 2}, {b, 1}}, []Term{{c, 2}}, 0.003)
	fixed.AddReaction("a+2b", []Term{{a, 1}, {b, 2}}, []Term{{c, 1}}, 0.004)
	fixed.AddReaction("deg", []Term{{c, 1}}, nil, 0.1)

	comp := Compile(fixed)
	for _, ins := range comp.Refs {
		if op := comp.Op[ins.J]; op != OpLinear && op != OpBilinear && op != OpDimer {
			t.Errorf("%s (%v) has a packed refresh record", comp.Reaction(int(ins.J)).Label, op)
		}
	}
	inTails := map[string]bool{}
	for _, ins := range comp.Tails {
		inTails[comp.Reaction(int(ins.J)).Label] = true
	}
	if !inTails["2a+b"] || !inTails["a+2b"] {
		t.Errorf("mixed-order generic laws missing from the tail records: %v", inTails)
	}

	rng := rand.New(rand.NewSource(14))
	nets := []*Network{fixed}
	for i := 0; i < 100; i++ {
		nets = append(nets, randomNetwork(rng))
	}
	for ni, net := range nets {
		comp := Compile(net)
		for trial := 0; trial < 20; trial++ {
			st := randomState(rng, net.NumSpecies())
			ext := comp.NewStateVec()
			copy(ext, st)
			for ch := 0; ch < comp.NumChannels(); ch++ {
				if !comp.CanFire(ch, st) {
					continue
				}
				post := st.Clone()
				comp.Apply(ch, post)
				for _, ins := range comp.Refs[comp.RefStart[ch]:comp.RefStart[ch+1]] {
					got := evalRefreshRecord(ins, ext)
					want := comp.Propensity(int(ins.J), post)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("net %d ch %d: record for channel %d (%v) = %v, Propensity = %v\npre-fire state %v",
							ni, ch, ins.J, comp.Op[ins.J], got, want, st)
					}
				}
			}
		}
	}
}
