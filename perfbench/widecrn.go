package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"stochsynth/internal/mc"
)

// The wide-crn network: wideSpecies species, wideChannels unimolecular
// conversions. A ring s0 → s1 → … → s0 keeps every species drained and
// refilled, so with molecules present the chain never quiesces and every
// trial runs exactly its step bound; the other channels are distinct
// random chords. Rates are log-uniform over three decades, so the
// propensity vector is skewed the way CompilePilot's ordering expects of
// real networks. The trial observes the species with the lowest total
// outgoing rate: molecules pile up there, so its final count is large
// and relatively precise, and every channel's firing share moves it.
const (
	wideSpecies  = 64
	wideChannels = 256
	wideMinInit  = 10
	wideMaxInit  = 50
	// wideSplit classifies a trial by whether the observed species ends
	// at or above four times the mean per-species count, about where it
	// ends on many seeds.
	wideSplit = 4 * (wideMinInit + wideMaxInit) / 2
)

// wideHist bins the observed species' final count.
var wideHist = mc.HistConfig{Lo: 0, Width: 32, Bins: 64}

// splitmix is SplitMix64, the benchmark's own generator for its inputs:
// independent of the library's rng package, so a change there cannot
// change what the benchmark feeds the program.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

func (s *splitmix) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// conversion is one channel s<from> → s<to> at rate.
type conversion struct {
	from, to int
	rate     float64
}

// wideNet is a generated wide-crn network: its seed, initial counts,
// channels, and the species a trial observes.
type wideNet struct {
	seed uint64
	init []int64
	ch   []conversion
	obs  int
}

// genWide returns the wide-crn network for seed. The same seed always
// gives the same network. Rates are rounded to the four digits the text
// carries, so the network and its text describe the same chain.
func genWide(seed uint64) wideNet {
	rnd := splitmix(seed)
	w := wideNet{seed: seed, init: make([]int64, wideSpecies), ch: make([]conversion, 0, wideChannels)}
	for i := range w.init {
		w.init[i] = int64(wideMinInit + rnd.intn(wideMaxInit-wideMinInit+1))
	}
	rate := func() float64 {
		r, _ := strconv.ParseFloat(strconv.FormatFloat(math.Pow(10, -2+3*rnd.float64()), 'g', 4, 64), 64)
		return r
	}
	seen := make(map[[2]int]bool, wideChannels)
	for i := 0; i < wideSpecies; i++ {
		j := (i + 1) % wideSpecies
		seen[[2]int{i, j}] = true
		w.ch = append(w.ch, conversion{i, j, rate()})
	}
	for len(w.ch) < wideChannels {
		from, to := rnd.intn(wideSpecies), rnd.intn(wideSpecies)
		if from == to || seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		w.ch = append(w.ch, conversion{from, to, rate()})
	}
	out := make([]float64, wideSpecies)
	for _, c := range w.ch {
		out[c.from] += c.rate
	}
	for s := range out {
		if out[s] < out[w.obs] {
			w.obs = s
		}
	}
	return w
}

// obsName is the name of the observed species in the network text.
func (w wideNet) obsName() string { return fmt.Sprintf("s%d", w.obs) }

// text returns the network in the chem.ParseNetwork format.
func (w wideNet) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# wide-crn: %d species, %d conversion channels, seed %d\n", wideSpecies, wideChannels, w.seed)
	for i, n := range w.init {
		fmt.Fprintf(&b, "s%d = %d\n", i, n)
	}
	for _, c := range w.ch {
		fmt.Fprintf(&b, "s%d -> s%d @ %s\n", c.from, c.to, strconv.FormatFloat(c.rate, 'g', -1, 64))
	}
	return b.String()
}

// endpointStats is the endpoint sample of a set of trials: the trial
// count, the sum and sum of squares of the observed species' final
// counts, and how many trials ended in outcome 0 (at or above wideSplit).
type endpointStats struct {
	n, p0      int64
	sum, sumSq float64
}

func (e *endpointStats) add(x int64) {
	e.n++
	e.sum += float64(x)
	e.sumSq += float64(x) * float64(x)
	if x >= wideSplit {
		e.p0++
	}
}

func (e endpointStats) mean() float64 { return e.sum / float64(e.n) }

// varMean is the squared standard error of the mean.
func (e endpointStats) varMean() float64 {
	m := e.mean()
	return (e.sumSq/float64(e.n) - m*m) / float64(e.n-1)
}

func (e endpointStats) prop() float64 { return float64(e.p0) / float64(e.n) }

// referenceEndpoints runs trials of the network's jump chain, each for
// steps events, with a plain linear-scan selection and the benchmark's
// own generator, and returns their endpoints. It shares no code with
// the library's kernels, so its distribution is an independent
// reference for the program's: a selection that favours the wrong
// channels moves the endpoint.
func referenceEndpoints(w wideNet, seed uint64, trials int, steps int64) endpointStats {
	// A channel is picked in two linear scans: its source species by
	// total outgoing propensity, then the channel among that species'
	// outgoing ones by rate — the same probabilities as one scan over
	// every channel.
	out := make([][]conversion, len(w.init))
	outRate := make([]float64, len(w.init))
	for _, c := range w.ch {
		out[c.from] = append(out[c.from], c)
		outRate[c.from] += c.rate
	}
	var st endpointStats
	x := make([]int64, len(w.init))
	for t := 0; t < trials; t++ {
		rnd := splitmix(seed ^ uint64(t)*0xd1b54a32d192ed03)
		copy(x, w.init)
		for e := int64(0); e < steps; e++ {
			var total float64
			for s, r := range outRate {
				total += r * float64(x[s])
			}
			u := rnd.float64() * total
			s := 0
			for ; s < len(x)-1; s++ {
				a := outRate[s] * float64(x[s])
				if u < a && x[s] > 0 {
					break
				}
				u -= a
			}
			for x[s] == 0 { // rounding ran past the last live species
				s--
			}
			cs := out[s]
			v := u / float64(x[s])
			c := cs[len(cs)-1]
			for _, k := range cs[:len(cs)-1] {
				if v < k.rate {
					c = k
					break
				}
				v -= k.rate
			}
			x[c.from]--
			x[c.to]++
		}
		st.add(x[w.obs])
	}
	return st
}
