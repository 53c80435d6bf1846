package mc

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"stochsynth/internal/rng"
)

func identityEngine(gen *rng.PCG) *rng.PCG { return gen }

// TestRunnersClaimTrials: trial lo of the range blocks until every other
// trial of the range has finished. Workers that claim trials complete
// this — one worker holds trial lo while the other drains the rest — but
// a fixed stripe deadlocks, because trial lo's worker owns trials the
// release waits on. The timeout turns that stall into a failure.
func TestRunnersClaimTrials(t *testing.T) {
	const (
		seed   = uint64(5)
		lo, hi = 3, 40
	)
	cfg := Config{Seed: seed, Outcomes: 2, Workers: 2}
	// A trial knows only its stream, so trial lo is recognised by its
	// first draw.
	first := rng.NewStream(seed, lo).Uint64()
	for i := lo + 1; i < hi; i++ {
		if rng.NewStream(seed, uint64(i)).Uint64() == first {
			t.Fatalf("trials %d and %d share a first draw", lo, i)
		}
	}
	runners := map[string]func(body func(*rng.PCG) int){
		"RunRangeWith": func(body func(*rng.PCG) int) {
			RunRangeWith(cfg, lo, hi, identityEngine, body)
		},
		"RunNumericRangeWith": func(body func(*rng.PCG) int) {
			RunNumericRangeWith(cfg, lo, hi, identityEngine, func(g *rng.PCG) float64 { return float64(body(g)) })
		},
		"RunDistRangeWith": func(body func(*rng.PCG) int) {
			RunDistRangeWith(cfg, HistConfig{Lo: 0, Width: 1, Bins: 2}, lo, hi, identityEngine,
				func(g *rng.PCG) Obs { return Obs{Outcome: body(g)} })
		},
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			var finished atomic.Int64
			othersDone, abort := make(chan struct{}), make(chan struct{})
			body := func(g *rng.PCG) int {
				if g.Uint64() == first {
					select {
					case <-othersDone:
					case <-abort:
					}
					return 0
				}
				if finished.Add(1) == hi-lo-1 {
					close(othersDone)
				}
				return 1
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				run(body)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				close(abort)
				<-done
				t.Fatal("trial lo waited 10s for the other trials: workers did not claim trials past a blocked one")
			}
		})
	}
}

// varLenObserve is a trial body whose length varies by three orders of
// magnitude across trials, so workers that claim trials finish them in a
// schedule-dependent order.
func varLenObserve(gen *rng.PCG) Obs {
	k := 1 + gen.Intn(200)
	if gen.Intn(8) == 0 {
		k *= 50
	}
	sum := 0.0
	for j := 0; j < k; j++ {
		sum += gen.Float64()
	}
	outcome := None
	if k%4 < 3 {
		outcome = k % 4
	}
	return Obs{Value: sum, IValue: int64(k), Outcome: outcome, Steps: int64(k)}
}

// TestRunnersBitwiseAcrossWorkerCounts: tallies, moment forests and
// distribution summaries of one range are byte-identical for every worker
// count, on a trial body whose length varies.
func TestRunnersBitwiseAcrossWorkerCounts(t *testing.T) {
	const lo, hi = 7, 230
	hcfg := HistConfig{Lo: 0, Width: 500, Bins: 8}
	encode := func(workers int) (tally, numeric, dist []byte) {
		cfg := Config{Seed: 29, Outcomes: 3, Workers: workers}
		res := RunRangeWith(cfg, lo, hi, identityEngine, func(g *rng.PCG) int { return varLenObserve(g).Outcome })
		mom := RunNumericRangeWith(cfg, lo, hi, identityEngine, func(g *rng.PCG) float64 { return varLenObserve(g).Value })
		d := RunDistRangeWith(cfg, hcfg, lo, hi, identityEngine, varLenObserve)
		enc := func(v any) []byte {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		return enc(res), enc(mom), enc(d)
	}
	wantT, wantN, wantD := encode(1)
	for _, workers := range []int{2, 3, 8} {
		gotT, gotN, gotD := encode(workers)
		if !bytes.Equal(gotT, wantT) {
			t.Errorf("workers=%d: RunRangeWith tallies differ from 1 worker:\n%s\n%s", workers, gotT, wantT)
		}
		if !bytes.Equal(gotN, wantN) {
			t.Errorf("workers=%d: RunNumericRangeWith moments differ from 1 worker", workers)
		}
		if !bytes.Equal(gotD, wantD) {
			t.Errorf("workers=%d: RunDistRangeWith summary differs from 1 worker", workers)
		}
	}
}
