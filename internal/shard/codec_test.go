package shard

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stochsynth/internal/mc"
	"stochsynth/internal/rng"
)

// sameBits reports whether a and b are the same value down to the bit:
// floats compare by bit pattern (so -0 and 0 differ), nil and empty
// slices differ, pointers compare by pointee.
func sameBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// checkCanonical reports whether the canonical decoder accepts data and,
// when it does, requires the strict decoder to accept the same bytes
// with a bit-identical value.
func checkCanonical(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := decodeCanonical(data)
	if !ok {
		return false
	}
	var want ShardResult
	if err := decodeStrict(data, &want); err != nil {
		t.Fatalf("canonical decoder accepted bytes the strict decoder rejects (%v):\n%s", err, data)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("canonical and strict decoders disagree on\n%s\ncanonical: %#v\nstrict:    %#v", data, got, want)
	}
	return true
}

// FuzzDecodeShardResultCanonical: whenever the canonical fast path
// accepts a message, the strict decoder accepts the same bytes with an
// identical value, so the fast path can never change what DecodeResult
// returns — only how fast.
func FuzzDecodeShardResultCanonical(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "shardresult*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	dist := SweepSpec{Sweep: testDistSweep, Grid: []float64{1, 2.5}, Trials: 24, Seed: 5, Outcomes: testOutcomes, Dist: true}
	numeric := SweepSpec{Sweep: testNumericSweep, Grid: []float64{-0.5}, Trials: 30, Seed: 6, Numeric: true}
	for _, sp := range []ShardSpec{testSweepSpec().Shard(3, 20), dist.Shard(0, 9), numeric.Shard(7, 30)} {
		res, err := Run(sp, testRegistry())
		if err != nil {
			f.Fatal(err)
		}
		enc, err := res.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	for _, s := range []string{
		`{"version":3,"sweep":"s","grid":null,"trials":0,"seed":1,"ranges":[],"points":null}`,
		`{"version":3,"seed":1,"sweep":"s"}`, // keys out of order
		`{"Version":3}`,                      // case-variant key
		`{"version":3,"sweep":"a\"b"}`,       // escapes
		`{"version":3,"sweep":"a\\b"}`,
		`{"version":3,"sweep":"\u0041"}`,
		`{"version":3,"grid":[01]}`,                         // not a JSON number
		`{"version":3,"grid":[-0,1e-7,1E+21,5e-324,1e400]}`, // out-of-range float
		`{"version":3,"trials":1.0}`,                        // non-integer int
		`{"version":3,"seed":-1}`,                           // negative uint
		`{"version":3,"points":[{"param":0,"dist":null}]}`,  // null pointer
		`{"version":3,"points":[{"param":0,"counts":[9223372036854775807]}]}`,
		`{"version":3} `,
		` {"version":3}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data)
	})
}

// TestCanonicalDecoderGoldenFixtures: every golden result fixture either
// takes the fast path with the strict decoder's exact value or is left
// to the strict decoder; current-format fixtures, being Encode output,
// all take it.
func TestCanonicalDecoderGoldenFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "shardresult*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no golden result fixtures")
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !checkCanonical(t, data) && strings.HasSuffix(path, ".v3.json") {
			t.Errorf("%s: Encode output missed the canonical fast path", path)
		}
	}
}

// Edge values the property test feeds through Encode: signed zeros,
// subnormals, the shortest and longest float forms json.Marshal picks
// between (it switches to exponent form below 1e-6 and from 1e21 on),
// and the int64 extremes.
var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20,
		5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
		0.1, 1.0 / 3, -123456789.125, 1e300,
	}
	edgeInts = []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, 1<<53 + 1}
)

// edgeRegistry registers tally, numeric and dist sweeps whose trials
// draw from the edge values.
func edgeRegistry() *Registry {
	float := func(gen *rng.PCG) float64 {
		if gen.Intn(4) == 0 {
			return gen.Normal(0, 1e3)
		}
		// 1e300 squares past MaxFloat64; keep it out of moment folds.
		return edgeFloats[gen.Intn(len(edgeFloats)-1)]
	}
	reg := NewRegistry()
	reg.Register("edge/tally", Factory{
		Outcomes: 4,
		Outcome: func(param float64) (OutcomeTrial, error) {
			return OutcomeTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Classify:  func(eng any) int { return testClassify(0, 4, eng.(*rng.PCG)) },
			}, nil
		},
	})
	reg.Register("edge/numeric", Factory{
		Numeric: true,
		NumericF: func(param float64) (NumericTrial, error) {
			return NumericTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Measure:   func(eng any) float64 { return float(eng.(*rng.PCG)) },
			}, nil
		},
	})
	reg.Register("edge/dist", Factory{
		Outcomes: 2,
		Dist:     true,
		Hist:     mc.HistConfig{Lo: -3, Width: 2, Bins: 4},
		DistF: func(param float64) (DistTrial, error) {
			return DistTrial{
				NewEngine: func(gen *rng.PCG) any { return gen },
				Observe: func(eng any) mc.Obs {
					gen := eng.(*rng.PCG)
					iv := int64(gen.Intn(9)) - 4
					if gen.Intn(3) == 0 {
						iv = edgeInts[gen.Intn(len(edgeInts))]
					}
					return mc.Obs{
						Value:   float(gen),
						IValue:  iv,
						Outcome: testClassify(0, 2, gen),
						Steps:   int64(gen.Intn(1 << 20)),
					}
				},
			}, nil
		},
	})
	return reg
}

// TestEncodeTakesCanonicalPath is the fast path's coverage property:
// Encode output of randomised tally, numeric and dist results — edge
// floats in the grid and the summaries, extreme seeds and histogram
// values, empty and partial trial ranges — always decodes on the
// canonical path, to exactly the strict decoder's value.
func TestEncodeTakesCanonicalPath(t *testing.T) {
	reg := edgeRegistry()
	gen := rng.New(20261017)
	seeds := []uint64{0, math.MaxInt64, math.MaxUint64}
	for iter := 0; iter < 300; iter++ {
		spec := ShardSpec{Version: FormatVersion, Trials: 1 + gen.Intn(150)}
		switch iter % 3 {
		case 0:
			spec.Sweep, spec.Outcomes = "edge/tally", 4
		case 1:
			spec.Sweep, spec.Numeric = "edge/numeric", true
		default:
			spec.Sweep, spec.Outcomes, spec.Dist = "edge/dist", 2, true
		}
		for n := 1 + gen.Intn(4); n > 0; n-- {
			spec.Grid = append(spec.Grid, edgeFloats[gen.Intn(len(edgeFloats))])
		}
		spec.Seed = gen.Uint64()
		if gen.Intn(2) == 0 {
			spec.Seed = seeds[gen.Intn(len(seeds))]
		}
		spec.Lo = gen.Intn(spec.Trials + 1)
		spec.Hi = spec.Lo + gen.Intn(spec.Trials-spec.Lo+1)
		res, err := Run(spec, reg)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		enc, err := res.Encode()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !checkCanonical(t, enc) {
			t.Fatalf("Encode output missed the canonical fast path:\n%s", enc)
		}
		dec, err := DecodeResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(reflect.ValueOf(dec), reflect.ValueOf(res)) {
			t.Fatalf("decoded result differs from the encoded one:\n%s", enc)
		}
	}
}
