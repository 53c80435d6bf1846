package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"stochsynth/internal/chem"
	"stochsynth/internal/lambda"
	"stochsynth/internal/scenario"
	"stochsynth/internal/shard"
	"stochsynth/internal/sim"
)

// setupFunc builds one workload from its seed: everything a sweep needs
// (registry, model, network, servers, pool, journal directory). It is
// what setup_s times.
type setupFunc func(seed uint64, dir string) (*fixture, error)

// The three workloads stress different layers. fig5-synthetic and
// wide-crn put nearly all their time in the engine and kernel (narrow
// flat-scan selection vs wide block-sum selection over a CompilePilot
// kernel) and leave the shard layer idle; toggle-fleet is the opposite,
// microsecond trials behind hundreds of journaled TCP round trips, so a
// shard-layer change shows there and should not move the other two.
// BENCHMARK.json records why each was chosen.
var workloads = map[string]setupFunc{
	"fig5-synthetic": setupFig5,
	"wide-crn":       setupWide,
	"toggle-fleet":   setupToggle,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fixture is one built workload: how to make sweep k's spec, how to run
// and check it, and what the per-layer probes measure.
type fixture struct {
	shards int
	spec   func(k int) shard.SweepSpec
	runner shard.Runner
	// traced, when set, is the runner a traced sweep uses instead of
	// runner: the same registry with its trial bodies wrapped in spans.
	traced func(tr *tracer) (shard.Runner, error)
	// remote marks runners whose calls are TCP round trips to the
	// in-process loopback servers (their shard.Run happens in a server
	// goroutine).
	remote bool
	// journal is the directory of the per-sweep journals; empty runs
	// shard.Coordinate without one.
	journal string
	// check validates sweep k's merged result; final runs the checks
	// that need every sweep of the run.
	check   func(k int, spec shard.SweepSpec, res shard.ShardResult) error
	final   func() error
	closers []func()
	target  layerTarget
}

// transport says how the fixture's shards travel, for the reports.
func (f *fixture) transport() string {
	if f.remote {
		return "loopback TCP to in-process shard.Serve workers on 127.0.0.1, not a network"
	}
	return "in-process"
}

func (f *fixture) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}

// sweepOptions dispatches one shard at a time, sweepd's default: every
// shard already runs its trials on GOMAXPROCS workers, in process or in
// the worker that serves it, so concurrent dispatch would oversubscribe
// the cores.
func sweepOptions() shard.Options {
	return shard.Options{Parallel: 1, Retries: 2}
}

// sweep runs one sweep through the fixture's coordinator entry point.
// Journaled sweeps get a fresh journal each time: a leftover one would
// make ResumeCoordinate replay instead of compute.
func (f *fixture) sweep(spec shard.SweepSpec, run shard.Runner, opts shard.Options) (shard.ShardResult, error) {
	if f.journal == "" {
		return shard.Coordinate(spec, f.shards, run, opts)
	}
	path := filepath.Join(f.journal, "sweep.jrnl")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return shard.ShardResult{}, err
	}
	defer os.Remove(path)
	return shard.ResumeCoordinate(spec, path, f.shards, run, opts)
}

// sweepSeed derives sweep k's base seed from the workload seed.
func sweepSeed(seed uint64, k int) uint64 {
	s := splitmix(seed)
	t := splitmix(s.next() ^ uint64(k))
	return t.next()
}

func encodeDigest(res shard.ShardResult) (string, []byte, error) {
	raw, err := res.Encode()
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8]), raw, nil
}

// ---- fig5-synthetic ----------------------------------------------------

var fig5MOIs = []float64{1, 2, 4, 6, 8, 10}

const (
	fig5Trials = 100 // per MOI per sweep
	fig5Shards = 4
	fig5Probe  = 4 // the MOI the layer probes dose the model with
)

// fig5Params are the synthesis parameters of lambda.SyntheticModel (the
// paper's Figure 4), whose programmed response the sweep must reproduce.
var fig5Params = lambda.SynthesisParams{A: 15, B: 6, CInv: 6}

func setupFig5(seed uint64, dir string) (*fixture, error) {
	reg := shard.Builtin()
	f, err := reg.Lookup(shard.SweepLambdaSynthetic)
	if err != nil {
		return nil, err
	}
	for _, moi := range fig5MOIs {
		if _, err := f.Outcome(moi); err != nil {
			return nil, err
		}
	}
	probe, err := f.Outcome(fig5Probe)
	if err != nil {
		return nil, err
	}

	m := lambda.SyntheticModel()
	st0 := m.Net.InitialState()
	st0.Set(m.MOI, fig5Probe)
	pooled := make([][3]int64, len(fig5MOIs)) // lysis, lysogeny, unresolved
	fx := &fixture{
		shards: fig5Shards,
		spec: func(k int) shard.SweepSpec {
			return shard.SweepSpec{
				Sweep: shard.SweepLambdaSynthetic, Grid: fig5MOIs, Trials: fig5Trials,
				Seed: sweepSeed(seed, k), Outcomes: 2,
			}
		},
		runner: shard.LocalRunner(reg),
		traced: func(tr *tracer) (shard.Runner, error) {
			treg, err := tracedRegistry(reg, shard.SweepLambdaSynthetic, tr)
			if err != nil {
				return nil, err
			}
			return shard.LocalRunner(treg), nil
		},
		check: func(_ int, _ shard.SweepSpec, res shard.ShardResult) error {
			for i, pt := range res.Points {
				pooled[i][0] += pt.Counts[lambda.Lysis]
				pooled[i][1] += pt.Counts[lambda.Lysogeny]
				pooled[i][2] += pt.None
			}
			return nil
		},
		final: func() error { return checkProgrammed(pooled) },
		target: layerTarget{
			net: m.Net, text: string(chem.AppendCRN(nil, m.Net)), st0: st0,
			compile:  func(n *chem.Network) *chem.Compiled { return chem.CompileAt(n, st0) },
			a:        sim.SpeciesThreshold{Species: m.Cro2, Count: m.Thresholds.Cro2},
			b:        sim.SpeciesThreshold{Species: m.CI2, Count: m.Thresholds.CI2},
			maxSteps: 5_000_000, // the lambda race's step bound
			body:     trialBody{newEngine: probe.NewEngine, tally: probe.Classify},
			modelBuild: func() {
				lm := lambda.SyntheticModel()
				lm.EngineFactoryAt(fig5Probe)
			},
			simTrials: 16,
			mcTrials:  64,
		},
	}
	return fx, nil
}

// checkProgrammed holds the pooled lysogeny percentage at every MOI to
// the programmed staircase: within 6σ of binomial sampling noise at the
// pooled trial count plus one point of calibration slack (the tolerance
// of the lambda package's own staircase test), with at most 1% of
// trials unresolved.
func checkProgrammed(pooled [][3]int64) error {
	for i, c := range pooled {
		moi := int64(fig5MOIs[i])
		n := c[0] + c[1] + c[2]
		if n == 0 {
			return fmt.Errorf("fig5: MOI %d has no trials", moi)
		}
		want := lambda.Programmed(fig5Params, moi)
		got := 100 * float64(c[1]) / float64(n)
		sd := 100 * math.Sqrt(want/100*(1-want/100)/float64(n))
		if math.Abs(got-want) > 6*sd+1 {
			return fmt.Errorf("fig5: MOI %d lysogeny %.2f%% over %d trials, programmed %.0f%% ± %.2f",
				moi, got, n, want, 6*sd+1)
		}
		if c[2]*100 > n {
			return fmt.Errorf("fig5: MOI %d has %d of %d trials unresolved", moi, c[2], n)
		}
	}
	return nil
}

// ---- wide-crn ----------------------------------------------------------

const (
	wideSteps  = 20_000 // events per trial, exact: the network never quiesces
	wideTrials = 384
	wideShards = 4
	// widePilotEvents mirrors the network path's pilot length, so the
	// compile probe times the kernel the workload actually runs on
	// (checkProbeTarget holds the two to the same trials).
	widePilotEvents = 512
	// wideRefTrials is how many trials the independent reference chain
	// runs for the endpoint check.
	wideRefTrials = 512
	// wideZ is how many standard errors the program's endpoint statistics
	// may lie from the reference's.
	wideZ = 5
)

// wideSpec wraps a generated network in the workload's v3 spec: an
// endpoint observable on species obs with a fixed step bound.
func wideSpec(text, obs string) *shard.NetworkSpec {
	return &shard.NetworkSpec{
		CRN:        text,
		MaxSteps:   wideSteps,
		Observable: shard.ObservableSpec{Kind: shard.ObsEndpoint, SpeciesA: obs, CountA: wideSplit, Value: obs},
		Hist:       &wideHist,
	}
}

func setupWide(seed uint64, dir string) (*fixture, error) {
	w := genWide(seed)
	text := w.text()
	ns := wideSpec(text, w.obsName())
	id, err := ns.SweepID()
	if err != nil {
		return nil, err
	}
	base := shard.SweepSpec{
		Sweep: id, Grid: []float64{0}, Trials: wideTrials,
		Outcomes: shard.NetworkOutcomes, Dist: true, Network: ns,
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	f, err := shard.NetworkFactory(ns, false, true)
	if err != nil {
		return nil, err
	}
	trial, err := f.DistF(0)
	if err != nil {
		return nil, err
	}
	netw, err := chem.ParseNetworkString(text)
	if err != nil {
		return nil, err
	}
	obs := netw.MustSpecies(w.obsName())
	spec := func(k int) shard.SweepSpec {
		s := base
		s.Seed = sweepSeed(seed, k)
		return s
	}
	var digest0 string
	var pooled endpointStats
	fx := &fixture{
		shards: wideShards,
		spec:   spec,
		runner: shard.LocalRunner(shard.NewRegistry()),
		check: func(k int, spec shard.SweepSpec, res shard.ShardResult) error {
			if err := checkExactSteps(res, wideSteps); err != nil {
				return err
			}
			pt := res.Points[0].Dist
			sum := pt.Moments.Summary()
			n := float64(sum.N)
			pooled.n += sum.N
			pooled.sum += sum.Mean * n
			pooled.sumSq += sum.Var*(n-1) + sum.Mean*sum.Mean*n
			pooled.p0 += pt.FPT.Classes[0].Count
			if k == 0 {
				d, _, err := encodeDigest(res)
				digest0 = d
				return err
			}
			return nil
		},
		final: func() error {
			// Sweep 0 again, on one shard and untimed: the merged digest
			// must repeat, whatever the partition, and in every run of
			// the same binary.
			res, err := shard.Coordinate(spec(0), 1, shard.LocalRunner(shard.NewRegistry()), shard.Options{})
			if err != nil {
				return err
			}
			d, _, err := encodeDigest(res)
			if err != nil {
				return err
			}
			if d != digest0 {
				return fmt.Errorf("wide-crn: sweep 0 digest %s on one shard, %s on %d", d, digest0, wideShards)
			}
			if err := checkDigestAcrossRuns(filepath.Join(filepath.Dir(dir), "digests"), "wide-crn", seed, d); err != nil {
				return err
			}
			fmt.Printf("# wide-crn sweep 0 digest %s (repeats on 1 and %d shards and across runs)\n", d, wideShards)
			refSeed := splitmix(seed ^ 0x5eed)
			ref := referenceEndpoints(w, refSeed.next(), wideRefTrials, wideSteps)
			return checkEndpoints(w.obsName(), pooled, ref)
		},
		target: layerTarget{
			net: netw, text: text, st0: netw.InitialState(),
			compile: func(n *chem.Network) *chem.Compiled {
				return chem.CompilePilot(n, widePilotEvents)
			},
			a:         sim.SpeciesThreshold{Species: obs, Count: math.MaxInt64},
			b:         sim.SpeciesThreshold{Species: obs, Count: math.MaxInt64},
			maxSteps:  wideSteps,
			body:      trialBody{newEngine: trial.NewEngine, observe: trial.Observe, hist: wideHist},
			simTrials: 16,
			mcTrials:  48,
		},
	}
	return fx, nil
}

// checkEndpoints holds the program's pooled endpoint mean of the observed
// species and its outcome
// 0 share to the independent reference chain's, within wideZ standard
// errors of their difference. Both sample the same jump chain, so only a
// selection that picks channels with the wrong probabilities (or a
// kernel that fires the wrong ones) moves them apart.
func checkEndpoints(obs string, got, ref endpointStats) error {
	if got.n < 2 || ref.n < 2 {
		return fmt.Errorf("wide-crn: %d program and %d reference trials, too few to compare", got.n, ref.n)
	}
	if d, se := got.mean()-ref.mean(), math.Sqrt(got.varMean()+ref.varMean()); math.Abs(d) > wideZ*se {
		return fmt.Errorf("wide-crn: %s endpoint mean %.3f over %d trials, reference chain %.3f over %d (more than %d×%.3f apart)",
			obs, got.mean(), got.n, ref.mean(), ref.n, wideZ, se)
	}
	p := float64(got.p0+ref.p0) / float64(got.n+ref.n)
	se := math.Sqrt(p * (1 - p) * (1/float64(got.n) + 1/float64(ref.n)))
	if d := got.prop() - ref.prop(); math.Abs(d) > wideZ*se {
		return fmt.Errorf("wide-crn: P(%s ≥ %d) %.4f over %d trials, reference chain %.4f over %d (more than %d×%.4f apart)",
			obs, wideSplit, got.prop(), got.n, ref.prop(), ref.n, wideZ, se)
	}
	fmt.Printf("# wide-crn %s endpoint mean %.3f, P0 %.4f over %d trials; reference chain %.3f, %.4f over %d\n",
		obs, got.mean(), got.prop(), got.n, ref.mean(), ref.prop(), ref.n)
	return nil
}

// checkDigestAcrossRuns records a digest under the running binary's
// hash, the workload and the seed, and requires every later run of the
// same binary and seed to reproduce it.
func checkDigestAcrossRuns(dir, workload string, seed uint64, digest string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%x-seed%d", workload, h.Sum(nil)[:8], seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != digest {
			return fmt.Errorf("%s: sweep 0 digest %s, an earlier run of this binary and seed got %s", workload, digest, prev)
		}
		return nil
	case os.IsNotExist(err):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(digest), 0o644)
	default:
		return err
	}
}

// checkExactSteps requires every trial of a conservative-network sweep
// to have run exactly steps events: such a network never quiesces, so
// the step bound is the only way a trial ends.
func checkExactSteps(res shard.ShardResult, steps int64) error {
	for i, pt := range res.Points {
		fpt := pt.Dist.FPT
		if fpt.Unresolved.Count != 0 {
			return fmt.Errorf("wide-crn: point %d has %d unresolved trials", i, fpt.Unresolved.Count)
		}
		var n int64
		for o, c := range fpt.Classes {
			if c.Count == 0 {
				continue
			}
			if c.MinSteps != steps || c.MaxSteps != steps || c.Steps != c.Count*steps {
				return fmt.Errorf("wide-crn: point %d outcome %d ran %d..%d events, want exactly %d",
					i, o, c.MinSteps, c.MaxSteps, steps)
			}
			n += c.Count
		}
		if n != int64(res.Covered()) {
			return fmt.Errorf("wide-crn: point %d classified %d of %d trials", i, n, res.Covered())
		}
	}
	return nil
}

// ---- toggle-fleet ------------------------------------------------------

const (
	toggleTrials = 4000 // per grid point per sweep
	toggleShards = 400
)

func setupToggle(seed uint64, dir string) (_ *fixture, err error) {
	sc, ok := scenario.ByName("toggle")
	if !ok {
		return nil, fmt.Errorf("toggle scenario not in the library")
	}
	base, err := sc.SweepSpec()
	if err != nil {
		return nil, err
	}
	base.Trials = toggleTrials
	spec := func(k int) shard.SweepSpec {
		s := base
		s.Seed = sweepSeed(seed, k)
		return s
	}

	fx := &fixture{shards: toggleShards, spec: spec, remote: true}
	defer func() {
		if err != nil {
			fx.close() // stops the servers and pools built so far
		}
	}()
	workers := min(2, runtime.NumCPU())
	addrs := make([]string, 0, workers)
	for i := 0; i < workers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		// The servers keep their own connection deadlines.
		srv := shard.Serve(ln, shard.NewRegistry()) //stochlint:allow wallclock
		fx.closers = append(fx.closers, srv.Close)
		addrs = append(addrs, srv.Addr().String())
	}
	// One pool over every worker, as sweepd -workers builds it.
	pool, err := shard.NewRemotePool(addrs, shard.RemoteOptions{})
	if err != nil {
		return nil, err
	}
	fx.closers = append(fx.closers, pool.Close)
	// The pool keeps its own dial and cooldown deadlines.
	fx.runner = pool.Runner() //stochlint:allow wallclock
	// Dial and handshake every worker with an empty shard (the pool
	// picks workers round robin), so the first timed sweep finds the
	// pool warm.
	for range addrs {
		if _, err := fx.runner(base.Shard(0, 0)); err != nil {
			return nil, err
		}
	}
	fx.journal = filepath.Join(dir, "journal")
	if err := os.MkdirAll(fx.journal, 0o755); err != nil {
		return nil, err
	}
	j, _, err := shard.OpenJournal(filepath.Join(fx.journal, "setup.jrnl"), base)
	if err != nil {
		return nil, err
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	if err := os.Remove(j.Path()); err != nil {
		return nil, err
	}

	fx.check = func(_ int, spec shard.SweepSpec, res shard.ShardResult) error {
		if err := checkPins(sc, spec, res); err != nil {
			return err
		}
		// The fleet's merge must equal an untimed in-process single-shard
		// run of the same spec, bit for bit.
		ref, err := shard.Coordinate(spec, 1, shard.LocalRunner(shard.NewRegistry()), shard.Options{})
		if err != nil {
			return err
		}
		_, want, err := encodeDigest(ref)
		if err != nil {
			return err
		}
		_, got, err := encodeDigest(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("toggle-fleet: %d-shard fleet merge differs from the 1-shard in-process run", toggleShards)
		}
		return nil
	}

	netw, err := chem.ParseNetworkString(sc.CRN)
	if err != nil {
		return nil, err
	}
	f, err := shard.NetworkFactory(base.Network, false, true)
	if err != nil {
		return nil, err
	}
	// Grid point 0 (mka = 50) is the network's own rate, so the probes'
	// unmodified network is exactly that point's model.
	trial, err := f.DistF(base.Grid[0])
	if err != nil {
		return nil, err
	}
	o := sc.Observable
	fx.target = layerTarget{
		net: netw, text: sc.CRN, st0: netw.InitialState(),
		compile:   chem.Compile,
		a:         sim.SpeciesThreshold{Species: netw.MustSpecies(o.SpeciesA), Count: o.CountA},
		b:         sim.SpeciesThreshold{Species: netw.MustSpecies(o.SpeciesB), Count: o.CountB},
		maxSteps:  sc.MaxSteps,
		body:      trialBody{newEngine: trial.NewEngine, observe: trial.Observe, hist: sc.Hist},
		simTrials: 4000,
		mcTrials:  8000,
	}
	return fx, nil
}

// checkPins holds every grid point to the scenario's statistical pins
// (set ≥5σ wide at the scenario's own 800 trials, so they hold a
// fortiori at the sweep's larger count) and requires every trial to be
// classified.
func checkPins(sc *scenario.Scenario, spec shard.SweepSpec, res shard.ShardResult) error {
	for i, pt := range res.Points {
		pin := sc.Pins[i]
		if n := pt.Dist.FPT.N(); n != int64(spec.Trials) {
			return fmt.Errorf("toggle-fleet: point %d classified %d of %d trials", i, n, spec.Trials)
		}
		p0 := pt.Dist.FPT.Proportion(0).Estimate()
		if math.Abs(p0-pin.P0) > pin.P0Tol {
			return fmt.Errorf("toggle-fleet: point %d P0 %.4f outside pin %.3f ± %.3f", i, p0, pin.P0, pin.P0Tol)
		}
		mean := pt.Dist.Moments.Summary().Mean
		if math.Abs(mean-pin.Mean) > pin.MeanTol {
			return fmt.Errorf("toggle-fleet: point %d mean %.3f outside pin %.2f ± %.2f", i, mean, pin.Mean, pin.MeanTol)
		}
	}
	return nil
}
