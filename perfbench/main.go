// Command perfbench is the repository's layered sweep benchmark. It runs
// one named workload through the public sweep API — shard.Coordinate or
// shard.ResumeCoordinate over shard.LocalRunner or a loopback
// shard.RemotePool — checks every result, and prints its metrics as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (trials_per_s,
// setup_s, peak_rss_mb). With --trace 1 the run interleaves traced and
// untraced sweeps of the same specs, then probes every layer's public
// functions on the workload's own model, kernel and spec, and prints the
// per-layer metrics; the spans stay in memory and are written under the
// work directory when the run ends.
//
// The benchmark lives in its own module so it never joins the library's
// build; run it from the repository root through the wrapper, which
// builds it first and keeps every build and run artefact under
// .bench_build/:
//
//	bash perfbench/run.sh --workload fig5-synthetic --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errIncorrect marks a run whose outputs failed a correctness check: the
// result line is still printed (with correct=false), then the run fails.
var errIncorrect = errors.New("correctness check failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: every generated input and sweep seed derives from it")
	seconds := fs.Int("seconds", 10, "seconds of sweep time to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	workdir := fs.String("workdir", ".bench_build", "directory for journals and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setupWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%s-%d-%d", *name, *seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	header := map[string]any{"workload": *name, "seed": *seed, "trace": *trace, "env": collectEnv(dir)}
	if err := printJSON(stdout, header); err != nil {
		return err
	}

	// setup builds the workload fixture and times the build.
	setup := func() (*fixture, float64, error) {
		t0 := wallNow()
		fx, err := setupWorkload(*seed, dir)
		return fx, wallNow().Sub(t0).Seconds(), err
	}
	fx, setupS, err := setup()
	if err != nil {
		return fmt.Errorf("%s set-up: %w", *name, err)
	}
	defer fx.close()
	if err := checkProbeTarget(fx.target, *seed); err != nil {
		fmt.Fprintf(stdout, "# probe check failed: %v\n", err)
		return fmt.Errorf("%s: the per-layer probes no longer match the workload's trials: %w", *name, err)
	}

	budget := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		spansPath := filepath.Join(*workdir, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		res, err = tracedRun(stdout, fx, budget, dir, spansPath)
	} else {
		// One throwaway set-up after every sweep spreads the set-up
		// samples over the whole run, so setup_s sees the same host
		// conditions as the sweeps instead of one instant's.
		setups := []float64{setupS}
		resetup := func() error {
			f, secs, err := setup()
			if err != nil {
				return err
			}
			f.close()
			setups = append(setups, secs)
			return nil
		}
		res, err = untracedRun(stdout, fx, budget, resetup)
		if res.Metrics != nil {
			res.Metrics["setup_s"] = metric{median(setups), "s"}
			fmt.Fprintf(stdout, "# setup_s      %12.6g s      median of %d set-ups\n", median(setups), len(setups))
		}
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		return err
	}
	if perr := printJSON(stdout, res); perr != nil {
		return perr
	}
	return err
}

func printJSON(w io.Writer, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
