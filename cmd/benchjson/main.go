// Command benchjson converts `go test -bench` output into a
// machine-readable JSON summary, so CI can accumulate per-PR performance
// trajectory files (BENCH_<n>.json) alongside the human benchstat text.
//
// Usage:
//
//	go test -bench . -count 5 | benchjson -pr 5 > BENCH_5.json
//
// Repetitions of the same benchmark (from -count) are aggregated into
// mean/min/max per metric. Both the built-in ns/op series and every
// custom metric (trials/s, speedup-vs-optimized, lysogeny%, ns/event, ...)
// are captured. Lines that are not benchmark results (headers, PASS/ok)
// carry the run's environment and are folded into the header fields. The
// env block records the host's goos, goarch and cpu lines, the GOMAXPROCS
// the results ran at (from the -N name suffix, 1 when absent; a -cpu list
// gives a comma-separated list) and the Go version benchjson was built
// with.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Series summarises one metric's repetitions.
type Series struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Bench is one benchmark's aggregated result.
type Bench struct {
	Samples int                `json:"samples"`
	NsPerOp *Series            `json:"ns_per_op,omitempty"`
	Metrics map[string]*Series `json:"metrics,omitempty"`
}

// Report is the BENCH_<n>.json document.
type Report struct {
	Schema     string            `json:"schema"`
	PR         int               `json:"pr,omitempty"`
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks map[string]*Bench `json:"benchmarks"`
}

func main() {
	pr := flag.Int("pr", 0, "PR number recorded in the report (file naming convention BENCH_<pr>.json)")
	flag.Parse()
	report, err := Parse(os.Stdin, *pr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// accumulator folds repeated observations into a Series.
type accumulator struct {
	n   int
	sum float64
	min float64
	max float64
}

func (a *accumulator) add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
	a.sum += v
}

func (a *accumulator) series() *Series {
	if a.n == 0 {
		return nil
	}
	return &Series{Mean: a.sum / float64(a.n), Min: a.min, Max: a.max}
}

// Parse reads `go test -bench` output and aggregates it into a Report.
func Parse(r io.Reader, pr int) (*Report, error) {
	type key struct{ bench, metric string }
	accs := map[key]*accumulator{}
	samples := map[string]int{}
	env := map[string]string{"go": runtime.Version()}
	procs := map[int]bool{} // GOMAXPROCS values seen (a -cpu list gives several)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if name, value, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "Benchmark") {
			switch name {
			case "goos", "goarch", "pkg", "cpu":
				env[name] = value
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix go test appends when procs > 1.
		nprocs := 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, nprocs = name[:i], n
			}
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: not a result line
		}
		samples[name]++
		procs[nprocs] = true
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			unit := fields[i+1]
			k := key{name, unit}
			if accs[k] == nil {
				accs[k] = &accumulator{}
			}
			accs[k].add(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}

	env["gomaxprocs"] = joinSorted(procs)

	report := &Report{
		Schema:     "stochsynth-bench/v1",
		PR:         pr,
		Env:        env,
		Benchmarks: map[string]*Bench{},
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := &Bench{Samples: samples[name], Metrics: map[string]*Series{}}
		for k, acc := range accs {
			if k.bench != name {
				continue
			}
			if k.metric == "ns/op" {
				b.NsPerOp = acc.series()
			} else {
				b.Metrics[k.metric] = acc.series()
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		report.Benchmarks[name] = b
	}
	return report, nil
}

// joinSorted renders a set of ints as an ascending comma-separated list.
func joinSorted(set map[int]bool) string {
	vals := make([]int, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}
