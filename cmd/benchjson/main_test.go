package main

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: stochsynth
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTrialsNaturalOptimizedReuse 	     132	   9008000 ns/op	        27.45 lysogeny%	     22202 trials/s
BenchmarkTrialsNaturalOptimizedReuse 	     128	   9152451 ns/op	        27.46 lysogeny%	     21852 trials/s
BenchmarkFigure5SyntheticHybrid/moi=1-8 	      10	 100000000 ns/op	        12.00 lysogeny%	      1000 trials/s	         25.00 speedup-vs-optimized
BenchmarkEngineDirectLambda 	    1970	    591201 ns/op	        59.12 ns/event
PASS
ok  	stochsynth	6.079s
`

func TestParseAggregatesRepetitions(t *testing.T) {
	report, err := Parse(strings.NewReader(sample), 5)
	if err != nil {
		t.Fatal(err)
	}
	if report.PR != 5 || report.Schema != "stochsynth-bench/v1" {
		t.Fatalf("bad header: %+v", report)
	}
	if report.Env["cpu"] == "" || report.Env["goos"] != "linux" {
		t.Fatalf("environment not captured: %v", report.Env)
	}
	// One line ran at -8, the others without a suffix (GOMAXPROCS 1).
	if got := report.Env["gomaxprocs"]; got != "1,8" {
		t.Fatalf("gomaxprocs = %q, want \"1,8\"", got)
	}
	if got := report.Env["go"]; got != runtime.Version() {
		t.Fatalf("go = %q, want %q", got, runtime.Version())
	}

	reuse := report.Benchmarks["TrialsNaturalOptimizedReuse"]
	if reuse == nil || reuse.Samples != 2 {
		t.Fatalf("reuse bench not aggregated: %+v", reuse)
	}
	ts := reuse.Metrics["trials/s"]
	if ts == nil || ts.Min != 21852 || ts.Max != 22202 || math.Abs(ts.Mean-22027) > 0.5 {
		t.Fatalf("trials/s series wrong: %+v", ts)
	}
	if reuse.NsPerOp == nil || reuse.NsPerOp.Min != 9008000 {
		t.Fatalf("ns/op series wrong: %+v", reuse.NsPerOp)
	}

	// The -8 GOMAXPROCS suffix is stripped; sub-benchmark paths are kept.
	hybrid := report.Benchmarks["Figure5SyntheticHybrid/moi=1"]
	if hybrid == nil {
		t.Fatalf("sub-benchmark missing: %v", keys(report.Benchmarks))
	}
	if sp := hybrid.Metrics["speedup-vs-optimized"]; sp == nil || sp.Mean != 25 {
		t.Fatalf("speedup metric missing: %+v", hybrid.Metrics)
	}

	if ev := report.Benchmarks["EngineDirectLambda"].Metrics["ns/event"]; ev == nil || ev.Mean != 59.12 {
		t.Fatalf("ns/event metric missing")
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n"), 0); err == nil {
		t.Fatal("expected an error for input with no benchmark lines")
	}
}

func keys(m map[string]*Bench) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestParseRecordsSingleGOMAXPROCS(t *testing.T) {
	const in = "BenchmarkEngineDirectLambda-2 \t 10 \t 100 ns/op\nBenchmarkEngineOptimizedDirectLambda-2 \t 10 \t 90 ns/op\n"
	report, err := Parse(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Env["gomaxprocs"]; got != "2" {
		t.Fatalf("gomaxprocs = %q, want \"2\"", got)
	}
	if report.Benchmarks["EngineDirectLambda"] == nil {
		t.Fatalf("suffix not stripped: %v", keys(report.Benchmarks))
	}
}
