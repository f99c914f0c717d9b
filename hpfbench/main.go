// Command hpfbench is the hpfcg benchmark. One invocation runs one
// workload of served solver jobs end to end — HTTP client → in-process
// cluster router → two serve shards → queue → batch → prepare → solve —
// checks every answer, and prints one JSON result line:
//
//	hpfbench --workload serve-hot --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half (their throughput
// ratio is the tracing overhead), every job is recorded as spans, and
// each layer's public entry points are replayed on the workload's own
// inputs to give the per-layer numbers. Spans are written to
// .bench_build/spans-<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks the large problems and runs set-up once; the
	// benchmark's own tests use it, the command line never does.
	tiny bool
	// outDir receives span files and determinism fingerprints.
	outDir string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// details is printed on the line before the result: what the metric
// values alone do not say (tail percentile, sample counts, each
// set-up's time, the job count at which peak memory was read, generator
// rate and lateness, the first failures).
type details struct {
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Loop           string    `json:"loop"`
	Clients        int       `json:"clients,omitempty"`
	RateJobsPerS   float64   `json:"rate_jobs_per_s,omitempty"`
	Samples        int       `json:"latency_samples"`
	TailPercentile float64   `json:"tail_percentile"`
	TailBeyond     int       `json:"tail_samples_beyond"`
	SetupRuns      []float64 `json:"setup_runs_s"`
	RSSAtJobs      int64     `json:"peak_rss_at_jobs,omitempty"`
	LateMsP50      float64   `json:"generator_late_ms_p50,omitempty"`
	LateMsMax      float64   `json:"generator_late_ms_max,omitempty"`
	ErrorRate      float64   `json:"error_rate"`
	Refused        int       `json:"refused"`
	Wrong          int       `json:"wrong"`
	Errors         []string  `json:"errors,omitempty"`
	SpanFile       string    `json:"span_file,omitempty"`
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("hpfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed phase length in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	o.outDir = ".bench_build"
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfbench:", err)
		os.Exit(2)
	}
	start := time.Now()
	res, det, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hpfbench: %s seed %d done in %.1fs\n", o.workload, o.seed, time.Since(start).Seconds())
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(det); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}
