// Command caftbench is the repository's benchmark: four workloads that
// drive caftd serving in-process and the scheduling core as a library,
// measured from outside through the packages' public calls, with every
// output checked for correctness. See README.md for the workloads, the
// metrics and how the layer rows add up.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	caftbench --workload serve-hot|cluster-hot|serve-cold|schedule-scale|all
//	          --seed N --seconds S --trace 0|1
//	caftbench -record-digests > caftbench/digests.tsv
//
// The last line of the output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end rows of an untraced run, the
// per-layer rows of a traced one.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string // scratch for disk tiers, removed at exit
	traceDir string // where traced runs write their spans
}

// workloads in the order `--workload all` runs them.
var workloads = []struct {
	name string
	run  func(*options) (*report, error)
}{
	{"serve-hot", func(o *options) (*report, error) { return runServing(o, servingConfig{nodes: 1}) }},
	{"cluster-hot", func(o *options) (*report, error) { return runServing(o, servingConfig{nodes: 3}) }},
	{"serve-cold", func(o *options) (*report, error) { return runServing(o, servingConfig{nodes: 1, cold: true}) }},
	{"schedule-scale", runScale},
}

// spanFile is where a traced run writes its spans. One file per
// workload, overwritten by the next traced run, keeps the disk use of
// many seeds bounded.
func (o *options) spanFile() string {
	return filepath.Join(o.traceDir, o.workload+".tsv")
}

// runWorkload runs one workload with the peak-RSS mark reset first, so
// that its max_rss_mb is its own and not that of a larger workload run
// earlier in the same process.
func runWorkload(run func(*options) (*report, error), o *options) (*report, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return run(o)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o      options
		trace  int
		record bool
		out    string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run (per-layer rows)")
	flag.BoolVar(&record, "record-digests", false, "print the schedule-scale digests of every pool seed and exit")
	flag.StringVar(&out, "out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()

	if record {
		if err := recordDigests(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "caftbench:", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "caftbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	var names []string
	for _, w := range workloads {
		if o.workload == w.name || o.workload == "all" {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "caftbench: unknown workload %q\n", o.workload)
		return 2
	}
	o.traceDir = filepath.Join(out, "traces")
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "caftbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "caftbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	total := result{Correct: true, Metrics: make(map[string]resultValue)}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			continue
		}
		o.workload = w.name
		rep, err := runWorkload(w.run, &o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caftbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(os.Stdout, &o)
		res, err := rep.result(o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caftbench:", err)
			return 1
		}
		if len(names) == 1 {
			total = res
			break
		}
		writeResult(os.Stdout, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	if err := writeResult(os.Stdout, total); err != nil {
		fmt.Fprintln(os.Stderr, "caftbench:", err)
		return 1
	}
	if !total.Correct {
		fmt.Fprintln(os.Stderr, "caftbench: a correctness gate failed")
		return 1
	}
	return 0
}
