// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator or the dvid fleet, checks that every
// output is correct, and prints the workload's metrics as one JSON
// object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload report-exact --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --workload fleet --seed 7 --seconds 12 --trace 1
//	bash perfbench/run.sh --workload all --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics instead. The line before the
// result is a JSON environment block (git sha, Go version, CPU, nproc,
// GOMAXPROCS, workers, seed) with the workload's deterministic work
// counters and error rate. README.md lists every metric, its unit and
// the layer it belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	run  func(ctx context.Context, rc *runConfig) (*outcome, error)
}

// workloads is the registry, in the order "all" runs them.
var workloads = []benchWorkload{
	{"report-exact", runReportExact},
	{"report-sampled", runReportSampled},
	{"fleet", runFleet},
}

// runConfig is what every workload receives: its inputs are derived from
// seed alone, it measures for seconds, and it writes only below tmp.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	workers int    // simulation workers: runtime.NumCPU()
	tmp     string // scratch directory inside the checkout, removed at exit
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: report-exact, report-sampled, fleet or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 12, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var selected []benchWorkload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	tmp, err := scratchDir()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rc := &runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		tmp:     tmp,
	}
	env := environment(rc)
	var results []result
	for _, w := range selected {
		out, err := w.run(context.Background(), rc)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res := out.result(rc.trace)
		printDetail(stdout, stderr, w.name, env, out, res)
		results = append(results, res)
		if len(selected) > 1 {
			writeJSON(stdout, prefixed(w.name, res))
		}
	}
	final := results[0]
	if len(selected) > 1 {
		final = combine(selected, results)
	}
	writeJSON(stdout, final)
	return 0
}

// scratchDir makes a private directory for stores and listeners' state
// under .bench_build in the working directory (the checkout root).
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "perfbench-tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	return filepath.Abs(dir)
}

// printDetail writes the environment block with the workload's counters
// to stdout (one JSON line) and a human summary to stderr.
func printDetail(stdout, stderr io.Writer, name string, env map[string]any, out *outcome, res result) {
	detail := map[string]any{
		"workload":   name,
		"env":        env,
		"counters":   out.counters,
		"error_rate": out.errorRate(),
		"aliases":    out.aliases,
	}
	if len(out.problems) > 0 {
		detail["problems"] = out.problems
	}
	writeJSON(stdout, detail)
	fmt.Fprintf(stderr, "perfbench: %s: correct=%v attempted=%d failed=%d error_rate=%g\n",
		name, res.Correct, res.Attempted, res.Failed, out.errorRate())
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: problem: %s\n", name, p)
	}
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(stderr, "perfbench: %s: %-34s %14.6g %s\n", name, n, m.Value, m.Unit)
	}
}

func writeJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Every value written here is built from plain maps and numbers;
		// failing to encode one is a bug.
		panic(errors.Join(errors.New("perfbench: encode result"), err))
	}
	fmt.Fprintln(w, string(b))
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
