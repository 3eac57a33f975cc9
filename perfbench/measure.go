package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/obs"
)

// metricDef names one metric and its unit. The two catalogues below are
// the benchmark's whole vocabulary; BENCHMARK.json lists the same names
// (a test keeps them in step) and README.md explains each one.
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every untraced run of every workload. An
// "operation" is one whole report on the report workloads and one /v2
// batch on the fleet workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
}

// perLayer is printed by every traced run. A metric that does not apply
// to a workload (no scans in an exact report, no HTTP in a report) reads
// 0 there; README.md names the workload each one is meant for.
var perLayer = []metricDef{
	{"emu.minst_per_s", "Minst/s"},
	{"emu.insts", "count"},
	{"scan.calls", "count"},
	{"scan.distinct", "count"},
	{"scan.useful_ratio", "ratio"},
	{"scan.busy_s", "s"},
	{"interval.jobs", "count"},
	{"interval.busy_s", "s"},
	{"checkpoint.reuse_ratio", "ratio"},
	{"sampled_ipc_err_pct", "%"},
	{"ooo.minst_per_s", "Minst/s"},
	{"ooo.smt_minst_per_s", "Minst/s"},
	{"ooo.cycles", "count"},
	{"ooo.committed", "count"},
	{"runner.busy_s", "s"},
	{"runner.queue_wait_s", "s"},
	{"runner.utilization", "ratio"},
	{"runner.machine_reuse_ratio", "ratio"},
	{"build.compiles", "count"},
	{"build.hit_ratio", "ratio"},
	{"build.evictions", "count"},
	{"build.loop_compiles", "count"},
	{"build.asm_compile_ms", "ms"},
	{"rewrite.infer_ms", "ms"},
	{"store.puts", "count"},
	{"store.bytes", "bytes"},
	{"store.put_ms", "ms"},
	{"store.restart_compiles", "count"},
	{"store.restart_first_batch_ms", "ms"},
	{"session.overhead_us_per_job", "us"},
	{"service.overhead_us_per_job", "us"},
	{"http.overhead_us_per_job", "us"},
	{"gateway.overhead_us_per_job", "us"},
	{"client.first_line_p50_ms", "ms"},
	{"client.batch_busy_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.rejected", "count"},
	{"service.queue_depth_max", "count"},
	{"http.bytes_per_job", "bytes"},
	{"gateway.hedges", "count"},
	{"gateway.hedge_win_ratio", "ratio"},
	{"gateway.retries", "count"},
	{"gateway.fallback_local", "count"},
	{"gateway.backend_share_max", "ratio"},
	{"harness.render_s", "s"},
	{"self.harness_s", "s"},
	{"self.runner_s", "s"},
	{"self.build_s", "s"},
	{"self.sample_s", "s"},
	{"self.emu_s", "s"},
	{"self.ooo_s", "s"},
	{"self.service_s", "s"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string // first failures, for the report

	e2e   map[string]float64
	layer map[string]float64
	// counters are deterministic work counts: the same seed must give
	// the same values on every repetition and every run.
	counters map[string]uint64
	// aliases carries workload-specific names for the shared end-to-end
	// metrics (report_s, batch_p50_ms, ...) and a few more figures.
	aliases map[string]float64
}

func newOutcome() *outcome {
	return &outcome{
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		counters: map[string]uint64{},
		aliases:  map[string]float64{},
	}
}

// maxProblems bounds the failure descriptions kept for the report; the
// failed count keeps counting past it.
const maxProblems = 20

// fail records one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and records a failure when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

func (o *outcome) errorRate() float64 { return ratio(float64(o.failed), float64(o.attempted)) }

// repeatCounters checks that a repetition's deterministic counters equal
// those of the first repetition that reported them (traced repetitions
// report more), and keeps them as the run's counters.
func (o *outcome) repeatCounters(what string, got map[string]uint64) {
	for _, k := range sortedKeys(got) {
		want, ok := o.counters[k]
		if !ok {
			o.counters[k] = got[k]
			continue
		}
		o.check(want == got[k], "%s: counter %s = %d, first repetition had %d", what, k, got[k], want)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the outcome: end-to-end metrics untraced, per-layer
// metrics traced. Every catalogue metric is present.
func (o *outcome) result(trace bool) result {
	defs, vals := endToEnd, o.e2e
	if trace {
		defs, vals = perLayer, o.layer
		vals["error_rate"] = o.errorRate()
		for k, v := range o.counters {
			vals[k] = float64(v)
		}
	}
	r := result{
		Correct:   o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// prefixed renames every metric of one workload's result for the
// combined output of --workload all.
func prefixed(name string, r result) result {
	out := r
	out.Metrics = map[string]metricValue{}
	for k, v := range r.Metrics {
		out.Metrics[name+"."+k] = v
	}
	return out
}

// combine folds the results of --workload all into one object.
func combine(ws []benchWorkload, rs []result) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range prefixed(ws[i].name, r).Metrics {
			out.Metrics[k] = v
		}
	}
	return out
}

// --- statistics ---

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (metrics must never be NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- peak heap ---

// heapPeak samples the Go heap's live bytes (as the last garbage
// collection marked them, so the reading does not swing with how much
// garbage awaits the next cycle) until stopped and keeps the largest.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/gc/heap/live:bytes"

// moreSetups reports whether a run should set up once more, given the
// set-up times so far.
func moreSetups(setups []float64) bool {
	var spent float64
	for _, s := range setups {
		spent += s
	}
	return len(setups) < setupRepeats || spent < setupSeconds
}

// startHeapPeak collects garbage left by set-up, then samples every
// few milliseconds.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops sampling and returns the peak in MiB.
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// --- span folding ---

// spanFold accumulates completed span trees (the benchmark's own spans
// around layer calls, and the engine's existing job spans) into per-name
// totals, counts and self times. A span's self time is its duration
// minus the union of its children's intervals.
type spanFold struct {
	mu        sync.Mutex
	total     map[string]time.Duration
	self      map[string]time.Duration
	count     map[string]int
	queueWait time.Duration // summed queue_wait_ms of engine job spans
	// scans counts the scan passes under each sampler span, by the
	// sampled job's label.
	scans map[string]int
}

func newSpanFold() *spanFold {
	return &spanFold{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
		scans: map[string]int{},
	}
}

// recorder returns an obs recorder whose completed trees fold into f.
func (f *spanFold) recorder() *obs.Recorder {
	rec := obs.NewRecorder(1) // the ring is unused; OnRecord does the work
	rec.OnRecord = f.fold
	return rec
}

func (f *spanFold) fold(root *obs.Span) {
	snap := root.Snapshot()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.walk(snap)
}

func (f *spanFold) walk(s *obs.SpanSnapshot) {
	dur := time.Duration(s.DurationMS * float64(time.Millisecond))
	f.total[s.Name] += dur
	f.count[s.Name]++
	f.self[s.Name] += dur - covered(s)
	switch s.Name {
	case "job":
		if ms, ok := s.Attrs["queue_wait_ms"].(float64); ok {
			f.queueWait += time.Duration(ms * float64(time.Millisecond))
		}
	case "sample":
		label, _ := s.Attrs["label"].(string)
		for _, c := range s.Children {
			if c.Name == "scan" {
				f.scans[label]++
			}
		}
	}
	for _, c := range s.Children {
		f.walk(c)
	}
}

// covered is the length of the union of s's children's intervals,
// clipped to s.
func covered(s *obs.SpanSnapshot) time.Duration {
	type iv struct{ lo, hi time.Time }
	end := s.Start.Add(time.Duration(s.DurationMS * float64(time.Millisecond)))
	var ivs []iv
	for _, c := range s.Children {
		lo := c.Start
		hi := c.Start.Add(time.Duration(c.DurationMS * float64(time.Millisecond)))
		if lo.Before(s.Start) {
			lo = s.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			sum += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		sum += cur.hi.Sub(cur.lo)
	}
	return sum
}

// selfSeconds sums the self time of the named spans.
func (f *spanFold) selfSeconds(names ...string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d time.Duration
	for _, n := range names {
		d += f.self[n]
	}
	return d.Seconds()
}

// totalSeconds sums the durations of the named spans.
func (f *spanFold) totalSeconds(names ...string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d time.Duration
	for _, n := range names {
		d += f.total[n]
	}
	return d.Seconds()
}

func (f *spanFold) calls(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count[name]
}

// --- environment ---

// environment describes where a result came from, so results from
// different machines, toolchains or trees are never silently compared.
func environment(rc *runConfig) map[string]any {
	return map[string]any{
		"git_sha":       gitSHA(),
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       rc.workers,
		"seed":          rc.seed,
		"seconds":       rc.seconds,
		"trace":         rc.trace,
	}
}

// gitSHA is HEAD's commit when the checkout is a git work tree, else
// "unknown" (source_sha256 still identifies the tree).
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// build output and VCS metadata) in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
