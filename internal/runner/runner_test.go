package runner

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/sample"
	"dvi/internal/workload"
)

// countingCompile wraps workload.CompileSpec and counts invocations per
// build key.
func countingCompile(t *testing.T) (CompileFunc, *sync.Map) {
	t.Helper()
	var counts sync.Map // workload.BuildKey -> *atomic.Int64
	fn := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		c, _ := counts.LoadOrStore(s.Key(scale, opt), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return workload.CompileSpec(s, scale, opt)
	}
	return fn, &counts
}

// grid builds a job list that references few distinct binaries many
// times: every workload at two EDVI flavours, four jobs each.
func grid(kind Kind) []Job {
	var jobs []Job
	for _, s := range workload.All() {
		for _, edvi := range []bool{false, true} {
			for rep := 0; rep < 4; rep++ {
				j := Job{
					Label:    fmt.Sprintf("%s edvi=%v rep%d", s.Name, edvi, rep),
					Workload: s,
					Scale:    1,
					Build:    workload.BuildOptions{EDVI: edvi},
					Kind:     kind,
				}
				if kind == Functional {
					j.Emu = emu.Config{DVI: core.Config{Level: core.None}}
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

func TestBuildCacheCompilesOncePerKey(t *testing.T) {
	compile, counts := countingCompile(t)
	eng := New(Options{Workers: 8, Compile: compile})
	jobs := grid(Build)

	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(results), len(jobs))
	}
	distinct := 0
	counts.Range(func(k, v any) bool {
		distinct++
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("key %v compiled %d times, want exactly 1", k, n)
		}
		return true
	})
	if want := len(workload.All()) * 2; distinct != want {
		t.Errorf("distinct keys = %d, want %d", distinct, want)
	}
	hits, misses := eng.Cache().Stats()
	if int(misses) != distinct {
		t.Errorf("cache misses = %d, want %d", misses, distinct)
	}
	if int(hits+misses) != len(jobs) {
		t.Errorf("hits+misses = %d, want %d", hits+misses, len(jobs))
	}
}

// TestSingleFlight gates the compile function so all workers pile onto
// one key simultaneously; exactly one compile must run.
func TestSingleFlight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	compile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		calls.Add(1)
		<-gate
		return workload.CompileSpec(s, scale, opt)
	}
	cache := NewBuildCache(compile)
	s, _ := workload.ByName("compress")

	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cache.Get(context.Background(), s, 1, workload.BuildOptions{})
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compile ran %d times under concurrent Get, want 1", n)
	}
}

func TestResultsInSubmissionOrder(t *testing.T) {
	eng := New(Options{Workers: 8})
	jobs := grid(Functional)
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("results[%d].Index = %d", i, r.Index)
		}
		if r.Job.Label != jobs[i].Label {
			t.Fatalf("results[%d] is job %q, want %q", i, r.Job.Label, jobs[i].Label)
		}
		if r.Func.Total == 0 {
			t.Fatalf("results[%d]: empty functional stats", i)
		}
	}
}

// TestDeterministicAcrossWorkerCounts runs the same grid at -j 1 and
// -j 8 and requires identical statistics position by position.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := grid(Functional)
	r1, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := New(Options{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if r1[i].Func != r8[i].Func {
			t.Errorf("job %d (%s): stats differ across worker counts:\n-j1: %+v\n-j8: %+v",
				i, jobs[i].Label, r1[i].Func, r8[i].Func)
		}
	}
}

func TestFailFast(t *testing.T) {
	boom := errors.New("boom")
	var compiles atomic.Int64
	compile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		compiles.Add(1)
		if s.Name == "li" {
			return nil, nil, boom
		}
		return workload.CompileSpec(s, scale, opt)
	}
	eng := New(Options{Workers: 4, Compile: compile})
	_, err := eng.Run(context.Background(), grid(Build))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Fail-fast must abandon the tail: far fewer compiles than jobs.
	if n := compiles.Load(); n > int64(len(workload.All())*2) {
		t.Errorf("compiles after failure = %d; queue not abandoned", n)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Options{Workers: 2})
	_, err := eng.Run(ctx, grid(Build))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	starts, dones := 0, 0
	eng := New(Options{Workers: 4, Progress: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Phase {
		case JobStart:
			starts++
		case JobDone:
			dones++
		}
		if ev.Label == "" || ev.Total == 0 {
			t.Errorf("event missing label/total: %+v", ev)
		}
	}})
	jobs := grid(Build)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if starts != len(jobs) || dones != len(jobs) {
		t.Errorf("events: %d starts, %d dones, want %d each", starts, dones, len(jobs))
	}
}

func TestTimingJobCarriesMachine(t *testing.T) {
	s, _ := workload.ByName("gcc")
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 20_000
	eng := New(Options{Workers: 1})
	res, err := eng.Run(context.Background(), []Job{{
		Workload: s, Scale: 1,
		Build:       workload.BuildOptions{EDVI: true},
		Kind:        Timing,
		Machine:     cfg,
		KeepMachine: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Machine == nil {
		t.Fatal("timing result missing Machine")
	}
	if res[0].Timing.Committed == 0 || res[0].Timing.IPC() <= 0 {
		t.Errorf("implausible timing stats: %+v", res[0].Timing)
	}
	if res[0].Image == nil || res[0].Image.TextWords() == 0 {
		t.Error("timing result missing image")
	}
}

// TestAnnotateJob pins the Annotate kind: a private plain build that
// never touches the build cache, rewritten by the engine Build selects,
// and re-linked.
func TestAnnotateJob(t *testing.T) {
	li, _ := workload.ByName("li")
	for _, infer := range []bool{false, true} {
		want, _, err := workload.CompileSpec(li, 1, workload.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		insert := rewrite.InsertKills
		if infer {
			insert = rewrite.Infer
		}
		n, err := insert(want, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}

		e := New(Options{Workers: 1})
		out, err := e.Run(context.Background(), []Job{{
			Workload: li, Scale: 1, Kind: Annotate,
			Build: workload.BuildOptions{Infer: infer},
		}})
		if err != nil {
			t.Fatalf("infer=%v: %v", infer, err)
		}
		res := out[0]
		if res.Inserted != n || n == 0 {
			t.Errorf("infer=%v: inserted %d, want %d (> 0)", infer, res.Inserted, n)
		}
		if got, exp := prog.FormatAsm(res.Program), prog.FormatAsm(want); got != exp {
			t.Errorf("infer=%v: rewritten program differs from the library's", infer)
		}
		wantImg, err := want.Link()
		if err != nil {
			t.Fatal(err)
		}
		if res.Image == nil || res.Image.TextWords() != wantImg.TextWords() {
			t.Errorf("infer=%v: image not re-linked after rewriting", infer)
		}
		if hits, misses := e.Cache().Stats(); hits+misses != 0 || e.Cache().Compiles() != 0 {
			t.Errorf("infer=%v: annotate touched the build cache (%d hits, %d misses)", infer, hits, misses)
		}
	}
}

// TestSampledJobsMeasureOneAtATime pins the engine's sampling slot and
// span shape: a batch of sampled jobs on a multi-worker pool measures
// them one at a time (no two jobs' scans and interval fan-outs overlap),
// and each runs under a "sample" span whose interval jobs are the only
// "job" spans, so job time is never counted twice.
func TestSampledJobsMeasureOneAtATime(t *testing.T) {
	so := &sample.Options{Interval: 4000, Warmup: 1000, Period: 4}
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 40_000
	var jobs []Job
	for _, name := range []string{"compress", "li", "go", "perl"} {
		s, _ := workload.ByName(name)
		jobs = append(jobs, Job{Workload: s, Scale: 1, Kind: Timing, Machine: cfg, Sampling: so})
	}

	var (
		mu    sync.Mutex
		roots []*obs.SpanSnapshot
	)
	rec := obs.NewRecorder(1)
	rec.OnRecord = func(s *obs.Span) {
		mu.Lock()
		roots = append(roots, s.Snapshot())
		mu.Unlock()
	}
	out, err := New(Options{Workers: 4}).Run(obs.WithRecorder(context.Background(), rec), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Sampled == nil || r.Sampled.Measured < 2 {
			t.Errorf("job %d: no sampled estimate: %+v", i, r.Sampled)
		}
	}

	type window struct {
		label  string
		lo, hi time.Time
	}
	var windows []window
	for _, root := range roots {
		if root.Name != "sample" {
			t.Errorf("root span %q, want sample", root.Name)
			continue
		}
		w := window{label: fmt.Sprint(root.Attrs["label"])}
		jobSpans := 0
		for _, c := range root.Children {
			if c.Name == "build" || c.Name == "sample-wait" {
				continue
			}
			if c.Name == "job" {
				jobSpans++
				for _, g := range c.Children {
					if g.Name == "job" {
						t.Errorf("%s: a job span nests inside a job span", w.label)
					}
				}
			}
			end := c.Start.Add(time.Duration(c.DurationMS * float64(time.Millisecond)))
			if w.lo.IsZero() || c.Start.Before(w.lo) {
				w.lo = c.Start
			}
			if end.After(w.hi) {
				w.hi = end
			}
		}
		if jobSpans == 0 {
			t.Errorf("%s: no interval job spans under the sample span", w.label)
		}
		windows = append(windows, w)
	}
	if len(windows) != len(jobs) {
		t.Fatalf("%d sample spans, want %d", len(windows), len(jobs))
	}
	slices.SortFunc(windows, func(a, b window) int { return a.lo.Compare(b.lo) })
	for i := 1; i < len(windows); i++ {
		if windows[i].lo.Before(windows[i-1].hi) {
			t.Errorf("%s measured while %s was still measuring", windows[i].label, windows[i-1].label)
		}
	}
}
