package session_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// recordingCompile wraps the real compiler and records every requested
// build flavour, so tests can assert which binaries a run asked for.
type recordingCompile struct {
	mu    sync.Mutex
	keys  []workload.BuildKey
	count atomic.Int64
}

func (rc *recordingCompile) fn() runner.CompileFunc {
	return func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		rc.count.Add(1)
		rc.mu.Lock()
		rc.keys = append(rc.keys, s.Key(scale, opt))
		rc.mu.Unlock()
		return workload.CompileSpec(s, scale, opt)
	}
}

func (rc *recordingCompile) edviRequested() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, k := range rc.keys {
		if k.EDVI {
			return true
		}
	}
	return false
}

// TestBuildOptionsForDerivation pins the centralized E-DVI rule: exactly
// the full-DVI level requests annotated binaries.
func TestBuildOptionsForDerivation(t *testing.T) {
	cases := []struct {
		level core.Level
		edvi  bool
	}{
		{core.None, false},
		{core.IDVI, false},
		{core.Full, true},
	}
	for _, c := range cases {
		if got := session.BuildOptionsFor(c.level).EDVI; got != c.edvi {
			t.Errorf("BuildOptionsFor(%v).EDVI = %v, want %v", c.level, got, c.edvi)
		}
	}
}

// TestIDVIRunsUseNoEDVIBinaries is the satellite regression: IDVI-level
// runs must never request E-DVI binaries, on any run method. The I-DVI
// hardware exploits only the calling convention; shipping kill
// annotations to it would measure fetch overhead the hardware ignores.
func TestIDVIRunsUseNoEDVIBinaries(t *testing.T) {
	w, _ := workload.ByName("li")
	for _, level := range []core.Level{core.None, core.IDVI} {
		rc := &recordingCompile{}
		sess := session.New(session.WithCompile(rc.fn()), session.WithWorkers(2))
		ctx := context.Background()

		if _, err := sess.Simulate(ctx, w, session.WithDVILevel(level), session.WithMaxInsts(10_000)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Emulate(ctx, w, session.WithDVILevel(level)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.MeasureCtxSwitch(ctx, w, session.WithDVILevel(level),
			session.WithInterval(97), session.WithMaxInsts(10_000)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sess.Build(ctx, w, session.WithDVILevel(level)); err != nil {
			t.Fatal(err)
		}
		if rc.edviRequested() {
			t.Errorf("%v-level runs requested an E-DVI binary; want plain", level)
		}
	}

	// And the full level must request annotated binaries everywhere.
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()))
	if _, err := sess.Simulate(context.Background(), w, session.WithDVILevel(core.Full), session.WithMaxInsts(10_000)); err != nil {
		t.Fatal(err)
	}
	if !rc.edviRequested() {
		t.Error("full-level Simulate did not request an E-DVI binary")
	}
}

// TestMachineConfigDerivesFlavour checks the rule also fires when the
// level arrives inside a whole machine config (the facade's
// dvi.Simulate(w, scale, cfg) path).
func TestMachineConfigDerivesFlavour(t *testing.T) {
	w, _ := workload.ByName("compress")
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()))

	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 10_000
	cfg.Emu = session.EmuConfigFor(core.IDVI, emu.ElimOff)
	if _, err := sess.Simulate(context.Background(), w, session.WithMachineConfig(cfg)); err != nil {
		t.Fatal(err)
	}
	if rc.edviRequested() {
		t.Error("IDVI machine config requested an E-DVI binary")
	}
}

// TestSimulateMatchesDirect pins the session path against a hand-rolled
// build-and-run: same flavour, same machine, same statistics.
func TestSimulateMatchesDirect(t *testing.T) {
	w, _ := workload.ByName("gcc")
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 50_000

	sess := session.New()
	got, err := sess.Simulate(context.Background(), w, session.WithMachineConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}

	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ooo.New(pr, img, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("session Simulate stats differ from direct run:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentSimulateOneCompile mirrors the service's 64-way
// coalescing load test at the session layer: concurrent identical calls
// share one single-flight compile.
func TestConcurrentSimulateOneCompile(t *testing.T) {
	w, _ := workload.ByName("ijpeg")
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()), session.WithWorkers(8))

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	stats := make([]ooo.Stats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = sess.Simulate(context.Background(), w, session.WithMaxInsts(20_000))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if stats[i] != stats[0] {
			t.Fatalf("call %d stats differ", i)
		}
	}
	if got := rc.count.Load(); got != 1 {
		t.Fatalf("%d concurrent identical Simulate calls compiled %d times, want 1", n, got)
	}
}

// TestBuildCachedVersusFresh checks the artifact ownership contract:
// cached builds share one read-only copy, WithFreshBuild hands out a
// private one and never pollutes the cache.
func TestBuildCachedVersusFresh(t *testing.T) {
	w, _ := workload.ByName("li")
	sess := session.New()
	ctx := context.Background()

	pr1, img1, err := sess.Build(ctx, w, session.WithEDVI(false))
	if err != nil {
		t.Fatal(err)
	}
	pr2, _, err := sess.Build(ctx, w, session.WithEDVI(false))
	if err != nil {
		t.Fatal(err)
	}
	if pr1 != pr2 {
		t.Error("two cached Builds returned different artifacts")
	}
	if img1 == nil || img1.TextWords() == 0 {
		t.Fatal("empty image")
	}

	fresh, _, err := sess.Build(ctx, w, session.WithEDVI(false), session.WithFreshBuild())
	if err != nil {
		t.Fatal(err)
	}
	if fresh == pr1 {
		t.Error("WithFreshBuild returned the cached artifacts")
	}
	if _, misses := sess.Cache().Stats(); misses != 1 {
		t.Errorf("fresh build went through the cache: %d misses, want 1", misses)
	}
}

// buildOnly returns a fast fake compile for pure-orchestration tests: the
// artifacts are placeholders and the jobs are Build-kind, so nothing
// executes them.
func buildOnly(delay func(name string)) runner.CompileFunc {
	return func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		if delay != nil {
			delay(s.Name)
		}
		if strings.HasPrefix(s.Name, "fail") {
			return nil, nil, fmt.Errorf("boom: %s", s.Name)
		}
		return &prog.Program{}, &prog.Image{}, nil
	}
}

// spec makes a distinct synthetic spec per name (distinct build keys).
func spec(name string) workload.Spec { return workload.Spec{Name: name} }

// TestRunStreamsInSubmissionOrder floods a multi-worker session with
// out-of-order completions and checks delivery is still 0..n-1, each
// result carrying its index.
func TestRunStreamsInSubmissionOrder(t *testing.T) {
	sess := session.New(session.WithWorkers(4), session.WithCompile(buildOnly(nil)))
	const n = 24
	jobs := make([]session.Job, n)
	for i := range jobs {
		jobs[i] = session.Job{Workload: spec(fmt.Sprintf("w%02d", i)), Kind: runner.Build}
	}
	var order []int
	err := sess.Run(context.Background(), jobs, func(res session.Result) error {
		order = append(order, res.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d results, want %d", len(order), n)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("result %d delivered at position %d", idx, i)
		}
	}
}

// TestRunStreamsPrefixBeforeBatchCompletes proves streaming is real: with
// job 0 gated, nothing is delivered even though the rest finished; once
// the gate opens, everything arrives in order.
func TestRunStreamsPrefixBeforeBatchCompletes(t *testing.T) {
	gate := make(chan struct{})
	var done atomic.Int64
	compile := buildOnly(func(name string) {
		if name == "slow" {
			<-gate
		}
	})
	progress := func(ev runner.Event) {
		if ev.Phase == runner.JobDone {
			done.Add(1)
		}
	}
	sess := session.New(session.WithWorkers(4), session.WithCompile(compile), session.WithProgress(progress))

	jobs := []session.Job{
		{Workload: spec("slow"), Kind: runner.Build},
		{Workload: spec("fast1"), Kind: runner.Build},
		{Workload: spec("fast2"), Kind: runner.Build},
		{Workload: spec("fast3"), Kind: runner.Build},
	}
	var mu sync.Mutex
	var delivered []int
	errCh := make(chan error, 1)
	go func() {
		errCh <- sess.Run(context.Background(), jobs, func(res session.Result) error {
			mu.Lock()
			delivered = append(delivered, res.Index)
			mu.Unlock()
			return nil
		})
	}()

	// All three fast jobs finish while job 0 is gated...
	deadline := time.Now().Add(5 * time.Second)
	for done.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("fast jobs never finished")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	early := len(delivered)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("delivered %d results before the head of the batch finished", early)
	}
	// ...and open the gate: everything must now stream out in order.
	close(gate)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 4 {
		t.Fatalf("delivered %d results, want 4", len(delivered))
	}
	for i, idx := range delivered {
		if idx != i {
			t.Fatalf("delivery order %v", delivered)
		}
	}
}

// TestRunToleratesPerJobFailures checks the batch contract: a failing job
// arrives as a Result with Err set (wrapped with its label) and the rest
// of the batch still runs.
func TestRunToleratesPerJobFailures(t *testing.T) {
	sess := session.New(session.WithWorkers(2), session.WithCompile(buildOnly(nil)))
	jobs := []session.Job{
		{Workload: spec("ok1"), Kind: runner.Build},
		{Label: "job-two", Workload: spec("fail2"), Kind: runner.Build},
		{Workload: spec("ok3"), Kind: runner.Build},
	}
	var results []session.Result
	err := sess.Run(context.Background(), jobs, func(res session.Result) error {
		results = append(results, res)
		return nil
	})
	if err != nil {
		t.Fatalf("tolerant Run returned batch error: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("delivered %d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs carry errors: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("failed job delivered without error")
	}
	if msg := results[1].Err.Error(); !strings.Contains(msg, "job-two") || !strings.Contains(msg, "boom") {
		t.Fatalf("error %q does not carry the label and cause", msg)
	}
}

// TestRunEmitErrorCancelsBatch: a non-nil error from the callback aborts
// the stream and is returned verbatim.
func TestRunEmitErrorCancelsBatch(t *testing.T) {
	sess := session.New(session.WithWorkers(2), session.WithCompile(buildOnly(nil)))
	var jobs []session.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, session.Job{Workload: spec(fmt.Sprintf("w%d", i)), Kind: runner.Build})
	}
	stop := errors.New("enough")
	seen := 0
	err := sess.Run(context.Background(), jobs, func(res session.Result) error {
		seen++
		if seen == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("Run returned %v, want the emit error", err)
	}
	if seen != 2 {
		t.Fatalf("emit called %d times after cancellation, want 2", seen)
	}
}

// TestRunHonoursCancellation: external context cancellation stops the
// stream with the context's error.
func TestRunHonoursCancellation(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	compile := buildOnly(func(name string) {
		if name == "blocked" {
			<-gate
		}
	})
	sess := session.New(session.WithWorkers(1), session.WithCompile(compile))
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []session.Job{
		{Workload: spec("blocked"), Kind: runner.Build},
		{Workload: spec("never"), Kind: runner.Build},
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- sess.Run(ctx, jobs, func(session.Result) error { return nil })
	}()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestEmulateMatchesFacadeConfig checks Emulate's flavour/stat parity
// with a direct emulator over the same binary.
func TestEmulateMatchesFacadeConfig(t *testing.T) {
	w, _ := workload.ByName("compress")
	sess := session.New()
	ecfg := session.EmuConfigFor(core.Full, emu.ElimLVMStack)

	got, err := sess.Emulate(context.Background(), w, session.WithEmulatorConfig(ecfg))
	if err != nil {
		t.Fatal(err)
	}

	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(pr, img, ecfg)
	if err := e.Run(runner.DefaultEmuBudget); err != nil {
		t.Fatal(err)
	}
	if got != e.Stats {
		t.Fatalf("session Emulate stats differ from direct emulator:\n got %+v\nwant %+v", got, e.Stats)
	}
}

// TestCollectRecoversCompilePanic pins panic containment: a compile
// function that panics fails its job with a "panic:" error instead of
// taking the process down; jobs waiting on the same in-flight build fail
// too instead of waiting on it forever, and other builds still run.
func TestCollectRecoversCompilePanic(t *testing.T) {
	ctx := context.Background()
	gate := make(chan struct{})
	sess := session.New(session.WithWorkers(4), session.WithCompile(
		func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
			switch s.Name {
			case "compress":
				<-gate
				fallthrough
			case "li":
				panic("compiler bug")
			}
			return workload.CompileSpec(s, scale, opt)
		}))
	job := func(name string) session.Job {
		w, _ := workload.ByName(name)
		return session.Job{Workload: w, Scale: 1, Kind: runner.Functional,
			Emu: session.EmuConfigFor(core.Full, emu.ElimLVMStack)}
	}

	_, err := sess.Collect(ctx, []session.Job{job("li")})
	if err == nil || !strings.Contains(err.Error(), "panic: compiler bug") {
		t.Fatalf("Collect error = %v, want the recovered panic", err)
	}
	if _, err := sess.Collect(ctx, []session.Job{job("li")}); err == nil {
		t.Error("a job on the panicked build succeeded")
	}

	// Four workers pick up four jobs on one build: one compiles, three
	// join it in flight. Release the compile once all three have joined.
	hits0, _ := sess.Cache().Stats()
	go func() {
		defer close(gate)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if hits, _ := sess.Cache().Stats(); hits-hits0 >= 3 {
				return
			}
		}
	}()
	jobs := []session.Job{job("compress"), job("compress"), job("compress"), job("compress"), job("go")}
	var got []session.Result
	if err := sess.Run(ctx, jobs, func(res session.Result) error {
		got = append(got, res)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	panicked := 0
	for _, res := range got[:4] {
		switch {
		case res.Err == nil:
			t.Errorf("job %d on the panicking build succeeded", res.Index)
		case strings.Contains(res.Err.Error(), "panic: compiler bug"):
			panicked++
		}
	}
	if panicked != 1 {
		t.Errorf("%d jobs carry the panic, want exactly the one that compiled", panicked)
	}
	if got[4].Err != nil || got[4].Func.Original() == 0 {
		t.Errorf("job beside the panicking build: err %v", got[4].Err)
	}
	if n := sess.Engine().Panics(); n != 2 {
		t.Errorf("Panics() = %d, want 2", n)
	}
}

// TestNewJobRejectsBeforeBuilding pins that NewJob is where a job the
// engine cannot run fails: a machine that used to deadlock or panic the
// simulator, a multi-context sampled run and an unbounded sampling plan
// all error from Simulate without compiling, let alone simulating. The
// plans the repo itself uses stay valid.
func TestNewJobRejectsBeforeBuilding(t *testing.T) {
	ctx := context.Background()
	w, _ := workload.ByName("li")
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()))

	for _, c := range []struct {
		want string
		opts []session.RunOption
	}{
		{"issue width 0 < 1", []session.RunOption{session.WithMachineConfig(machineWith(func(c *ooo.Config) { c.IssueWidth = 0 }))}},
		{"window size -1 < 1", []session.RunOption{session.WithMachineConfig(machineWith(func(c *ooo.Config) { c.WindowSize = -1 }))}},
		{"cache ports 0 < 1", []session.RunOption{session.WithMachineConfig(machineWith(func(c *ooo.Config) { c.CachePorts = 0 }))}},
		{"stack depth -1", []session.RunOption{session.WithMachineConfig(machineWith(func(c *ooo.Config) { c.Emu.DVI.StackDepth = -1 }))}},
		{"need at least 129 physical registers", []session.RunOption{session.WithContexts(4)}},
		{"sampling is single-context", []session.RunOption{session.WithContexts(2),
			session.WithMachineConfig(machineWith(func(c *ooo.Config) { c.PhysRegs = 128 })), session.WithSampling(4000, 1000, 0)}},
		{"sampling.interval 10 splits max_insts 200000 into 20000 intervals", []session.RunOption{session.WithSampling(10, 0, 0)}},
	} {
		opts := append([]session.RunOption{session.WithMaxInsts(200_000)}, c.opts...)
		if _, err := sess.Simulate(ctx, w, opts...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Simulate error = %v, want %q", err, c.want)
		}
	}
	if n := rc.count.Load(); n != 0 {
		t.Fatalf("rejected jobs compiled %d binaries, want 0", n)
	}

	// The default plan at the service's instruction ceiling, perfbench's
	// sampled mix and the tests' 4000-instruction plans all fit.
	for _, p := range []struct{ max, interval uint64 }{{2_000_000, 0}, {60_000, 5_000}, {120_000, 4_000}} {
		if _, err := session.NewJob(runner.Timing, w, session.WithMaxInsts(p.max),
			session.WithSamplingOptions(sample.Options{Interval: p.interval})); err != nil {
			t.Errorf("plan %d/%d rejected: %v", p.max, p.interval, err)
		}
	}
	if _, err := session.NewJob(runner.Annotate, w); err == nil {
		t.Error("NewJob built an annotate job from run options")
	}
}

// machineWith is the paper machine edited by edit.
func machineWith(edit func(*ooo.Config)) ooo.Config {
	cfg := ooo.DefaultConfig()
	edit(&cfg)
	return cfg
}
