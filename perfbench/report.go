package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dvi/internal/harness"
	"dvi/internal/obs"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
)

// Report budgets (timing jobs, sweep jobs), below the dvibench defaults
// of 400k / 150k so that a run holds several whole reports. The exact
// report's time scales with its budget. The sampled report's does much
// less, so it keeps a larger budget, at which its scans still dominate.
const (
	exactMaxInsts     = 100_000
	exactSweepInsts   = 40_000
	sampledMaxInsts   = 200_000
	sampledSweepInsts = 75_000
	// checkMaxInsts keeps the set-up's 1-worker vs n-worker rendering
	// check small.
	checkMaxInsts = 20_000
	// A run sets up at least setupRepeats times and until setupSeconds
	// have gone into set-up, so that short set-ups are taken often
	// enough for a steady median; setup_s is the median.
	setupRepeats = 5
	setupSeconds = 2
	// minReports is the fewest reports an untraced run renders.
	minReports = 3
)

// referenceFigures are the grids the sampled report's error is measured
// on (against exact runs of the same jobs made in set-up).
var referenceFigures = []string{"fig10", "fig11"}

func runReportExact(ctx context.Context, rc *runConfig) (*outcome, error) {
	return runReport(ctx, rc, false)
}

func runReportSampled(ctx context.Context, rc *runConfig) (*outcome, error) {
	return runReport(ctx, rc, true)
}

// reportOptions is the harness configuration of a report workload. The
// seed offsets the sampler's systematic selection; exact reports have
// no other input to vary.
func reportOptions(workers int, sampled bool, seed uint64) harness.Options {
	opt := harness.Options{Scale: 1, MaxInsts: exactMaxInsts, SweepMaxInsts: exactSweepInsts, Workers: workers}
	if sampled {
		opt.MaxInsts, opt.SweepMaxInsts = sampledMaxInsts, sampledSweepInsts
		opt.Sampling = &sample.Options{Seed: seed}
	}
	return opt
}

// gridJobs returns every figure's grid in registry order: the batch
// harness.CollectResults submits for the whole report.
func gridJobs(opt harness.Options, ids ...string) []runner.Job {
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var jobs []runner.Job
	for _, fig := range harness.Figures() {
		if fig.Jobs != nil && (len(ids) == 0 || want[fig.ID]) {
			jobs = append(jobs, fig.Jobs(opt)...)
		}
	}
	return jobs
}

// progressLog observes the engine's job events on traced reports: every
// grid job's run time.
type progressLog struct {
	mu     sync.Mutex
	grid   int // len of the report's grid batch
	traced bool
	began  []time.Time
	took   []time.Duration
}

func (p *progressLog) reset(grid int, traced bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grid, p.traced = grid, traced
	p.began = make([]time.Time, grid)
	p.took = make([]time.Duration, grid)
}

func (p *progressLog) event(ev runner.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Only the report's single grid batch indexes results one to one.
	if !p.traced || ev.Total != p.grid || ev.Index >= p.grid {
		return
	}
	now := time.Now()
	switch ev.Phase {
	case runner.JobStart:
		p.began[ev.Index] = now
	case runner.JobDone:
		p.took[ev.Index] = now.Sub(p.began[ev.Index])
	}
}

// reportBench holds one report workload's session and set-up products.
type reportBench struct {
	rc   *runConfig
	opt  harness.Options
	ids  []string
	grid []runner.Job
	sess *session.Session
	prog *progressLog
	// ref holds the exact results of the reference grids (sampled only).
	ref harness.ResultSet
}

// setup builds a fresh session, checks that a small figure renders the
// same at 1 and at n workers, warms the build cache with every grid
// binary and, for the sampled report, runs the exact reference grids.
func (b *reportBench) setup(ctx context.Context, out *outcome) error {
	b.prog = &progressLog{}
	b.sess = harness.NewSession(b.opt, b.prog.event)

	small := harness.Options{Scale: 1, MaxInsts: checkMaxInsts, SweepMaxInsts: checkMaxInsts}
	var texts [2]bytes.Buffer
	for i, workers := range []int{1, b.rc.workers} {
		small.Workers = workers
		if err := harness.RunFigures(ctx, harness.NewSession(small, nil), small, []string{"fig10"}, &texts[i]); err != nil {
			return fmt.Errorf("worker-count check: %w", err)
		}
	}
	out.check(bytes.Equal(texts[0].Bytes(), texts[1].Bytes()),
		"fig10 renders differently at 1 and %d workers", b.rc.workers)

	for _, j := range b.grid {
		if _, _, err := b.sess.Cache().Get(ctx, j.Workload, j.Scale, j.Build); err != nil {
			return fmt.Errorf("build %s: %w", j.Workload.Name, err)
		}
	}
	if b.opt.Sampling != nil {
		exact := b.opt
		exact.Sampling = nil
		rs, err := harness.CollectResults(ctx, b.sess, exact, referenceFigures)
		if err != nil {
			return fmt.Errorf("exact reference: %w", err)
		}
		b.ref = rs
	}
	return nil
}

// reportRun is one collected and rendered report.
type reportRun struct {
	text    []byte
	rs      harness.ResultSet
	wall    float64 // seconds
	renderS float64
}

// report collects every figure's results on the shared session and
// renders them. When fold is non-nil the run is traced: the benchmark's
// own spans (report, collect, render) and the engine's job spans fold
// into it.
func (b *reportBench) report(ctx context.Context, fold *spanFold) (reportRun, error) {
	var run reportRun
	if fold != nil {
		ctx = obs.WithRecorder(ctx, fold.recorder())
	}
	b.prog.reset(len(b.grid), fold != nil)
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "report")
	defer span.End()
	cctx, cspan := obs.StartSpan(ctx, "collect")
	rs, err := harness.CollectResults(cctx, b.sess, b.opt, b.ids)
	cspan.End()
	if err != nil {
		return run, err
	}
	var text bytes.Buffer
	for _, fig := range harness.Figures() {
		_, rspan := obs.StartSpan(ctx, "render")
		t0 := time.Now()
		tables, err := fig.Render(b.opt, rs)
		run.renderS += since(t0)
		rspan.End()
		if err != nil {
			return run, fmt.Errorf("%s: %w", fig.ID, err)
		}
		for _, t := range tables {
			fmt.Fprintln(&text, t)
		}
	}
	run.wall = since(start)
	run.text, run.rs = text.Bytes(), rs
	return run, nil
}

// runReport sets the report workload up (see moreSetups), then
// renders whole reports on one session until the run time is spent, at
// least minReports times.
func runReport(ctx context.Context, rc *runConfig, sampled bool) (*outcome, error) {
	out := newOutcome()
	b := &reportBench{rc: rc, opt: reportOptions(rc.workers, sampled, rc.seed), ids: harness.FigureIDs()}
	b.grid = gridJobs(b.opt)

	var setups []float64
	for moreSetups(setups) {
		t0 := time.Now()
		if err := b.setup(ctx, out); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, since(t0))
	}

	// Traced runs render a warm-up report, then alternate untraced and
	// traced ones, ending on a traced one, so that the tracing overhead
	// compares medians taken over the same stretch of the run.
	minRuns := minReports
	if rc.trace {
		minRuns = 5
	}
	var (
		first                      []byte
		walls                      []float64
		untracedWalls, tracedWalls []float64
		renders                    []float64
		traced                     []map[string]float64
		lastRS                     harness.ResultSet
	)
	heap := startHeapPeak()
	start := time.Now()
	for i := 0; i < minRuns || since(start) < rc.seconds || (rc.trace && i%2 == 0); i++ {
		var fold *spanFold
		if rc.trace && i > 0 && i%2 == 0 {
			fold = newSpanFold()
		}
		pool0 := b.sess.PoolStats()
		run, err := b.report(ctx, fold)
		if err != nil {
			return nil, fmt.Errorf("report %d: %w", i, err)
		}
		out.attempted += int64(len(b.grid))
		if first == nil {
			first = run.text
		}
		out.check(bytes.Equal(run.text, first), "report %d renders differently from report 0", i)
		out.repeatCounters(fmt.Sprintf("report %d", i), b.counters(run.rs, fold))
		walls = append(walls, run.wall)
		renders = append(renders, run.renderS)
		if fold != nil {
			tracedWalls = append(tracedWalls, run.wall)
			traced = append(traced, b.traceLayers(run, fold, pool0))
		} else if i > 0 {
			untracedWalls = append(untracedWalls, run.wall)
		}
		lastRS = run.rs
	}
	peak := heap.stopMB()

	wall := median(walls)
	out.e2e["setup_s"] = median(setups)
	out.e2e["peak_heap_mb"] = peak
	out.e2e["jobs_per_s"] = ratio(float64(len(b.grid)), wall)
	out.e2e["latency_p50_ms"] = wall * 1000
	out.e2e["latency_p95_ms"] = quantile(walls, 0.95) * 1000
	out.aliases["report_s"] = wall
	out.aliases["reports"] = float64(len(walls))

	if sampled {
		errPct, err := sampledError(b.ref, lastRS)
		if err != nil {
			return nil, err
		}
		out.layer["sampled_ipc_err_pct"] = errPct
		out.aliases["sampled_ipc_err_pct"] = errPct
	}
	if rc.trace {
		for _, k := range sortedKeys(traced[0]) {
			var xs []float64
			for _, m := range traced {
				xs = append(xs, m[k])
			}
			out.layer[k] = median(xs)
		}
		out.layer["harness.render_s"] = median(renders)
		out.layer["trace.overhead_pct"] = 100 * (ratio(median(tracedWalls), median(untracedWalls)) - 1)
		out.layer["scan.useful_ratio"] = ratio(float64(out.counters["scan.distinct"]), float64(out.counters["scan.calls"]))
		if err := probeAll(ctx, rc, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// counters are the report's deterministic work counts: simulated cycles
// and committed instructions (exact runs plus the sampler's measured
// intervals), sampled interval jobs and the distinct scans the grid
// needs. A traced report adds what only its spans show: functional scans
// run and emulator instructions stepped (functional jobs plus every
// scan pass).
func (b *reportBench) counters(rs harness.ResultSet, fold *spanFold) map[string]uint64 {
	c := map[string]uint64{}
	labels := map[string]int{}
	for _, id := range sortedKeys(rs) {
		for _, r := range rs[id] {
			if r.Sampled != nil {
				labels[r.Job.Label]++
			}
		}
	}
	var emuInsts uint64
	for _, id := range sortedKeys(rs) {
		for _, r := range rs[id] {
			switch r.Job.Kind {
			case runner.Functional:
				emuInsts += r.Func.Total
			case runner.Timing:
				if est := r.Sampled; est != nil {
					c["ooo.cycles"] += est.SampledCycles
					c["ooo.committed"] += est.SampledInsts
					c["interval.jobs"] += uint64(est.Measured)
					if fold != nil {
						// Scans per job: the sample span's scan children,
						// shared out among jobs that carry the same label.
						emuInsts += uint64(fold.scans[r.Job.Label]/labels[r.Job.Label]) * est.TotalInsts
					}
				} else {
					c["ooo.cycles"] += r.Timing.Cycles
					c["ooo.committed"] += r.Timing.Committed
				}
			}
		}
	}
	if b.opt.Sampling != nil {
		c["scan.distinct"] = uint64(distinctScans(b.grid))
	}
	if fold != nil {
		c["emu.insts"] = emuInsts
		if b.opt.Sampling != nil {
			c["scan.calls"] = uint64(fold.calls("scan"))
		}
	}
	return c
}

// distinctScans counts the functional scans a sampled report needs at
// least: a scan depends only on the program, the emulator, the cache
// hierarchy, the predictor and the instruction cap, so jobs that differ
// only in core width, ports, window or registers could share one.
func distinctScans(jobs []runner.Job) int {
	keys := map[string]bool{}
	for _, j := range jobs {
		if j.Kind != runner.Timing || j.Machine.ContextCount() != 1 {
			continue
		}
		m := j.Machine
		keys[fmt.Sprintf("%v|%+v|%+v|%+v|%d", j.Workload.Key(j.Scale, j.Build), m.Emu, m.Hierarchy, m.Pred, m.MaxInsts)] = true
	}
	return len(keys)
}

// traceLayers derives one traced report's per-layer numbers from its
// results, its progress events, its span tree and the pool counters.
func (b *reportBench) traceLayers(run reportRun, f *spanFold, pool0 runner.PoolStats) map[string]float64 {
	L := map[string]float64{}
	b.prog.mu.Lock()
	took := append([]time.Duration(nil), b.prog.took...)
	b.prog.mu.Unlock()
	// Results in grid order line up with the grid batch's event indices.
	var insts, secs [2]float64 // [single-context, SMT]
	i := 0
	for _, fig := range harness.Figures() {
		if fig.Jobs == nil {
			continue
		}
		for _, r := range run.rs[fig.ID] {
			if i < len(took) && r.Job.Kind == runner.Timing && r.Sampled == nil && took[i] > 0 {
				k := 0
				if r.Job.Machine.ContextCount() > 1 {
					k = 1
				}
				insts[k] += float64(r.Timing.Committed)
				secs[k] += took[i].Seconds()
			}
			i++
		}
	}
	L["ooo.minst_per_s"] = ratio(insts[0], secs[0]) / 1e6
	L["ooo.smt_minst_per_s"] = ratio(insts[1], secs[1]) / 1e6

	pool := b.sess.PoolStats()
	reuse := float64(pool.MachineReuse - pool0.MachineReuse)
	fresh := float64(pool.MachineFresh - pool0.MachineFresh)
	ckReuse := float64(pool.CheckpointReuse - pool0.CheckpointReuse)
	ckFresh := float64(pool.CheckpointFresh - pool0.CheckpointFresh)
	busy := f.totalSeconds("job")
	L["runner.busy_s"] = busy
	L["runner.queue_wait_s"] = f.queueWait.Seconds()
	L["runner.utilization"] = ratio(busy, run.wall*float64(b.rc.workers))
	L["runner.machine_reuse_ratio"] = ratio(reuse, reuse+fresh)
	L["checkpoint.reuse_ratio"] = ratio(ckReuse, ckReuse+ckFresh)
	L["self.harness_s"] = f.selfSeconds("report", "collect", "render")
	L["self.runner_s"] = f.selfSeconds("job")
	L["self.build_s"] = f.selfSeconds("build", "compile", "store-decode")
	L["self.sample_s"] = f.selfSeconds("sample", "scan", "aggregate")
	L["self.emu_s"] = f.selfSeconds("functional", "ctxswitch")
	L["self.ooo_s"] = f.selfSeconds("timing", "interval")
	hits, misses := b.sess.Cache().Stats()
	L["build.compiles"] = float64(b.sess.Cache().Compiles())
	L["build.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	if b.opt.Sampling != nil {
		L["scan.busy_s"] = f.totalSeconds("scan")
		L["interval.busy_s"] = f.totalSeconds("interval")
		// Sampled timing runs only in intervals: the ooo rate is the
		// measured instructions over the interval jobs' run time.
		var measured float64
		for _, rs := range run.rs {
			for _, r := range rs {
				if r.Sampled != nil {
					measured += float64(r.Sampled.DetailedInsts)
				}
			}
		}
		L["ooo.minst_per_s"] = ratio(measured, L["interval.busy_s"]) / 1e6
	}
	return L
}

// sampledError is the largest relative IPC error, in percent, of the
// sampled report's estimates against the exact reference runs of the
// same jobs.
func sampledError(ref, got harness.ResultSet) (float64, error) {
	worst := 0.0
	for _, id := range referenceFigures {
		exact, est := ref[id], got[id]
		if len(exact) != len(est) || len(exact) == 0 {
			return 0, fmt.Errorf("sampled error: %s has %d exact and %d sampled results", id, len(exact), len(est))
		}
		for i := range exact {
			if exact[i].Job.Label != est[i].Job.Label {
				return 0, fmt.Errorf("sampled error: %s job %d is %q exact and %q sampled", id, i, exact[i].Job.Label, est[i].Job.Label)
			}
			want := exact[i].Timing.IPC()
			worst = math.Max(worst, 100*math.Abs(est[i].Timing.IPC()-want)/want)
		}
	}
	return worst, nil
}
