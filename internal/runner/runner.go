// Package runner is the experiment execution engine: it runs jobs on a
// bounded worker pool over a memoizing, single-flight build cache. The
// experiment harness (internal/harness) declares grids of (workload ×
// configuration) jobs and consumes ordered results; this package owns all
// concurrency so the experiments themselves stay declarative and
// deterministic.
//
// Every kind of work is a Job: exact timing runs, functional and
// context-switch measurements, bare builds, kill insertion (Annotate),
// and sampled timing runs (a Timing job with Sampling set), whose
// sampler fans its detailed intervals out as nested SampledInterval jobs
// on the same pool; sampled jobs measure one at a time, beside the
// batch's other jobs. Each job runs inside one recover: a panicking job
// fails with a "panic:" error and the process carries on.
//
// Determinism contract: Run returns results indexed by submission order
// regardless of completion order, every simulator instance is built from
// shared read-only compiled artifacts with private mutable state, and no
// job observes another job's scheduling. A report rendered from the
// result slice is therefore byte-identical at any worker count.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/sample"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// Kind selects what a job runs after its binary is built.
type Kind uint8

const (
	// Timing runs the out-of-order timing simulator (ooo.Machine).
	Timing Kind = iota
	// Functional runs the reference emulator (program-property studies:
	// Figures 3, 9, 13's dynamic overhead, the ablations).
	Functional
	// CtxSwitch samples live-register counts at preemption points
	// (ctxswitch.Measure, Figure 12).
	CtxSwitch
	// Build compiles and links only; the result carries the artifacts.
	// Figure 13 uses it for static code-size ratios.
	Build
	// SampledInterval runs one checkpointed interval of a sampled
	// simulation in detail (sample.RunInterval). The sampler submits one
	// job per selected interval; they are independent, so a batch spreads
	// across the pool like any other grid.
	SampledInterval
	// Annotate inserts kill annotations into a private build that skips
	// the cache (the rewriter mutates its program): Build.Infer selects
	// rewrite.Infer, otherwise rewrite.InsertKills, with Build.Policy.
	// The result carries the rewritten program, its re-linked image and
	// the number of kills inserted.
	Annotate
)

// String returns the progress label for the kind.
func (k Kind) String() string {
	switch k {
	case Timing:
		return "timing"
	case Functional:
		return "functional"
	case CtxSwitch:
		return "ctxswitch"
	case SampledInterval:
		return "interval"
	case Annotate:
		return "annotate"
	default:
		return "build"
	}
}

// DefaultEmuBudget caps functional runs that set no explicit budget; it
// matches the harness's historical 200M-instruction safety net.
const DefaultEmuBudget = 200_000_000

// Job is one unit of experiment work: which benchmark binary to build
// (or fetch from the cache) and what to run it on.
type Job struct {
	// Label identifies the job in progress output and errors
	// ("fig5 gcc r34 edvi"). Optional; a default is derived.
	Label string

	// Workload, Scale and Build determine the binary; together they form
	// the build cache key (workload.BuildKey).
	Workload workload.Spec
	Scale    int
	Build    workload.BuildOptions

	Kind Kind

	// Machine configures Timing jobs.
	Machine ooo.Config
	// Emu configures Functional and CtxSwitch jobs.
	Emu emu.Config
	// EmuBudget caps Functional and CtxSwitch runs
	// (0 = DefaultEmuBudget).
	EmuBudget uint64
	// Interval is the CtxSwitch preemption sampling interval.
	Interval uint64

	// Sampling, when set on a single-context Timing job, runs it through
	// the statistical sampler instead of an exact detailed run (see
	// Result.Sampled).
	Sampling *sample.Options
	// Sample is the checkpoint a SampledInterval job simulates. The
	// checkpoint is read-only during the run and owned by the sampled
	// job that submitted it.
	Sample *sample.Checkpoint

	// NoPrune disables an Annotate job's interprocedural kill pruning
	// (rewrite.Options.NoPrune).
	NoPrune bool

	// KeepMachine retains the Timing simulator instance on the Result
	// for callers that need cache/predictor detail (cmd/dvisim). Off by
	// default: a machine pins its whole memory image, and large grids
	// retaining hundreds of them measurably slow the run with GC
	// pressure.
	KeepMachine bool
}

// label returns Label or a derived description.
func (j Job) label() string {
	if j.Label != "" {
		return j.Label
	}
	kind := j.Kind.String()
	if j.sampled() {
		kind = "sampled"
	}
	return fmt.Sprintf("%s %s", kind, j.Workload.Key(j.Scale, j.Build))
}

// sampled reports whether the job runs through the sampler.
func (j Job) sampled() bool { return j.Kind == Timing && j.Sampling != nil }

// Result is the outcome of one job, in submission order.
type Result struct {
	Job   Job
	Index int

	// Program and Image are the (shared, read-only) compiled artifacts.
	Program *prog.Program
	Image   *prog.Image

	// Timing holds ooo statistics for Timing jobs; Machine is the
	// simulator instance itself, retained only when Job.KeepMachine is
	// set. CtxStats carries the per-context breakdown for multi-context
	// Timing jobs (nil on single-context machines, where the aggregate is
	// the whole story).
	Timing   ooo.Stats
	CtxStats []ooo.Stats
	Machine  *ooo.Machine

	// Func holds emulator statistics for Functional jobs.
	Func emu.Stats

	// Switch holds the measurement for CtxSwitch jobs.
	Switch ctxswitch.Result

	// Interval holds the measurement for SampledInterval jobs.
	Interval sample.IntervalResult

	// Sampled carries the whole-program estimate of a Timing job run
	// with Sampling set; Timing then holds the estimate rendered as
	// machine stats. Exact runs leave it nil.
	Sampled *sample.Estimate

	// Inserted is the number of kills an Annotate job inserted; Program
	// and Image are then its private rewritten build.
	Inserted int

	// Err is the job's failure, wrapped with its label. Run never returns
	// results with Err set (it fails fast instead); Stream sets it on the
	// failed job's result and keeps the batch going.
	Err error
}

// Phase tags a progress event.
type Phase uint8

const (
	// JobStart fires when a worker picks the job up.
	JobStart Phase = iota
	// JobDone fires after the job completed successfully.
	JobDone
	// JobFailed fires once for the job whose error aborts the run.
	JobFailed
)

// Event is one progress notification. Events for different jobs
// interleave arbitrarily under concurrency; Index orders them logically.
type Event struct {
	Phase Phase
	Index int
	Total int
	Label string
	Err   error // JobFailed only
}

// ProgressFunc observes job lifecycle events. It is called from worker
// goroutines and must be safe for concurrent use.
//
// Ordering contract: for any single job, its JobStart happens-before its
// JobDone or JobFailed (delivered on the same goroutine, so a callback
// that tracks per-job state needs no synchronization per Index). Events
// for different jobs carry no ordering at all — a batch running on N
// workers interleaves up to N jobs' events arbitrarily, and Index values
// do not arrive monotonically. Callbacks must not block: every event is
// delivered inline on a worker goroutine, so a slow callback stalls that
// worker's job pipeline.
type ProgressFunc func(Event)

// Options configures an Engine.
type Options struct {
	// Workers bounds the pool (<=0 means runtime.GOMAXPROCS(0)).
	Workers int
	// Progress, when non-nil, receives per-job lifecycle events. It is
	// invoked concurrently from worker goroutines; see ProgressFunc for
	// the exact ordering contract.
	Progress ProgressFunc
	// Compile overrides the build function (nil = workload.CompileSpec).
	Compile CompileFunc
	// CacheCapacity bounds the build cache to this many binaries with
	// LRU eviction (<=0 = unbounded). Batch report runs can stay
	// unbounded; long-lived daemons accepting arbitrary user assembly
	// should set a bound.
	CacheCapacity int
	// Store, when non-nil, backs the build cache with an on-disk
	// artifact store: cache misses decode persisted artifacts instead
	// of compiling, and fresh compiles are written through, so restarts
	// on the same directory skip every compile. Sampled runs persist
	// their interval-result sets through the same store.
	Store *store.Store
}

// Engine executes job batches. One engine owns one build cache, so every
// batch submitted through it shares memoized binaries; create one engine
// per report and feed it all figures' grids.
//
// The engine also owns pools of reusable simulator instances: a timing
// machine or emulator is reset per job (ooo.Machine.Reset /
// emu.Emulator.ResetFor — observably identical to a fresh one) instead of
// reallocating its window, caches, predictor tables and memory image.
// This is what keeps a long-lived daemon's steady-state allocation per
// simulation request small, and a large report grid off the garbage
// collector.
type Engine struct {
	workers  int
	progress ProgressFunc
	cache    *BuildCache

	machines sync.Pool // *ooo.Machine
	emus     sync.Pool // *emu.Emulator

	// Pool effectiveness accounting: how often a job ran on a reset warm
	// instance versus having to build a fresh one (PoolStats; exported by
	// the service as /metrics counters).
	machineReuse, machineFresh atomic.Int64
	emuReuse, emuFresh         atomic.Int64
	ckReuse, ckFresh           atomic.Int64

	panics atomic.Int64 // jobs whose panic runJob recovered

	// sampling is a one-slot semaphore: one sampled job at a time scans
	// and fans its intervals out (runSampled), so at most one scan's
	// checkpoints are live and its interval jobs add at most a pool's
	// worth of machines, however many sampled jobs a batch or a set of
	// concurrent batches holds.
	sampling chan struct{}
	// checkpoints is the free list of checkpoint buffers, touched only
	// by the holder of the sampling slot. It keeps the last sampled
	// job's buffers, and only those, in the order that job took them, so
	// the next job's n-th capture reuses a buffer already grown for an
	// n-th capture. (A sync.Pool hands buffers back in an order that
	// depends on which worker ran the job, and raised peak heap ~10% on
	// batches of sampled jobs.)
	checkpoints []*sample.Checkpoint
}

// PoolStats reports instance pool effectiveness: jobs served by resetting
// a pooled warm machine/emulator versus constructing a fresh one. (The GC
// may empty a sync.Pool at any time, so fresh counts are an upper bound
// on true misses.)
type PoolStats struct {
	MachineReuse, MachineFresh int64
	EmuReuse, EmuFresh         int64
	// Checkpoint buffer pool effectiveness: a reused checkpoint keeps its
	// grown snapshot slices (memory delta, cache lines, predictor
	// tables), so a steady stream of sampled runs allocates nothing per
	// capture.
	CheckpointReuse, CheckpointFresh int64
}

// PoolStats returns the engine's instance pool counters.
func (e *Engine) PoolStats() PoolStats {
	return PoolStats{
		MachineReuse:    e.machineReuse.Load(),
		MachineFresh:    e.machineFresh.Load(),
		EmuReuse:        e.emuReuse.Load(),
		EmuFresh:        e.emuFresh.Load(),
		CheckpointReuse: e.ckReuse.Load(),
		CheckpointFresh: e.ckFresh.Load(),
	}
}

// New builds an engine.
func New(opt Options) *Engine {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:  w,
		progress: opt.Progress,
		cache:    NewBuildCacheStore(opt.Compile, opt.CacheCapacity, opt.Store),
		sampling: make(chan struct{}, 1),
	}
}

// Panics returns how many jobs panicked; each failed with a "panic:"
// error instead of taking the process down.
func (e *Engine) Panics() int64 { return e.panics.Load() }

// Workers returns the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// Cache exposes the engine's build cache (hit/miss accounting).
func (e *Engine) Cache() *BuildCache { return e.cache }

// Store exposes the artifact store backing the build cache (nil when
// the engine is purely in-memory).
func (e *Engine) Store() *store.Store { return e.cache.Store() }

func (e *Engine) emit(ev Event) {
	if e.progress != nil {
		e.progress(ev)
	}
}

// pool is the shared worker-pool core behind Run and Stream: it spawns
// up to min(workers, len(jobs)) goroutines, hands out jobs by an atomic
// counter, emits JobStart plus JobDone/JobFailed events, and calls handle
// from worker goroutines with each finished job's (index, result, error).
// A job abandoned by ctx cancellation mid-run is not handled — the batch
// is over. handle returning false retires the calling worker (fail-fast
// callers pair it with cancelling ctx). pool returns once every worker
// has exited.
func (e *Engine) pool(ctx context.Context, jobs []Job, handle func(i int, res Result, err error) bool) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(-1)
	submitted := time.Now() // queue-wait baseline for the batch's spans
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				j := jobs[i]
				e.emit(Event{Phase: JobStart, Index: i, Total: len(jobs), Label: j.label()})
				res, err := e.runJob(ctx, j, time.Since(submitted))
				if err != nil {
					if ctx.Err() != nil {
						// Abandoned by cancellation; not this job's fault.
						return
					}
					e.emit(Event{Phase: JobFailed, Index: i, Total: len(jobs), Label: j.label(), Err: err})
				} else {
					e.emit(Event{Phase: JobDone, Index: i, Total: len(jobs), Label: j.label()})
				}
				if !handle(i, res, err) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Run executes jobs on the worker pool and returns results in submission
// order. On the first job error the run fails fast: the context passed
// to builds is cancelled, queued jobs are abandoned, in-flight jobs
// finish, and the triggering error is returned (wrapped with the job's
// label). External cancellation of ctx aborts the same way and returns
// ctx's error. A nil error guarantees one Result per job.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(jobs))
	var (
		firstErr error
		errOnce  sync.Once
	)
	e.pool(ctx, jobs, func(i int, res Result, err error) bool {
		if err != nil {
			errOnce.Do(func() {
				firstErr = fmt.Errorf("%s: %w", jobs[i].label(), err)
				cancel()
			})
			return false
		}
		res.Index = i
		results[i] = res
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// getMachine returns a pooled timing machine reset for (pr, img, cfg), or
// a fresh one when the pool is empty.
func (e *Engine) getMachine(pr *prog.Program, img *prog.Image, cfg ooo.Config) *ooo.Machine {
	if m, ok := e.machines.Get().(*ooo.Machine); ok {
		e.machineReuse.Add(1)
		m.Reset(pr, img, cfg)
		return m
	}
	e.machineFresh.Add(1)
	return ooo.New(pr, img, cfg)
}

// getEmu returns a pooled emulator reset for (pr, img, cfg), or a fresh
// one when the pool is empty.
func (e *Engine) getEmu(pr *prog.Program, img *prog.Image, cfg emu.Config) *emu.Emulator {
	if em, ok := e.emus.Get().(*emu.Emulator); ok {
		e.emuReuse.Add(1)
		em.ResetFor(pr, img, cfg)
		return em
	}
	e.emuFresh.Add(1)
	return emu.New(pr, img, cfg)
}

// putMachine returns a machine to the pool unless the job it just ran
// left it with an outsized memory footprint — those are dropped at once
// so a burst of large client programs cannot pin their pages in a
// long-lived daemon's pool.
func (e *Engine) putMachine(m *ooo.Machine) {
	if m.Emu().Mem.Oversized() {
		return
	}
	e.machines.Put(m)
}

// putEmu is putMachine for emulators.
func (e *Engine) putEmu(em *emu.Emulator) {
	if em.Mem.Oversized() {
		return
	}
	e.emus.Put(em)
}

// runJob builds (or fetches) the binary and executes one job. queueWait
// is how long the job sat queued behind the batch before a worker picked
// it up; it only annotates the job's span (zero cost with tracing off).
//
// A sampled job's span is "sample", not "job": it holds the scans and
// its interval jobs' own "job" spans, so summing "job" spans counts each
// piece of pool work once.
//
// A panic anywhere in the job — compile, simulation, sampler, rewriter —
// is recovered into the job's error and its stack recorded on the job
// span. The machine or emulator it was using is never pooled again.
func (e *Engine) runJob(ctx context.Context, j Job, queueWait time.Duration) (res Result, err error) {
	name := "job"
	if j.sampled() {
		name = "sample"
	}
	ctx, span := obs.StartSpan(ctx, name)
	if span != nil {
		span.SetAttr("label", j.label())
		span.SetAttr("kind", j.Kind.String())
		span.SetAttr("queue_wait_ms", float64(queueWait)/float64(time.Millisecond))
		defer span.End()
	}
	defer func() {
		if p := recover(); p != nil {
			e.panics.Add(1)
			err = fmt.Errorf("panic: %v", p)
			if span != nil {
				span.SetAttr("panic_stack", string(debug.Stack()))
			}
		}
	}()

	if j.Kind == Timing {
		// A machine the simulator cannot size or run fails here, before
		// the build, not as a constructor panic or a deadlocked run.
		if err := j.Machine.Validate(); err != nil {
			return Result{Job: j}, err
		}
	}

	bctx, bspan := obs.StartSpan(ctx, "build")
	var (
		pr  *prog.Program
		img *prog.Image
	)
	if j.Kind == Annotate {
		// A private plain build, never the cache's: the rewriter mutates
		// its program, and cached artifacts are shared read-only.
		pr, img, err = e.cache.compile(j.Workload, j.Scale, workload.BuildOptions{})
	} else {
		pr, img, err = e.cache.Get(bctx, j.Workload, j.Scale, j.Build)
	}
	bspan.End()
	if err != nil {
		return Result{}, err
	}
	res = Result{Job: j, Program: pr, Image: img}
	if j.sampled() {
		est, err := e.runSampled(ctx, j, pr, img)
		if err != nil {
			return res, err
		}
		res.Timing, res.Sampled = est.Stats, &est
		return res, nil
	}
	_, kspan := obs.StartSpan(ctx, j.Kind.String())
	defer kspan.End()
	switch j.Kind {
	case Timing:
		m := e.getMachine(pr, img, j.Machine)
		st, err := m.Run()
		if err != nil {
			return res, err
		}
		res.Timing = st
		if m.Contexts() > 1 {
			res.CtxStats = m.CtxStats()
		}
		if j.KeepMachine {
			// The caller owns this instance now; it must not be pooled.
			res.Machine = m
		} else {
			e.putMachine(m)
		}
	case Functional:
		em := e.getEmu(pr, img, j.Emu)
		budget := j.EmuBudget
		if budget == 0 {
			budget = DefaultEmuBudget
		}
		if err := em.Run(budget); err != nil {
			return res, err
		}
		res.Func = em.Stats
		e.putEmu(em)
	case CtxSwitch:
		budget := j.EmuBudget
		if budget == 0 {
			budget = DefaultEmuBudget
		}
		em := e.getEmu(pr, img, j.Emu)
		sw, err := ctxswitch.MeasureEmulator(em, j.Interval, budget)
		if err != nil {
			return res, err
		}
		res.Switch = sw
		e.putEmu(em)
	case SampledInterval:
		if j.Sample == nil {
			return res, fmt.Errorf("runner: SampledInterval job without a checkpoint")
		}
		m := e.getMachine(pr, img, j.Machine)
		iv, err := sample.RunInterval(m, j.Sample)
		if err != nil {
			return res, err
		}
		res.Interval = iv
		e.putMachine(m)
	case Annotate:
		insert := rewrite.InsertKills
		if j.Build.Infer {
			insert = rewrite.Infer
		}
		n, err := insert(pr, rewrite.Options{Policy: j.Build.Policy, NoPrune: j.NoPrune})
		if err != nil {
			return res, fmt.Errorf("rewrite: %w", err)
		}
		if res.Image, err = pr.Link(); err != nil {
			return res, fmt.Errorf("link: %w", err)
		}
		res.Inserted = n
	case Build:
		// Artifacts only.
	default:
		return res, fmt.Errorf("runner: unknown job kind %d", j.Kind)
	}
	return res, nil
}
