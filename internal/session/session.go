// Package session is the reproduction's orchestration layer: one
// long-lived, concurrency-safe handle that owns an execution engine
// (bounded worker pool), its single-flight build cache, and the pooled
// machine and emulator instances. Every front door — the dvi facade's
// one-shot functions, the experiment harness and its CLIs, and the HTTP
// service — routes through a Session, so they all share the same
// memoized builds, the same zero-alloc hot path, and the same
// cancellation and progress plumbing.
//
// A Session is constructed once with functional options (WithWorkers,
// WithCacheCapacity, WithProgress, WithCompile) and then serves any
// number of concurrent calls. Run methods take a context.Context and
// per-call options (WithScale, WithDVILevel, WithScheme,
// WithMachineConfig, ...); defaults reproduce the paper's configuration:
// full DVI hardware, LVM-Stack elimination, and E-DVI annotated binaries
// whenever the DVI level honours them.
//
// NewJob is the one resolver from run options to an engine job
// (runner.Job): it derives the machine or emulator config and the
// binary flavour, and validates the machine and any sampling plan.
// Simulate, SimulateContexts, SimulateSampled, Emulate and
// MeasureCtxSwitch are each NewJob plus one engine run; the HTTP
// service and dvisim build their jobs through it too. A sampled
// simulation is a Timing job with Sampling set, so Collect and Run
// reach the sampler through the same engine path as exact runs.
//
//	sess := session.New(session.WithWorkers(8))
//	w, _ := workload.ByName("perl")
//	stats, err := sess.Simulate(ctx, w, session.WithScale(2))
//
// Batches stream ordered results while later jobs still run:
//
//	err := sess.Run(ctx, jobs, func(res session.Result) error {
//	    fmt.Println(res.Index, res.Timing.IPC())
//	    return nil
//	})
package session

import (
	"context"
	"fmt"

	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/runner"
	"dvi/internal/workload"
)

// Job is one unit of batch work; it is the engine's job type, re-exported
// so batch callers need not import internal/runner alongside session.
type Job = runner.Job

// Result is the outcome of one job, in submission order. Stream-delivered
// results carry per-job failures on Result.Err.
type Result = runner.Result

// Session owns one execution engine: a bounded worker pool over a
// single-flight, LRU-bounded build cache, plus pools of reusable machine
// and emulator instances. All methods are safe for concurrent use; one
// Session should serve a whole process (report, daemon, test suite) so
// every call shares the memoized builds and warm simulator instances.
type Session struct {
	eng     *runner.Engine
	compile runner.CompileFunc
}

// New builds a Session. With no options it sizes the worker pool to
// runtime.GOMAXPROCS(0), keeps the build cache unbounded (right for
// report runs over the fixed benchmark suite; long-lived daemons serving
// arbitrary client programs should set WithCacheCapacity), and compiles
// through workload.CompileSpec.
func New(opts ...Option) *Session {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	compile := cfg.opts.Compile
	if compile == nil {
		compile = workload.CompileSpec
	}
	return &Session{eng: runner.New(cfg.opts), compile: compile}
}

// Engine exposes the session's execution engine (build cache accounting,
// worker count). The engine is owned by the session; callers must not
// submit work that assumes exclusive use.
func (s *Session) Engine() *runner.Engine { return s.eng }

// Workers returns the configured worker pool size.
func (s *Session) Workers() int { return s.eng.Workers() }

// Cache exposes the session's build cache (hit/miss/eviction accounting).
func (s *Session) Cache() *runner.BuildCache { return s.eng.Cache() }

// PoolStats reports the session's simulator instance pool effectiveness:
// how many jobs ran on a reset warm machine or emulator versus having to
// construct a fresh one. A healthy steady state (daemon or report run)
// reuses nearly always; a low reuse ratio means instances are being
// dropped (oversized client programs) or the pool is cold.
func (s *Session) PoolStats() runner.PoolStats { return s.eng.PoolStats() }

// Build compiles and links one workload, or returns the shared artifacts
// from the build cache. The binary flavour is NewJob's: the central
// E-DVI rule (BuildOptionsFor) applied to the effective DVI level —
// override it with WithEDVI. Cached artifacts are shared and must be
// treated as read-only; callers that need to mutate the program (binary
// rewriting, re-linking) must pass WithFreshBuild, which compiles a
// private copy outside the cache.
func (s *Session) Build(ctx context.Context, w workload.Spec, opts ...RunOption) (*prog.Program, *prog.Image, error) {
	rs := resolve(opts)
	job, err := rs.job(runner.Build, w)
	if err != nil {
		return nil, nil, err
	}
	if rs.fresh {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return s.compile(w, job.Scale, job.Build)
	}
	return s.eng.Cache().Get(ctx, w, job.Scale, job.Build)
}

// Simulate builds a workload (E-DVI annotations iff the machine's DVI
// level honours them; see BuildOptionsFor) and runs it on the out-of-order
// timing simulator, drawn from the session's machine pool. With
// WithSampling the job runs through the statistical sampler instead and
// the returned stats are the estimate rendered in machine-stat shape
// (SimulateSampled returns the estimate itself, CI included).
func (s *Session) Simulate(ctx context.Context, w workload.Spec, opts ...RunOption) (ooo.Stats, error) {
	res, err := s.one(ctx, runner.Timing, w, opts)
	return res.Timing, err
}

// SimulateContexts is Simulate for multi-context (SMT) machines: the
// aggregate statistics come back together with the per-context
// breakdown (nil on a single-context machine — matching the wire
// format, where ctx_stats is omitted). Additive counters across the
// breakdown sum to the aggregate. Exact execution only: sampling is
// single-context, use Simulate/SimulateSampled for it.
func (s *Session) SimulateContexts(ctx context.Context, w workload.Spec, opts ...RunOption) (ooo.Stats, []ooo.Stats, error) {
	if resolve(opts).sampling != nil {
		return ooo.Stats{}, nil, fmt.Errorf("session: SimulateContexts is exact; sampling is single-context (use Simulate)")
	}
	res, err := s.one(ctx, runner.Timing, w, opts)
	return res.Timing, res.CtxStats, err
}

// Emulate runs a workload on the functional reference emulator (drawn
// from the session's emulator pool) and returns its statistics. The
// instruction budget is WithMaxInsts (0 = the engine's default safety
// net, runner.DefaultEmuBudget).
func (s *Session) Emulate(ctx context.Context, w workload.Spec, opts ...RunOption) (emu.Stats, error) {
	res, err := s.one(ctx, runner.Functional, w, opts)
	return res.Func, err
}

// MeasureCtxSwitch samples live-register counts at preemption points
// (paper §6.2, Figure 12) over a cached build of the workload.
// WithInterval sets the preemption sampling interval (0 = the measurement
// default); WithMaxInsts bounds the run.
func (s *Session) MeasureCtxSwitch(ctx context.Context, w workload.Spec, opts ...RunOption) (ctxswitch.Result, error) {
	res, err := s.one(ctx, runner.CtxSwitch, w, opts)
	return res.Switch, err
}

// Run executes a heterogeneous job batch and streams results to emit in
// submission order: result i is delivered only after results 0..i-1, as
// soon as that prefix is complete, while later jobs still run. Per-job
// failures arrive on Result.Err (wrapped with the job's label) and do not
// abort the batch; jobs sharing a failed build fail identically through
// the build cache. emit is never called concurrently; returning a non-nil
// error cancels the batch and Run returns it. External cancellation of
// ctx returns ctx's error.
func (s *Session) Run(ctx context.Context, jobs []Job, emit func(Result) error) error {
	return s.eng.Stream(ctx, jobs, emit)
}

// Collect executes a job batch and returns all results in submission
// order. Unlike Run it fails fast: the first job error cancels the rest
// of the batch and is returned (wrapped with the job's label). Use it
// when a batch is all-or-nothing — the experiment harness renders
// figures only from complete grids. Sampled jobs (Job.Sampling) and
// exact ones mix freely in one batch.
func (s *Session) Collect(ctx context.Context, jobs []Job) ([]Result, error) {
	return s.eng.Run(ctx, jobs)
}

// one resolves opts into a job of kind (NewJob) and runs it through the
// engine (pooled instances, shared cache, fail-fast error shape).
func (s *Session) one(ctx context.Context, kind runner.Kind, w workload.Spec, opts []RunOption) (Result, error) {
	job, err := NewJob(kind, w, opts...)
	if err != nil {
		return Result{}, err
	}
	out, err := s.eng.Run(ctx, []Job{job})
	if err != nil {
		return Result{}, err
	}
	return out[0], nil
}
