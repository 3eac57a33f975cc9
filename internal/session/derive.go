package session

import (
	"fmt"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/workload"
)

// BuildOptionsFor is the one place the binary flavour is derived from a
// DVI level: E-DVI annotated binaries exactly when the hardware honours
// explicit annotations (core.Full). None- and IDVI-level runs execute
// plain binaries — the paper's I-DVI configuration exploits only the
// calling convention, so shipping kill annotations to it would measure
// fetch overhead the hardware ignores. NewJob applies it for every Session
// call, the HTTP service and dvisim; the harness grids apply it
// directly.
func BuildOptionsFor(level core.Level) workload.BuildOptions {
	return workload.BuildOptions{EDVI: level == core.Full}
}

// EmuConfigFor assembles the emulator configuration for a DVI level and
// elimination scheme: no tracker state for None, the ABI's implicit kills
// for IDVI, the full LVM + LVM-Stack hardware for Full.
func EmuConfigFor(level core.Level, scheme emu.Scheme) emu.Config {
	cfg := emu.Config{Scheme: scheme}
	switch level {
	case core.None:
		cfg.DVI = core.Config{Level: core.None}
	case core.IDVI:
		cfg.DVI = core.Config{Level: core.IDVI, ABI: isa.DefaultABI()}
	default:
		cfg.DVI = core.DefaultConfig()
	}
	return cfg
}

// maxSampledIntervals bounds a sampled job's plan: its instruction
// budget may span at most this many intervals. The sampler retains a
// checkpoint (about half a megabyte) for every interval it measures, and
// a target CI can densify the plan to every interval, so the bound caps
// a sampled job's memory. The default interval spans 200 intervals at
// the service's two-million-instruction ceiling; every plan the repo
// uses stays under the bound.
const maxSampledIntervals = 256

// NewJob is the one resolver from a point in the paper's design space —
// DVI level, save/restore scheme, binary flavour, machine — to an engine
// job. Every Session call, the service's simulate and ctxswitch requests
// and dvisim's flags build their jobs here. kind is runner.Timing
// (exact, or sampled with WithSampling), runner.Functional,
// runner.CtxSwitch or runner.Build.
//
// It owns the rules that must not drift between front doors:
//   - the machine or emulator config is the explicit one (or the
//     paper's), with WithDVILevel, WithScheme, WithMaxInsts, WithContexts
//     and WithFetchPolicy overlaid on it;
//   - the binary flavour is BuildOptionsFor the job's DVI level, with the
//     kill policy; WithEDVI overrides it, and WithInferredDVI swaps the
//     annotations for inferred ones only at full DVI, the one level that
//     honours them;
//   - a Timing machine passes ooo.Config.Validate, and a sampled one is
//     single-context with a plan of at most maxSampledIntervals
//     intervals.
//
// A job that fails these checks is an error here, before any build.
func NewJob(kind runner.Kind, w workload.Spec, opts ...RunOption) (Job, error) {
	rs := resolve(opts)
	return rs.job(kind, w)
}

// job is NewJob over resolved settings.
func (rs *runSettings) job(kind runner.Kind, w workload.Spec) (Job, error) {
	job := Job{Label: rs.label, Workload: w, Scale: rs.scale, Kind: kind}
	level := rs.effectiveLevel()
	switch kind {
	case runner.Timing:
		job.Machine, job.Sampling = rs.machineConfig(), rs.sampling
		if err := job.Machine.Validate(); err != nil {
			return Job{}, err
		}
		if err := checkSampling(job.Machine, job.Sampling); err != nil {
			return Job{}, err
		}
	case runner.Functional, runner.CtxSwitch:
		// Interval matters to CtxSwitch only.
		job.Emu, job.EmuBudget, job.Interval = rs.emulatorConfig(), rs.maxInsts, rs.interval
		level = job.Emu.DVI.Level
	case runner.Build:
	default:
		return Job{}, fmt.Errorf("session: no %v jobs from run options", kind)
	}
	job.Build = BuildOptionsFor(level)
	job.Build.Policy = rs.policy
	if rs.edvi != nil {
		job.Build.EDVI = *rs.edvi
	}
	if rs.infer && level == core.Full {
		// Inferred annotations replace the compiler-assisted ones; like
		// the E-DVI rule, only annotation-honouring hardware gets them.
		job.Build.Infer, job.Build.EDVI = true, false
	}
	return job, nil
}

// checkSampling rejects a sampled plan the sampler cannot run (several
// contexts: a checkpoint restores one architectural state) or should
// not (more than maxSampledIntervals intervals in the budget). A run to
// completion (MaxInsts 0) has no known length; its caller sizes it.
func checkSampling(cfg ooo.Config, so *sample.Options) error {
	if so == nil {
		return nil
	}
	if cfg.ContextCount() > 1 {
		return fmt.Errorf("sampling is single-context (contexts=%d): checkpoints restore one architectural state", cfg.Contexts)
	}
	iv := so.WithDefaults().Interval
	if n := cfg.MaxInsts / iv; n > maxSampledIntervals {
		return fmt.Errorf("sampling.interval %d splits max_insts %d into %d intervals, over the %d-interval limit (use an interval of at least %d)",
			iv, cfg.MaxInsts, n, maxSampledIntervals, cfg.MaxInsts/(maxSampledIntervals+1)+1)
	}
	return nil
}
