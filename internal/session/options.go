package session

import (
	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/rewrite"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/store"
)

// Option configures a Session at construction time.
type Option func(*config)

// config collects construction options; it resolves onto the engine's
// option struct.
type config struct {
	opts runner.Options
}

// WithWorkers bounds the session's worker pool (<=0 means
// runtime.GOMAXPROCS(0)). Results are deterministic at any setting; only
// wall-clock changes.
func WithWorkers(n int) Option {
	return func(c *config) { c.opts.Workers = n }
}

// WithCacheCapacity bounds the build cache to this many binaries with LRU
// eviction (<=0 = unbounded). Report runs over the fixed benchmark suite
// can stay unbounded; long-lived daemons compiling arbitrary client
// programs should set a bound.
func WithCacheCapacity(n int) Option {
	return func(c *config) { c.opts.CacheCapacity = n }
}

// WithProgress installs a per-job lifecycle observer. It is called from
// worker goroutines and must be safe for concurrent use.
func WithProgress(fn runner.ProgressFunc) Option {
	return func(c *config) { c.opts.Progress = fn }
}

// WithCompile overrides the build function (nil = workload.CompileSpec).
// The service wraps the default to compile client-submitted assembly;
// tests substitute counting or failing variants.
func WithCompile(fn runner.CompileFunc) Option {
	return func(c *config) { c.opts.Compile = fn }
}

// WithStore backs the session's build cache with an on-disk artifact
// store: compiled binaries and sampled-run results persist across
// restarts, so a warm session skips compiles and sampled re-scans
// entirely. Nil keeps everything in memory.
func WithStore(st *store.Store) Option {
	return func(c *config) { c.opts.Store = st }
}

// RunOption configures one Session call (Build, Simulate, Emulate,
// MeasureCtxSwitch).
type RunOption func(*runSettings)

// runSettings is the resolved per-call configuration.
type runSettings struct {
	scale int

	machine    ooo.Config
	machineSet bool
	emu        emu.Config
	emuSet     bool

	level     core.Level
	levelSet  bool
	scheme    emu.Scheme
	schemeSet bool

	maxInsts uint64
	maxSet   bool

	contexts    int
	contextsSet bool
	fetchPolicy ooo.FetchPolicy
	fetchSet    bool

	edvi   *bool
	infer  bool
	policy rewrite.Policy

	interval uint64
	fresh    bool
	label    string

	// sampling, when set, routes Simulate through the statistical
	// sampler (WithSampling / WithSamplingOptions).
	sampling *sample.Options
}

// resolve folds opts over the defaults: scale 1, the paper's Figure 2
// machine, full DVI, LVM-Stack elimination.
func resolve(opts []RunOption) runSettings {
	rs := runSettings{scale: 1}
	for _, o := range opts {
		o(&rs)
	}
	return rs
}

// WithScale multiplies the workload's iteration count (default 1).
func WithScale(n int) RunOption {
	return func(rs *runSettings) { rs.scale = n }
}

// WithMachineConfig replaces the whole timing-machine configuration
// (default ooo.DefaultConfig()). WithDVILevel, WithScheme and
// WithMaxInsts still apply on top of it.
func WithMachineConfig(cfg ooo.Config) RunOption {
	return func(rs *runSettings) { rs.machine, rs.machineSet = cfg, true }
}

// WithEmulatorConfig replaces the whole functional-emulator configuration
// for Emulate and MeasureCtxSwitch (default: full DVI, LVM-Stack).
// WithDVILevel and WithScheme still apply on top of it.
func WithEmulatorConfig(cfg emu.Config) RunOption {
	return func(rs *runSettings) { rs.emu, rs.emuSet = cfg, true }
}

// WithDVILevel selects which DVI sources the hardware honours (paper
// Figure 5's three configurations). It also selects the binary flavour
// through the session's central E-DVI rule unless WithEDVI overrides it.
func WithDVILevel(level core.Level) RunOption {
	return func(rs *runSettings) { rs.level, rs.levelSet = level, true }
}

// WithScheme selects the save/restore elimination scheme (paper §5.2).
func WithScheme(scheme emu.Scheme) RunOption {
	return func(rs *runSettings) { rs.scheme, rs.schemeSet = scheme, true }
}

// WithMaxInsts caps committed (Simulate) or executed (Emulate,
// MeasureCtxSwitch) instructions. 0 keeps the method default: run to
// completion for Simulate, the engine's safety net for emulator runs.
func WithMaxInsts(n uint64) RunOption {
	return func(rs *runSettings) { rs.maxInsts, rs.maxSet = n, true }
}

// WithContexts sets the number of SMT hardware contexts a Simulate
// machine runs (default: the machine config's own Contexts, usually 1 —
// the single-context paper machine). Each context runs its own copy of
// the workload through one shared core. The physical register file must
// hold at least Contexts*32+1 registers (ooo.Config.Validate);
// incompatible with WithSampling (checkpointing is single-context).
func WithContexts(n int) RunOption {
	return func(rs *runSettings) { rs.contexts, rs.contextsSet = n, true }
}

// WithFetchPolicy selects how a multi-context machine arbitrates its one
// fetch access per cycle among contexts (default round-robin; no effect
// on a single-context machine).
func WithFetchPolicy(p ooo.FetchPolicy) RunOption {
	return func(rs *runSettings) { rs.fetchPolicy, rs.fetchSet = p, true }
}

// WithEDVI forces the binary flavour, overriding the central derivation
// rule (BuildOptionsFor) that otherwise picks E-DVI binaries exactly for
// full-DVI runs.
func WithEDVI(on bool) RunOption {
	return func(rs *runSettings) { rs.edvi = &on }
}

// WithPolicy selects the kill placement policy for annotated builds
// (default rewrite.KillsBeforeCalls).
func WithPolicy(p rewrite.Policy) RunOption {
	return func(rs *runSettings) { rs.policy = p }
}

// WithInferredDVI derives the kill annotations with the interprocedural
// inference pass (rewrite.Infer) instead of the compiler's
// liveness-assisted rewriter: the binary is built plain and every kill is
// discovered from the machine code alone. Effective only when the run's
// DVI level honours explicit annotations (core.Full), mirroring the
// central E-DVI derivation rule.
func WithInferredDVI() RunOption {
	return func(rs *runSettings) { rs.infer = true }
}

// WithInterval sets the preemption sampling interval for MeasureCtxSwitch
// (0 = the measurement default).
func WithInterval(n uint64) RunOption {
	return func(rs *runSettings) { rs.interval = n }
}

// WithFreshBuild makes Build compile a private copy outside the build
// cache. Use it when the caller will mutate the artifacts — run the
// binary rewriter, re-link — which the shared cached copies must never
// see.
func WithFreshBuild() RunOption {
	return func(rs *runSettings) { rs.fresh = true }
}

// WithLabel names the call in progress output and errors (default: a
// label derived from the job kind and build key).
func WithLabel(label string) RunOption {
	return func(rs *runSettings) { rs.label = label }
}

// machineConfig resolves the timing-machine configuration: the explicit
// machine config (or the paper default), overlaid with any level, scheme
// and instruction-budget options.
func (rs *runSettings) machineConfig() ooo.Config {
	cfg := ooo.DefaultConfig()
	if rs.machineSet {
		cfg = rs.machine
	}
	if rs.emuSet {
		cfg.Emu = rs.emu
	}
	cfg.Emu = rs.overlayEmu(cfg.Emu)
	if rs.maxSet {
		cfg.MaxInsts = rs.maxInsts
	}
	if rs.contextsSet {
		cfg.Contexts = rs.contexts
	}
	if rs.fetchSet {
		cfg.FetchPolicy = rs.fetchPolicy
	}
	return cfg
}

// overlayEmu applies WithDVILevel and WithScheme on top of an emulator
// configuration without disturbing its other knobs (CheckDeadReads,
// MaxOutputs): an explicit level replaces only the DVI hardware block,
// an explicit scheme only the elimination scheme.
func (rs *runSettings) overlayEmu(cfg emu.Config) emu.Config {
	if rs.levelSet {
		cfg.DVI = EmuConfigFor(rs.level, cfg.Scheme).DVI
	}
	if rs.schemeSet {
		cfg.Scheme = rs.scheme
	}
	return cfg
}

// emulatorConfig resolves the functional-emulator configuration the same
// way for Emulate and MeasureCtxSwitch.
func (rs *runSettings) emulatorConfig() emu.Config {
	cfg := EmuConfigFor(core.Full, emu.ElimLVMStack)
	if rs.emuSet {
		cfg = rs.emu
	}
	return rs.overlayEmu(cfg)
}

// effectiveLevel is the DVI level a bare Build derives its flavour from:
// an explicit WithDVILevel, else the level inside an explicit machine or
// emulator config, else full DVI.
func (rs *runSettings) effectiveLevel() core.Level {
	switch {
	case rs.levelSet:
		return rs.level
	case rs.emuSet:
		return rs.emu.DVI.Level
	case rs.machineSet:
		return rs.machine.Emu.DVI.Level
	}
	return core.Full
}
