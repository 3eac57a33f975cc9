package service

import (
	"fmt"

	"dvi/internal/core"
	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/rewrite"
)

// This file defines the HTTP/JSON wire types shared by the server and the
// typed client. Enumerations travel as strings ("full", "lvm-stack",
// "before-calls") so request bodies stay hand-writable; the parse helpers
// reject unknown values rather than defaulting silently.

// AnnotateRequest asks the daemon to run the binary-rewriting DVI
// inserter (paper §2) and return the kill-annotated program. Exactly one
// of Asm (assembly text, the prog.ParseAsm grammar) or Workload (a
// benchmark name, compiled fresh without annotations) must be set.
type AnnotateRequest struct {
	Asm      string `json:"asm,omitempty"`
	Workload string `json:"workload,omitempty"`
	Scale    int    `json:"scale,omitempty"` // workload scale, default 1
	// Policy is "before-calls" (default) or "at-death".
	Policy string `json:"policy,omitempty"`
	// NoPrune disables the interprocedural kill-pruning pass.
	NoPrune bool `json:"no_prune,omitempty"`
	// Mode selects the annotation engine: "rewrite" (default) is the
	// calling-convention-assisted binary rewriter (paper §2); "infer" is
	// the interprocedural dead-value inference pass, which derives every
	// kill from the machine code alone — no hand hints, no ABI
	// assumptions — and is conservative wherever the program escapes its
	// analysis (indirect calls, irregular stack discipline).
	Mode string `json:"mode,omitempty"`
}

// ProcKills reports the static kill instructions in one procedure.
type ProcKills struct {
	Proc  string `json:"proc"`
	Kills int    `json:"kills"`
}

// AnnotateResponse carries the annotated program back.
type AnnotateResponse struct {
	// Asm is the kill-annotated program in the same assembly grammar the
	// request used; it reparses and links.
	Asm string `json:"asm"`
	// Inserted counts kill instructions the rewriter added.
	Inserted int `json:"inserted"`
	// PerProc counts static kills per procedure, in program order
	// (procedures with none are omitted).
	PerProc []ProcKills `json:"per_proc,omitempty"`
	// TextWords is the annotated program's static code size in
	// instruction words (paper Figure 13's numerator).
	TextWords int `json:"text_words"`
}

// MachineOverrides adjusts individual fields of the paper's Figure 2
// machine; zero values keep the default.
type MachineOverrides struct {
	IssueWidth     int   `json:"issue_width,omitempty"`
	WindowSize     int   `json:"window_size,omitempty"`
	IFQSize        int   `json:"ifq_size,omitempty"`
	PhysRegs       int   `json:"phys_regs,omitempty"`
	IntALUs        int   `json:"int_alus,omitempty"`
	IntMulDiv      int   `json:"int_muldiv,omitempty"`
	CachePorts     int   `json:"cache_ports,omitempty"`
	MulLatency     int   `json:"mul_latency,omitempty"`
	DivLatency     int   `json:"div_latency,omitempty"`
	StackDepth     int   `json:"stack_depth,omitempty"` // LVM-Stack entries
	WrongPathFetch *bool `json:"wrong_path_fetch,omitempty"`
}

// apply overlays non-zero overrides onto cfg. A negative field is
// rejected by its wire name: zero keeps the default, and no machine
// dimension, latency or depth is negative. Upper bounds are the
// machine's own to check.
func (m *MachineOverrides) apply(cfg *ooo.Config) error {
	if m == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
		dst  *int
	}{
		{"issue_width", m.IssueWidth, &cfg.IssueWidth},
		{"window_size", m.WindowSize, &cfg.WindowSize},
		{"ifq_size", m.IFQSize, &cfg.IFQSize},
		{"phys_regs", m.PhysRegs, &cfg.PhysRegs},
		{"int_alus", m.IntALUs, &cfg.IntALUs},
		{"int_muldiv", m.IntMulDiv, &cfg.IntMulDiv},
		{"cache_ports", m.CachePorts, &cfg.CachePorts},
		{"mul_latency", m.MulLatency, &cfg.MulLatency},
		{"div_latency", m.DivLatency, &cfg.DivLatency},
		{"stack_depth", m.StackDepth, &cfg.Emu.DVI.StackDepth},
	} {
		switch {
		case f.v < 0:
			return fmt.Errorf("machine.%s must not be negative (got %d)", f.name, f.v)
		case f.v > 0:
			*f.dst = f.v
		}
	}
	if m.WrongPathFetch != nil {
		cfg.WrongPathFetch = *m.WrongPathFetch
	}
	return nil
}

// SimulateRequest asks for one run of the out-of-order timing simulator.
// Exactly one of Workload or Asm must be set. The zero request fields
// reproduce dvi.Simulate's defaults: full DVI, LVM-Stack elimination,
// E-DVI annotations when the DVI level is full.
type SimulateRequest struct {
	Workload string `json:"workload,omitempty"`
	Asm      string `json:"asm,omitempty"`
	Scale    int    `json:"scale,omitempty"` // default 1, clamped to the server's max
	// MaxInsts caps committed instructions (0 = the server's default
	// budget; requests above the server's ceiling are clamped).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// DVILevel is "none", "idvi" or "full" (default "full").
	DVILevel string `json:"dvi_level,omitempty"`
	// Scheme is "off", "lvm" or "lvm-stack" (default "lvm-stack").
	Scheme string `json:"scheme,omitempty"`
	// EDVI forces the binary flavour; nil derives it from DVILevel the
	// way dvi.Simulate does (annotated iff the level is full).
	EDVI *bool `json:"edvi,omitempty"`
	// Infer derives the kill annotations with the interprocedural
	// inference pass instead of the compiler-assisted rewriter. Applies
	// to workload and asm sources alike (inference needs no hints);
	// effective only when the DVI level honours explicit annotations
	// ("full"), mirroring the central E-DVI rule.
	Infer bool `json:"infer,omitempty"`
	// Policy selects the kill placement for annotated builds:
	// "before-calls" (default) or "at-death".
	Policy  string            `json:"policy,omitempty"`
	Machine *MachineOverrides `json:"machine,omitempty"`
	// Contexts runs N SMT hardware contexts, each executing its own copy
	// of the program through one shared core (0 or 1 = the single-context
	// paper machine). The server bounds N; the physical register file must
	// hold all contexts' architectural state (phys_regs >= 32*N+1 — raise
	// machine.phys_regs for N > 2). Incompatible with sampling.
	Contexts int `json:"contexts,omitempty"`
	// FetchPolicy arbitrates the one fetch access per cycle among
	// contexts: "round-robin" (default) or "icount". Meaningful only when
	// Contexts > 1.
	FetchPolicy string `json:"fetch_policy,omitempty"`
	// Sampling, when set, answers with a statistical estimate instead of
	// an exact detailed run: checkpointed intervals are simulated on the
	// daemon's worker pool and the response carries a confidence
	// interval. Architectural counts stay exact either way.
	Sampling *SamplingSpec `json:"sampling,omitempty"`
	// Trace, when set, attaches a pipeline tracer to the run and returns
	// per-instruction lifecycle events in the response. Mutually
	// exclusive with Sampling: a sampled estimate has no single
	// contiguous pipeline to trace.
	Trace *TraceSpec `json:"trace,omitempty"`
}

// TraceSpec asks for a pipeline-event trace of a simulate run.
type TraceSpec struct {
	// Format is "chrome" (default; chrome://tracing / Perfetto
	// trace_event JSON) or "konata" (the Kanata pipeline-viewer log,
	// returned as one text blob).
	Format string `json:"format,omitempty"`
	// MaxRecords bounds the trace buffer (0 = the server's per-request
	// default; the server's ceiling clamps larger asks). Tracing stops
	// recording past the bound; the run itself is unaffected and
	// Dropped reports what was cut.
	MaxRecords int `json:"max_records,omitempty"`
}

// TraceSummary carries the rendered pipeline trace in a
// SimulateResponse.
type TraceSummary struct {
	Format  string `json:"format"`
	Records int    `json:"records"` // records captured
	Dropped uint64 `json:"dropped"` // records past MaxRecords, not captured
	// Events is the Chrome trace_event list (format "chrome"). Wrap it
	// as {"traceEvents": events} for chrome://tracing, or load the file
	// written by `dvisim -pipetrace` directly.
	Events []obs.ChromeEvent `json:"events,omitempty"`
	// Konata is the complete Kanata log text (format "konata").
	Konata string `json:"konata,omitempty"`
}

// SamplingSpec selects statistical sampling for a simulate job. Zero
// fields pick the server's defaults (internal/sample).
type SamplingSpec struct {
	// Interval is the sampling-unit length in instructions.
	Interval uint64 `json:"interval,omitempty"`
	// Warmup is the detailed warmup run before each measured interval.
	Warmup uint64 `json:"warmup,omitempty"`
	// TargetCI, when positive, densifies the sample until the estimate's
	// relative CI half-width reaches it (or the plan is a full census).
	TargetCI float64 `json:"target_ci,omitempty"`
}

// SampledSummary reports how a sampled estimate was formed and how tight
// it is. IPC and cycle counts in the enclosing response are estimates;
// everything the functional pass counts exactly (eliminations, kills,
// faults, committed instructions) is exact.
type SampledSummary struct {
	Interval      uint64  `json:"interval"`       // effective plan
	Warmup        uint64  `json:"warmup"`         //
	Intervals     int     `json:"intervals"`      // program length in intervals
	Measured      int     `json:"measured"`       // intervals simulated in detail
	TotalInsts    uint64  `json:"total_insts"`    // whole program
	DetailedInsts uint64  `json:"detailed_insts"` // instructions simulated in detail
	CIHalfWidth   float64 `json:"ci_half_width"`  // absolute, on IPC
	RelCI         float64 `json:"rel_ci"`         // CIHalfWidth / estimated IPC
	Confidence    float64 `json:"confidence"`     // e.g. 0.95
}

// SimulateResponse returns the timing statistics.
type SimulateResponse struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	// BuildKey identifies the binary flavour that ran; identical keys
	// were compiled once and served from the daemon's build cache.
	BuildKey string    `json:"build_key"`
	MaxInsts uint64    `json:"max_insts"`
	IPC      float64   `json:"ipc"`
	Stats    ooo.Stats `json:"stats"`
	// CtxStats is the per-context breakdown for multi-context runs
	// (contexts > 1): entry i is hardware context i's share. Additive
	// counts sum to the aggregate Stats; shared-structure fields (cycles,
	// caches) mirror it. Omitted on single-context runs.
	CtxStats []ooo.Stats `json:"ctx_stats,omitempty"`
	// Sampled is present iff the request asked for sampling: the
	// estimate's error bound and plan.
	Sampled *SampledSummary `json:"sampled,omitempty"`
	// Trace is present iff the request asked for a pipeline trace.
	Trace *TraceSummary `json:"trace,omitempty"`
}

// TraceRecent is the /debug/trace/recent body: the last-N completed
// request span trees, newest first.
type TraceRecent struct {
	Traces []*obs.SpanSnapshot `json:"traces"`
}

// CtxSwitchRequest samples live-register counts at preemption points
// (paper §6.2, Figure 12). Exactly one of Workload or Asm must be set.
type CtxSwitchRequest struct {
	Workload string `json:"workload,omitempty"`
	Asm      string `json:"asm,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	// Interval is the preemption sampling interval in instructions
	// (0 = the measurement default, a prime near 1000).
	Interval uint64 `json:"interval,omitempty"`
	MaxInsts uint64 `json:"max_insts,omitempty"`
	DVILevel string `json:"dvi_level,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	EDVI     *bool  `json:"edvi,omitempty"`
	// Infer selects inferred annotations, as in SimulateRequest.
	Infer  bool   `json:"infer,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// CtxSwitchResponse returns the liveness sampling result.
type CtxSwitchResponse struct {
	Workload string           `json:"workload"`
	Scale    int              `json:"scale"`
	BuildKey string           `json:"build_key"`
	SaveSet  int              `json:"save_set"` // registers a DVI-less switch preserves
	Result   ctxswitch.Result `json:"result"`
}

// JobRequest is one entry in a /v2/jobs batch. Kind selects the job type
// ("simulate", "ctxswitch" or "annotate") and exactly the matching
// payload field must be set; its semantics are identical to the
// corresponding one-shot endpoint. A /v1 request is this type too: its
// body decodes into the payload of a one-job entry (DecodeV1), which
// then validates and runs on the same path as any /v2 job, on a single
// node and through the gateway alike.
type JobRequest struct {
	Kind      string            `json:"kind"`
	Simulate  *SimulateRequest  `json:"simulate,omitempty"`
	CtxSwitch *CtxSwitchRequest `json:"ctxswitch,omitempty"`
	Annotate  *AnnotateRequest  `json:"annotate,omitempty"`
}

// JobsRequest is the /v2/jobs body: a heterogeneous job list executed on
// the daemon's shared session. Identical builds across the batch (and
// across concurrent batches) coalesce into one compile.
type JobsRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// JobResult is one line of the /v2/jobs NDJSON response stream. Results
// stream in submission order — line i is delivered as soon as jobs 0..i
// have finished, while later jobs still run. Exactly one of the payload
// fields is set on success; Error carries a per-job failure (the batch
// keeps going, so one bad job does not poison the rest).
type JobResult struct {
	Index     int                `json:"index"`
	Kind      string             `json:"kind"`
	Simulate  *SimulateResponse  `json:"simulate,omitempty"`
	CtxSwitch *CtxSwitchResponse `json:"ctxswitch,omitempty"`
	Annotate  *AnnotateResponse  `json:"annotate,omitempty"`
	Error     string             `json:"error,omitempty"`
}

// WorkloadInfo describes one benchmark the daemon can serve.
type WorkloadInfo struct {
	Name     string `json:"name"`
	Describe string `json:"describe"`
}

// Health is the /healthz body.
type Health struct {
	// Status is "ok" for a serving daemon and "draining" once graceful
	// shutdown has begun (the response is then a 503, so readiness
	// checks eject the backend before its listener closes).
	Status         string  `json:"status"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Workers        int     `json:"workers"`
	Inflight       int64   `json:"inflight"`
	QueueDepth     int64   `json:"queue_depth"`
	QueueCapacity  int     `json:"queue_capacity"`
	CacheEntries   int     `json:"cache_entries"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	// CacheCompiles counts actual compile invocations — with a warm
	// artifact store it stays at zero across a restart even as misses
	// count store decodes.
	CacheCompiles int64 `json:"cache_compiles"`
	// Store reports the on-disk artifact store; absent when the daemon
	// runs purely in memory.
	Store *StoreHealth `json:"store,omitempty"`
}

// StoreHealth is the artifact-store block of the /healthz body.
type StoreHealth struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Evictions   int64 `json:"evictions"`
	Quarantined int64 `json:"quarantined"`
}

// Error is the JSON error body every non-2xx response carries, and the
// error type the typed client returns for server-reported failures. The
// client fills Method and Path from the failed request, so a 429 from
// /v1/simulate and one from /v1/annotate are distinguishable in logs.
type Error struct {
	StatusCode int    `json:"-"`
	Method     string `json:"-"` // HTTP method of the failed request
	Path       string `json:"-"` // URL path of the failed request
	Message    string `json:"error"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Method != "" || e.Path != "" {
		return fmt.Sprintf("dvid: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.StatusCode)
	}
	return fmt.Sprintf("dvid: %s (HTTP %d)", e.Message, e.StatusCode)
}

// --- enum parsing ---

func parseLevel(s string) (core.Level, error) {
	switch s {
	case "", "full":
		return core.Full, nil
	case "none":
		return core.None, nil
	case "idvi":
		return core.IDVI, nil
	}
	return 0, fmt.Errorf("unknown dvi_level %q (want none, idvi or full)", s)
}

func parseScheme(s string) (emu.Scheme, error) {
	switch s {
	case "", "lvm-stack":
		return emu.ElimLVMStack, nil
	case "lvm":
		return emu.ElimLVM, nil
	case "off":
		return emu.ElimOff, nil
	}
	return 0, fmt.Errorf("unknown scheme %q (want off, lvm or lvm-stack)", s)
}

func parseFetchPolicy(s string) (ooo.FetchPolicy, error) {
	switch s {
	case "", "round-robin":
		return ooo.FetchRoundRobin, nil
	case "icount":
		return ooo.FetchICOUNT, nil
	}
	return 0, fmt.Errorf("unknown fetch_policy %q (want round-robin or icount)", s)
}

func parsePolicy(s string) (rewrite.Policy, error) {
	switch s {
	case "", "before-calls":
		return rewrite.KillsBeforeCalls, nil
	case "at-death":
		return rewrite.KillsAtDeath, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want before-calls or at-death)", s)
}
