package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"dvi/internal/core"
	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// This file is the service's single execution path. Every request —
// a /v2/jobs batch entry, a /v1 one-shot request, and the gateway's
// local fallback (ExecuteJob) — goes through the same three stages:
//
//	prepare:  validate the wire request and freeze it into a preparedJob
//	execute:  run it on the shared session (engine pool + build cache)
//	render:   shape the runner result into the wire response
//
// A /v1 request is a one-job batch: its body decodes into the payload
// of a JobRequest (DecodeV1), prepares like any batch entry, and runs
// through run, the one function that executes a preparedJob on its own.
// Its answer is the payload of the line /v2 would stream, so the two
// versions cannot drift (service_test.go's golden test verifies both
// against the library). Every validation or execution failure is a
// client error: a 400 on /v1 and on batch validation, an error field on
// a /v2 line.

// errDeliveryClosed cancels the engine batch when the /v2/jobs delivery
// loop has stopped consuming (the response stream broke).
var errDeliveryClosed = errors.New("service: /v2/jobs delivery closed")

// preparedJob is one validated, ready-to-run unit of work. Engine-backed
// kinds (exact simulate, ctxswitch) carry a runner job plus a render
// hook; the rest carry a self-contained inline thunk that fills its
// result line directly. Annotate is inline because the binary rewriter
// mutates its program and therefore works on private builds outside the
// shared cache; sampled simulate is inline because the sampler is its
// own orchestration — it fans interval jobs out across the engine's
// worker pool itself.
type preparedJob struct {
	kind   string
	job    runner.Job
	render func(runner.Result, *JobResult)
	inline func(context.Context, *JobResult) error
}

// engineBacked reports whether the job executes on the session's engine.
func (pj *preparedJob) engineBacked() bool { return pj.inline == nil }

// prepareJob validates one /v2 batch entry.
func (s *Server) prepareJob(jr JobRequest) (*preparedJob, error) {
	payloads := 0
	for _, set := range []bool{jr.Simulate != nil, jr.CtxSwitch != nil, jr.Annotate != nil} {
		if set {
			payloads++
		}
	}
	if payloads != 1 {
		return nil, fmt.Errorf("exactly one of simulate, ctxswitch or annotate must be set (got %d)", payloads)
	}
	switch jr.Kind {
	case "simulate":
		if jr.Simulate == nil {
			return nil, fmt.Errorf("kind %q needs a simulate payload", jr.Kind)
		}
		return s.prepareSimulate(jr.Simulate)
	case "ctxswitch":
		if jr.CtxSwitch == nil {
			return nil, fmt.Errorf("kind %q needs a ctxswitch payload", jr.Kind)
		}
		return s.prepareCtxSwitch(jr.CtxSwitch)
	case "annotate":
		if jr.Annotate == nil {
			return nil, fmt.Errorf("kind %q needs an annotate payload", jr.Kind)
		}
		return s.prepareAnnotate(jr.Annotate)
	}
	return nil, fmt.Errorf("unknown job kind %q (want simulate, ctxswitch or annotate)", jr.Kind)
}

// simSource is the validated (source, flavour, emulator-config) triple
// shared by timing and context-switch requests — one place derives the
// binary flavour for both, so the rule cannot drift between kinds.
type simSource struct {
	spec  workload.Spec
	scale int
	bopt  workload.BuildOptions
	ecfg  emu.Config
}

// resolveSimSource validates the knobs every simulation-class request
// carries (source, dvi_level, scheme, policy, edvi, infer) in the wire
// format's canonical order, and derives the binary flavour through the
// session layer's central E-DVI rule: annotated binaries iff the DVI
// level is full, client assembly runs as written, an explicit edvi field
// wins. The infer flag swaps the annotation engine for the
// interprocedural inference pass; it needs no compiler hints, so it
// applies to submitted assembly too — and like E-DVI it is effective
// only when the hardware honours explicit annotations (level full).
func (s *Server) resolveSimSource(wl, asm string, reqScale int, dviLevel, scheme, policy string, edvi *bool, infer bool) (simSource, error) {
	spec, scale, err := s.resolveSource(wl, asm, reqScale)
	if err != nil {
		return simSource{}, err
	}
	level, err := parseLevel(dviLevel)
	if err != nil {
		return simSource{}, err
	}
	sch, err := parseScheme(scheme)
	if err != nil {
		return simSource{}, err
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return simSource{}, err
	}
	bopt := session.BuildOptionsFor(level)
	bopt.Policy = pol
	if asm != "" {
		// Submitted assembly runs exactly as written unless the client
		// asks the daemon to annotate it.
		bopt.EDVI = false
	}
	if edvi != nil {
		bopt.EDVI = *edvi
	}
	if infer && level == core.Full {
		bopt.Infer = true
		bopt.EDVI = false
	}
	return simSource{spec: spec, scale: scale, bopt: bopt, ecfg: session.EmuConfigFor(level, sch)}, nil
}

// renderTrace shapes a finished run's pipeline buffer into the wire
// summary.
func renderTrace(buf *obs.PipeBuffer, format string) (*TraceSummary, error) {
	ts := &TraceSummary{
		Format:  format,
		Records: buf.Len(),
		Dropped: buf.Dropped(),
	}
	if format == "konata" {
		var sb strings.Builder
		if err := obs.WriteKonata(&sb, buf.Records()); err != nil {
			return nil, err
		}
		ts.Konata = sb.String()
		return ts, nil
	}
	ts.Events = obs.ChromeTraceEvents(buf.Records())
	return ts, nil
}

// prepareSimulate validates a timing-simulation request and freezes it
// into an engine job.
func (s *Server) prepareSimulate(req *SimulateRequest) (*preparedJob, error) {
	src, err := s.resolveSimSource(req.Workload, req.Asm, req.Scale, req.DVILevel, req.Scheme, req.Policy, req.EDVI, req.Infer)
	if err != nil {
		return nil, err
	}
	spec, scale, bopt := src.spec, src.scale, src.bopt

	cfg := ooo.DefaultConfig()
	cfg.Emu = src.ecfg
	if err := req.Machine.apply(&cfg); err != nil {
		return nil, err
	}
	cfg.MaxInsts = s.clampInsts(req.MaxInsts)

	if req.Contexts > s.cfg.MaxContexts {
		return nil, fmt.Errorf("contexts %d exceeds the %d-context limit", req.Contexts, s.cfg.MaxContexts)
	}
	fp, err := parseFetchPolicy(req.FetchPolicy)
	if err != nil {
		return nil, err
	}
	cfg.Contexts = req.Contexts
	cfg.FetchPolicy = fp
	if err := cfg.CheckContexts(); err != nil {
		return nil, err
	}
	if cfg.ContextCount() > 1 && req.Sampling != nil {
		return nil, fmt.Errorf("sampling is single-context (contexts=%d): checkpoints restore one architectural state", req.Contexts)
	}

	var traceBuf *obs.PipeBuffer
	traceFormat := ""
	if req.Trace != nil {
		if req.Sampling != nil {
			return nil, errors.New("trace and sampling are mutually exclusive: a sampled estimate has no contiguous pipeline to trace")
		}
		switch req.Trace.Format {
		case "", "chrome":
			traceFormat = "chrome"
		case "konata":
			traceFormat = "konata"
		default:
			return nil, fmt.Errorf("unknown trace format %q (want chrome or konata)", req.Trace.Format)
		}
		limit := req.Trace.MaxRecords
		if limit <= 0 {
			limit = defaultTraceRecords
		}
		if limit > s.cfg.MaxTraceRecords {
			limit = s.cfg.MaxTraceRecords
		}
		traceBuf = obs.NewPipeBuffer(limit)
		cfg.Trace = traceBuf
	}

	key := spec.Key(scale, bopt).String()
	job := runner.Job{
		Label:    "simulate " + key,
		Workload: spec,
		Scale:    scale,
		Build:    bopt,
		Kind:     runner.Timing,
		Machine:  cfg,
	}
	if req.Sampling != nil {
		so := sample.Options{
			Interval: req.Sampling.Interval,
			Warmup:   req.Sampling.Warmup,
			TargetCI: req.Sampling.TargetCI,
		}
		return &preparedJob{
			kind: "simulate",
			inline: func(ctx context.Context, line *JobResult) error {
				out, err := s.sess.CollectSampled(ctx, []runner.Job{job}, so)
				if err != nil {
					return err
				}
				res, est := out[0], out[0].Sampled
				s.met.observeSim(res.Timing)
				s.met.observeSampled(est.RelCI)
				_, rspan := obs.StartSpan(ctx, "render")
				defer rspan.End()
				line.Simulate = &SimulateResponse{
					Workload: spec.Name,
					Scale:    scale,
					BuildKey: key,
					MaxInsts: cfg.MaxInsts,
					IPC:      est.IPC,
					Stats:    res.Timing,
					Sampled: &SampledSummary{
						Interval:      est.Interval,
						Warmup:        est.Warmup,
						Intervals:     est.Intervals,
						Measured:      est.Measured,
						TotalInsts:    est.TotalInsts,
						DetailedInsts: est.DetailedInsts,
						CIHalfWidth:   est.CIHalfWidth,
						RelCI:         est.RelCI,
						Confidence:    est.Confidence,
					},
				}
				return nil
			},
		}, nil
	}
	return &preparedJob{
		kind: "simulate",
		job:  job,
		render: func(res runner.Result, line *JobResult) {
			st := res.Timing
			s.met.observeSim(st)
			line.Simulate = &SimulateResponse{
				Workload: spec.Name,
				Scale:    scale,
				BuildKey: key,
				MaxInsts: cfg.MaxInsts,
				IPC:      st.IPC(),
				Stats:    st,
				CtxStats: res.CtxStats,
			}
			if traceBuf != nil {
				ts, err := renderTrace(traceBuf, traceFormat)
				if err != nil {
					// Rendering is pure formatting over an in-memory
					// buffer; a failure means a renderer bug, not a bad
					// request. Surface it on the line rather than
					// dropping the whole result.
					line.Error = fmt.Sprintf("render trace: %v", err)
					return
				}
				line.Simulate.Trace = ts
			}
		},
	}, nil
}

// prepareCtxSwitch validates a context-switch sampling request.
func (s *Server) prepareCtxSwitch(req *CtxSwitchRequest) (*preparedJob, error) {
	src, err := s.resolveSimSource(req.Workload, req.Asm, req.Scale, req.DVILevel, req.Scheme, req.Policy, req.EDVI, req.Infer)
	if err != nil {
		return nil, err
	}
	spec, scale, bopt, ecfg := src.spec, src.scale, src.bopt, src.ecfg

	key := spec.Key(scale, bopt).String()
	return &preparedJob{
		kind: "ctxswitch",
		job: runner.Job{
			Label:     "ctxswitch " + key,
			Workload:  spec,
			Scale:     scale,
			Build:     bopt,
			Kind:      runner.CtxSwitch,
			Emu:       ecfg,
			EmuBudget: s.clampInsts(req.MaxInsts),
			Interval:  req.Interval,
		},
		render: func(res runner.Result, line *JobResult) {
			line.CtxSwitch = &CtxSwitchResponse{
				Workload: spec.Name,
				Scale:    scale,
				BuildKey: key,
				SaveSet:  ctxswitch.SaveSet,
				Result:   res.Switch,
			}
		},
	}, nil
}

// prepareAnnotate validates a kill-insertion request and freezes it into
// a thunk. The rewriter mutates its program, so the thunk always works on
// a fresh private build (never the shared cache) and runs inline at its
// slot in the result stream — it is compile-bound, not simulation-bound.
func (s *Server) prepareAnnotate(req *AnnotateRequest) (*preparedJob, error) {
	policy, err := parsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	noPrune := req.NoPrune
	var infer bool
	switch req.Mode {
	case "", "rewrite":
	case "infer":
		infer = true
	default:
		return nil, fmt.Errorf("unknown mode %q (want rewrite or infer)", req.Mode)
	}

	// finish runs the selected annotation engine over a private program
	// and shapes the response; shared by both sources.
	finish := func(pr *prog.Program) (*AnnotateResponse, error) {
		annotate := rewrite.InsertKills
		if infer {
			annotate = rewrite.Infer
		}
		inserted, err := annotate(pr, rewrite.Options{Policy: policy, NoPrune: noPrune})
		if err != nil {
			return nil, fmt.Errorf("rewrite: %v", err)
		}
		img, err := pr.Link()
		if err != nil {
			return nil, fmt.Errorf("link: %v", err)
		}
		var perProc []ProcKills
		for _, p := range pr.Procs {
			kills := 0
			for _, in := range p.Insts {
				if in.Op == isa.KILL {
					kills++
				}
			}
			if kills > 0 {
				perProc = append(perProc, ProcKills{Proc: p.Name, Kills: kills})
			}
		}
		return &AnnotateResponse{
			Asm:       prog.FormatAsm(pr),
			Inserted:  inserted,
			PerProc:   perProc,
			TextWords: img.TextWords(),
		}, nil
	}

	var thunk func() (*AnnotateResponse, error)
	switch {
	case req.Asm != "" && req.Workload != "":
		return nil, errors.New("set either workload or asm, not both")
	case req.Asm != "":
		asm := req.Asm
		thunk = func() (*AnnotateResponse, error) {
			pr, err := prog.ParseAsm(asm)
			if err != nil {
				return nil, fmt.Errorf("parse: %v", err)
			}
			return finish(pr)
		}
	case req.Workload != "":
		spec, scale, err := s.resolveSource(req.Workload, "", req.Scale)
		if err != nil {
			return nil, err
		}
		thunk = func() (*AnnotateResponse, error) {
			// A fresh, un-annotated build — never the cache's: the rewriter
			// mutates the program, and cached artifacts are shared read-only.
			pr, _, err := s.compile(spec, scale, workload.BuildOptions{})
			if err != nil {
				return nil, fmt.Errorf("build %s: %v", spec.Name, err)
			}
			return finish(pr)
		}
	default:
		return nil, errors.New("one of workload or asm is required")
	}
	return &preparedJob{kind: "annotate", inline: func(_ context.Context, line *JobResult) error {
		resp, err := thunk()
		line.Annotate = resp
		return err
	}}, nil
}

// DecodeV1 strictly decodes a /v1 one-shot body for kind ("simulate",
// "ctxswitch" or "annotate") into the payload of the equivalent one-job
// /v2 entry. Unknown fields are an error, as on every request body.
func DecodeV1(kind string, body io.Reader) (JobRequest, error) {
	jr := JobRequest{Kind: kind}
	var dst any
	switch kind {
	case "simulate":
		jr.Simulate = new(SimulateRequest)
		dst = jr.Simulate
	case "ctxswitch":
		jr.CtxSwitch = new(CtxSwitchRequest)
		dst = jr.CtxSwitch
	case "annotate":
		jr.Annotate = new(AnnotateRequest)
		dst = jr.Annotate
	default:
		return jr, fmt.Errorf("unknown job kind %q", kind)
	}
	return jr, readJSON(body, dst)
}

// run executes one prepared job on the shared session and returns its
// result line (Index left zero; the caller owns stream positions).
// Inline jobs run on the calling goroutine; engine-backed ones submit a
// one-job batch. A failure — the job's own or the context's — travels
// on the line's error field, mirroring /v2's per-job error isolation.
func (s *Server) run(ctx context.Context, pj *preparedJob) JobResult {
	line := JobResult{Kind: pj.kind}
	if !pj.engineBacked() {
		if err := pj.inline(ctx, &line); err != nil {
			line.Error = err.Error()
		}
		return line
	}
	err := s.sess.Run(ctx, []runner.Job{pj.job}, func(res runner.Result) error {
		pj.finish(ctx, res, &line)
		return nil
	})
	if err != nil && line.Error == "" {
		line.Error = err.Error()
	}
	return line
}

// finish fills an engine-backed job's line from its runner result.
func (pj *preparedJob) finish(ctx context.Context, res runner.Result, line *JobResult) {
	if res.Err != nil {
		line.Error = res.Err.Error()
		return
	}
	_, rspan := obs.StartSpan(ctx, "render")
	pj.render(res, line)
	rspan.End()
}

// ValidateJob runs one /v2 batch entry through the same prepare step
// the daemon's own handlers use, without executing it. The gateway uses
// it to validate requests up front with exactly the error messages a
// single-node daemon would produce. A non-nil error always maps to a
// 400.
func (s *Server) ValidateJob(jr JobRequest) error {
	_, err := s.prepareJob(jr)
	return err
}

// ExecuteJob validates and runs one job on the local session, returning
// the same line /v2/jobs would stream for it (Index is left zero).
// Failures — validation or execution — travel on the line's error
// field. The gateway uses this for degraded-mode local fallback when
// every backend for a key is down.
func (s *Server) ExecuteJob(ctx context.Context, jr JobRequest) JobResult {
	pj, err := s.prepareJob(jr)
	if err != nil {
		return JobResult{Kind: jr.Kind, Error: err.Error()}
	}
	return s.run(ctx, pj)
}

// handleJobs is POST /v2/jobs: a heterogeneous job batch answered as an
// NDJSON stream in submission order. The whole batch is validated before
// the first byte of the response (any invalid job rejects the batch with
// 400), so every accepted batch streams exactly one line per job. Line i
// is flushed as soon as jobs 0..i have finished while later jobs still
// run; per-job failures travel on the line's error field and do not
// abort the batch. One admission slot covers the whole batch — the
// engine's worker pool, not the client's job count, bounds concurrency.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req JobsRequest
	if err := readJSON(r.Body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, "at least one job is required")
		return
	}
	if len(req.Jobs) > s.cfg.MaxJobs {
		s.writeError(w, http.StatusBadRequest,
			"batch of %d jobs exceeds the %d-job limit", len(req.Jobs), s.cfg.MaxJobs)
		return
	}
	prepared := make([]*preparedJob, len(req.Jobs))
	for i, jr := range req.Jobs {
		pj, err := s.prepareJob(jr)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
			return
		}
		prepared[i] = pj
	}

	// The batch is accepted; from here every job answers on its own
	// NDJSON line and the HTTP status is already committed.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeLine := func(line JobResult) error {
		if err := enc.Encode(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// Engine-backed jobs are submitted to the session immediately and run
	// concurrently on its worker pool, so a leading inline job never
	// delays engine submission. Inline jobs execute on this goroutine at
	// their slot in the stream: annotate is compile-bound and cheap, and
	// a sampled simulate fans its interval jobs out across the same
	// worker pool itself, so running them serially here keeps a single
	// batch from oversubscribing the machine (at the cost that an inline
	// job behind a slow simulation starts only when its slot comes up).
	var engJobs []runner.Job
	for _, pj := range prepared {
		if pj.engineBacked() {
			engJobs = append(engJobs, pj.job)
		}
	}
	done := make(chan struct{}) // closed when delivery stops consuming
	var doneOnce sync.Once
	closeDone := func() { doneOnce.Do(func() { close(done) }) }
	defer closeDone()

	resCh := make(chan runner.Result) // engine results, submission order
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		err := s.sess.Run(r.Context(), engJobs, func(res runner.Result) error {
			select {
			case resCh <- res:
				return nil
			case <-done:
				return errDeliveryClosed
			}
		})
		_ = err // the stream is the only way to answer; see below
		close(resCh)
	}()

	for idx, pj := range prepared {
		var line JobResult
		if pj.engineBacked() {
			res, ok := <-resCh
			if !ok {
				// The engine batch ended early: the client went away and
				// the request context cancelled it. Nothing left to say.
				break
			}
			line.Kind = pj.kind
			pj.finish(r.Context(), res, &line)
		} else {
			line = s.run(r.Context(), pj)
		}
		line.Index = idx
		if err := writeLine(line); err != nil {
			// The stream broke mid-batch; the response cannot change
			// status anymore. Stop consuming so the engine batch cancels.
			break
		}
	}
	closeDone()
	<-runDone
}
