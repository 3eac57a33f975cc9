package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/runner"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// This file is the service's single execution path. Every request —
// a /v2/jobs batch entry, a /v1 one-shot request, and the gateway's
// local fallback (ExecuteJob) — goes through the same three stages:
//
//	prepare:  validate the wire request and freeze it into a preparedJob
//	execute:  run it as an engine job on the shared session (pool +
//	          build cache), every kind alike — exact and sampled
//	          simulate, ctxswitch and annotate
//	render:   shape the runner result into the wire response
//
// A /v1 request is a one-job batch: its body decodes into the payload
// of a JobRequest (DecodeV1), prepares like any batch entry, and runs
// through stream, the one function that executes prepared jobs. Its
// answer is the payload of the line /v2 would stream, so the two
// versions cannot drift (jobs_test.go's golden test verifies both
// against the library). Every validation or execution failure is a
// client error: a 400 on /v1 and on batch validation, an error field on
// a /v2 line.

// preparedJob is one validated, ready-to-run unit of work: an engine
// job plus the hook that renders its result into the wire line.
type preparedJob struct {
	kind   string
	job    runner.Job
	render func(runner.Result, *JobResult)
}

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

// jobOptions parses the knobs every simulation-class request carries
// (source, dvi_level, scheme, policy, edvi, infer), in the wire format's
// canonical order, into the workload, the emulator config for the level
// and scheme, and the run options session.NewJob resolves — the binary
// flavour is NewJob's rule, not the service's. Submitted assembly runs
// exactly as written unless the client sets edvi.
func (s *Server) jobOptions(wl, asm string, reqScale int, dviLevel, scheme, policy string, edvi *bool, infer bool) (workload.Spec, emu.Config, []session.RunOption, error) {
	spec, scale, err := s.resolveSource(wl, asm, reqScale)
	if err != nil {
		return spec, emu.Config{}, nil, err
	}
	level, err := parseLevel(dviLevel)
	if err != nil {
		return spec, emu.Config{}, nil, err
	}
	sch, err := parseScheme(scheme)
	if err != nil {
		return spec, emu.Config{}, nil, err
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return spec, emu.Config{}, nil, err
	}
	opts := []session.RunOption{session.WithScale(scale), session.WithPolicy(pol)}
	if asm != "" {
		opts = append(opts, session.WithEDVI(false))
	}
	if edvi != nil {
		opts = append(opts, session.WithEDVI(*edvi))
	}
	if infer {
		opts = append(opts, session.WithInferredDVI())
	}
	return spec, session.EmuConfigFor(level, sch), opts, nil
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

// prepareSimulate parses a timing-simulation request, applies the
// server's limits and freezes it into an engine job through
// session.NewJob, which validates the machine and any sampling plan.
func (s *Server) prepareSimulate(req *SimulateRequest) (*preparedJob, error) {
	spec, ecfg, opts, err := s.jobOptions(req.Workload, req.Asm, req.Scale, req.DVILevel, req.Scheme, req.Policy, req.EDVI, req.Infer)
	if err != nil {
		return nil, err
	}
	// The level and scheme travel inside the machine config: an explicit
	// WithDVILevel would replace the whole DVI block, stack depth too.
	cfg := ooo.DefaultConfig()
	cfg.Emu = ecfg
	if err := req.Machine.apply(&cfg); err != nil {
		return nil, err
	}
	cfg.MaxInsts = s.clampInsts(req.MaxInsts)
	if req.Contexts > s.cfg.MaxContexts {
		return nil, fmt.Errorf("contexts %d exceeds the %d-context limit", req.Contexts, s.cfg.MaxContexts)
	}
	if cfg.FetchPolicy, err = parseFetchPolicy(req.FetchPolicy); err != nil {
		return nil, err
	}
	cfg.Contexts = req.Contexts
	opts = append(opts, session.WithMachineConfig(cfg))
	if sp := req.Sampling; sp != nil {
		opts = append(opts, session.WithSampling(sp.Interval, sp.Warmup, sp.TargetCI))
	}
	job, err := session.NewJob(runner.Timing, spec, opts...)
	if err != nil {
		return nil, err
	}
	key := spec.Key(job.Scale, job.Build).String()
	job.Label = "simulate " + key

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
		job.Machine.Trace = traceBuf
	}

	return &preparedJob{
		kind: "simulate",
		job:  job,
		render: func(res runner.Result, line *JobResult) {
			st := res.Timing
			s.met.observeSim(st)
			line.Simulate = &SimulateResponse{
				Workload: spec.Name,
				Scale:    job.Scale,
				BuildKey: key,
				MaxInsts: job.Machine.MaxInsts,
				IPC:      st.IPC(),
				Stats:    st,
				CtxStats: res.CtxStats,
			}
			if est := res.Sampled; est != nil {
				s.met.observeSampled(est.RelCI)
				line.Simulate.IPC = est.IPC
				line.Simulate.Sampled = &SampledSummary{
					Interval:      est.Interval,
					Warmup:        est.Warmup,
					Intervals:     est.Intervals,
					Measured:      est.Measured,
					TotalInsts:    est.TotalInsts,
					DetailedInsts: est.DetailedInsts,
					CIHalfWidth:   est.CIHalfWidth,
					RelCI:         est.RelCI,
					Confidence:    est.Confidence,
				}
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

// prepareCtxSwitch parses a context-switch sampling request into an
// engine job through session.NewJob.
func (s *Server) prepareCtxSwitch(req *CtxSwitchRequest) (*preparedJob, error) {
	spec, ecfg, opts, err := s.jobOptions(req.Workload, req.Asm, req.Scale, req.DVILevel, req.Scheme, req.Policy, req.EDVI, req.Infer)
	if err != nil {
		return nil, err
	}
	job, err := session.NewJob(runner.CtxSwitch, spec, append(opts,
		session.WithEmulatorConfig(ecfg),
		session.WithMaxInsts(s.clampInsts(req.MaxInsts)),
		session.WithInterval(req.Interval))...)
	if err != nil {
		return nil, err
	}
	key := spec.Key(job.Scale, job.Build).String()
	job.Label = "ctxswitch " + key
	return &preparedJob{
		kind: "ctxswitch",
		job:  job,
		render: func(res runner.Result, line *JobResult) {
			line.CtxSwitch = &CtxSwitchResponse{
				Workload: spec.Name,
				Scale:    job.Scale,
				BuildKey: key,
				SaveSet:  ctxswitch.SaveSet,
				Result:   res.Switch,
			}
		},
	}, nil
}

// prepareAnnotate validates a kill-insertion request and freezes it into
// an Annotate engine job, which works on a private build outside the
// cache (the rewriter mutates its program).
func (s *Server) prepareAnnotate(req *AnnotateRequest) (*preparedJob, error) {
	policy, err := parsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	bopt := workload.BuildOptions{Policy: policy}
	switch req.Mode {
	case "", "rewrite":
	case "infer":
		bopt.Infer = true
	default:
		return nil, fmt.Errorf("unknown mode %q (want rewrite or infer)", req.Mode)
	}
	spec, scale, err := s.resolveSource(req.Workload, req.Asm, req.Scale)
	if err != nil {
		return nil, err
	}
	return &preparedJob{
		kind: "annotate",
		job: runner.Job{
			Label:    "annotate " + spec.Key(scale, bopt).String(),
			Workload: spec,
			Scale:    scale,
			Build:    bopt,
			Kind:     runner.Annotate,
			NoPrune:  req.NoPrune,
		},
		render: func(res runner.Result, line *JobResult) {
			var perProc []ProcKills
			for _, p := range res.Program.Procs {
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
			line.Annotate = &AnnotateResponse{
				Asm:       prog.FormatAsm(res.Program),
				Inserted:  res.Inserted,
				PerProc:   perProc,
				TextWords: res.Image.TextWords(),
			}
		},
	}, nil
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

// stream executes prepared jobs as one batch on the shared session and
// hands emit each job's line, indexed and in submission order, as soon
// as every earlier line has gone out. A job's failure travels on its
// line's error field and does not stop the batch; an emit error cancels
// the batch and is returned, as is the context's error.
func (s *Server) stream(ctx context.Context, pjs []*preparedJob, emit func(JobResult) error) error {
	jobs := make([]runner.Job, len(pjs))
	for i, pj := range pjs {
		jobs[i] = pj.job
	}
	return s.sess.Run(ctx, jobs, func(res runner.Result) error {
		pj := pjs[res.Index]
		line := JobResult{Index: res.Index, Kind: pj.kind}
		if res.Err != nil {
			line.Error = res.Err.Error()
		} else {
			_, rspan := obs.StartSpan(ctx, "render")
			pj.render(res, &line)
			rspan.End()
		}
		return emit(line)
	})
}

// run executes one prepared job and returns its result line. A failure
// — the job's own or the context's — travels on the line's error field,
// mirroring /v2's per-job error isolation.
func (s *Server) run(ctx context.Context, pj *preparedJob) JobResult {
	line := JobResult{Kind: pj.kind}
	err := s.stream(ctx, []*preparedJob{pj}, func(l JobResult) error {
		line = l
		return nil
	})
	if err != nil && line.Error == "" {
		line.Error = err.Error()
	}
	return line
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

	// Every job runs on the session's worker pool; lines stream in
	// submission order. A broken stream cancels the rest of the batch,
	// and a client gone away cancels it through the request context —
	// either way the status is committed and there is no one to tell.
	_ = s.stream(r.Context(), prepared, func(line JobResult) error {
		if err := enc.Encode(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}
