package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/runner"
	"dvi/internal/service"
	"dvi/internal/session"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// Probes time one layer's public functions directly, outside any
// workload's concurrency. Every traced run reports them.

// emuProbeRepeats is how often the emulator probe reruns each program.
const emuProbeRepeats = 3

// probeCorpusClient numbers the probe's cold programs apart from every
// batch the fleet sends.
const probeCorpusClient = -2

func probeAll(ctx context.Context, rc *runConfig, out *outcome) error {
	if err := probeEmu(out); err != nil {
		return err
	}
	return probeBuild(rc, out)
}

// probeEmu runs every catalogue program to completion on one reused
// emulator (ResetFor, then Run) and reports instructions per second.
func probeEmu(out *outcome) error {
	cfg := session.EmuConfigFor(core.Full, emu.ElimLVMStack)
	var insts uint64
	var busy time.Duration
	var em *emu.Emulator
	for _, w := range workload.All() {
		pr, img, err := workload.CompileSpec(w, 1, session.BuildOptionsFor(core.Full))
		if err != nil {
			return fmt.Errorf("emu probe: %s: %w", w.Name, err)
		}
		if em == nil {
			em = emu.New(pr, img, cfg)
		}
		for i := 0; i < emuProbeRepeats; i++ {
			em.ResetFor(pr, img, cfg)
			t0 := time.Now()
			if err := em.Run(runner.DefaultEmuBudget); err != nil {
				return fmt.Errorf("emu probe: %s: %w", w.Name, err)
			}
			busy += time.Since(t0)
			insts += em.Stats.Total
		}
	}
	out.layer["emu.minst_per_s"] = ratio(float64(insts), busy.Seconds()) / 1e6
	return nil
}

// probeBuild times the cold path's build steps on one batch of the
// seed's unique programs: parse + infer + link, inference alone, and a
// store write (fsync included) of the linked program.
func probeBuild(rc *runConfig, out *outcome) error {
	bases, err := coldBases()
	if err != nil {
		return err
	}
	st, err := store.Open(store.Options{Dir: filepath.Join(rc.tmp, "probe-store")})
	if err != nil {
		return err
	}
	var compile, infer, put []float64
	for i, jr := range coldBatch(bases, rc.seed, probeCorpusClient, 0) {
		asm := jobAsm(jr)
		t0 := time.Now()
		pr, err := prog.ParseAsm(asm)
		if err == nil {
			_, err = rewrite.Infer(pr, rewrite.Options{})
		}
		if err == nil {
			_, err = pr.Link()
		}
		if err != nil {
			return fmt.Errorf("build probe: program %d: %w", i, err)
		}
		compile = append(compile, ms(time.Since(t0)))

		fresh, err := prog.ParseAsm(asm)
		if err != nil {
			return fmt.Errorf("build probe: program %d: %w", i, err)
		}
		t1 := time.Now()
		if _, err := rewrite.Infer(fresh, rewrite.Options{}); err != nil {
			return fmt.Errorf("build probe: program %d: %w", i, err)
		}
		infer = append(infer, ms(time.Since(t1)))

		payload := store.EncodeProgram(pr)
		t2 := time.Now()
		if err := st.Put(store.BuildKind, fmt.Sprintf("probe-%d-%d", rc.seed, i), payload); err != nil {
			return fmt.Errorf("build probe: %w", err)
		}
		put = append(put, ms(time.Since(t2)))
	}
	out.layer["build.asm_compile_ms"] = median(compile)
	out.layer["rewrite.infer_ms"] = median(infer)
	out.layer["store.put_ms"] = median(put)
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// --- the ladder ---

// ladderRepeats is how often each rung runs; the rung's time is the
// median.
const ladderRepeats = 50

// ladderInsts keeps the ladder's job short, so the layers' per-job costs
// are a visible share of it.
const ladderInsts = 2_000

// rung is one layer of the ladder: the same simulate job called through
// that layer's public entry point. It returns the job's statistics as
// JSON, so the ladder can check that every rung ran the identical job.
type rung struct {
	name string
	call func(ctx context.Context) ([]byte, error)
}

// ladderJob is the job every rung runs: the paper machine (full DVI,
// LVM-Stack, E-DVI binary) on compress.
var ladderJob = service.JobRequest{Kind: "simulate",
	Simulate: &service.SimulateRequest{Workload: "compress", MaxInsts: ladderInsts}}

// ladderRungs builds the rungs from the bottom: raw ooo.Machine.Run,
// Session.Simulate, Server.ExecuteJob, a Client to one backend over
// HTTP, and a Client to the gateway.
func ladderRungs(f *fleet) ([]rung, error) {
	spec, _ := workload.ByName(ladderJob.Simulate.Workload)
	pr, img, err := workload.CompileSpec(spec, 1, session.BuildOptionsFor(core.Full))
	if err != nil {
		return nil, err
	}
	cfg := ooo.DefaultConfig()
	cfg.Emu = session.EmuConfigFor(core.Full, emu.ElimLVMStack)
	cfg.MaxInsts = ladderJob.Simulate.MaxInsts
	m := ooo.New(pr, img, cfg)
	sess := session.New(session.WithWorkers(1))
	srv := service.New(service.Config{Workers: 1})
	viaHTTP := func(base string, rt http.RoundTripper) func(context.Context) ([]byte, error) {
		cl := service.NewClient(base, &http.Client{Transport: rt})
		return func(ctx context.Context) ([]byte, error) {
			var line service.JobResult
			err := cl.RunJobs(ctx, []service.JobRequest{ladderJob}, func(jr service.JobResult) error {
				line = jr
				return nil
			})
			return simStats(line, err)
		}
	}
	return []rung{
		{"machine", func(context.Context) ([]byte, error) {
			m.Reset(pr, img, cfg)
			st, err := m.Run()
			if err != nil {
				return nil, err
			}
			return json.Marshal(st)
		}},
		{"session", func(ctx context.Context) ([]byte, error) {
			st, err := sess.Simulate(ctx, spec, session.WithMaxInsts(cfg.MaxInsts))
			if err != nil {
				return nil, err
			}
			return json.Marshal(st)
		}},
		{"service", func(ctx context.Context) ([]byte, error) {
			return simStats(srv.ExecuteJob(ctx, ladderJob), nil)
		}},
		{"http", viaHTTP("http://"+backendHosts[0], f.route)},
		{"gateway", viaHTTP(f.gatewayURL(), &http.Transport{})},
	}, nil
}

func simStats(line service.JobResult, err error) ([]byte, error) {
	switch {
	case err != nil:
		return nil, err
	case line.Error != "":
		return nil, fmt.Errorf("%s", line.Error)
	case line.Simulate == nil:
		return nil, fmt.Errorf("no simulate result")
	}
	return json.Marshal(line.Simulate.Stats)
}

// ladder times the rungs, interleaved, on an idle fleet and reports each
// layer's cost per job as its rung's median minus the rung below.
func ladder(ctx context.Context, f *fleet, out *outcome) error {
	rungs, err := ladderRungs(f)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	times := make([][]float64, len(rungs))
	var want []byte
	for rep := -1; rep < ladderRepeats; rep++ { // rep -1 warms every rung
		for i, r := range rungs {
			t0 := time.Now()
			got, err := r.call(ctx)
			dt := time.Since(t0)
			if err != nil {
				return fmt.Errorf("ladder %s: %w", r.name, err)
			}
			if want == nil {
				want = got
			}
			out.check(bytes.Equal(got, want), "ladder: %s ran a different job than %s", r.name, rungs[0].name)
			if rep >= 0 {
				times[i] = append(times[i], dt.Seconds()*1e6)
			}
		}
	}
	for i := 1; i < len(rungs); i++ {
		out.layer[rungs[i].name+".overhead_us_per_job"] = median(times[i]) - median(times[i-1])
	}
	return nil
}
