package service_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dvi"
	"dvi/internal/core"
	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/sample"
	"dvi/internal/service"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// encodeJSON renders v exactly as the server's writeJSON does (Encoder +
// trailing newline), so byte comparisons are meaningful.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenSimulate computes the expected /v1/simulate response for
// (compress, 50k insts) from the library, bypassing the service.
func goldenSimulate(t *testing.T) service.SimulateResponse {
	t.Helper()
	w, _ := dvi.WorkloadByName("compress")
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = 50_000
	st, err := dvi.Simulate(w, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return service.SimulateResponse{
		Workload: "compress",
		Scale:    1,
		BuildKey: w.Key(1, workload.BuildOptions{EDVI: true}).String(),
		MaxInsts: 50_000,
		IPC:      st.IPC(),
		Stats:    st,
	}
}

// goldenSampled computes the expected /v1/simulate response for a
// sampled run of (compress, 50k insts) with the default plan from the
// session's SimulateSampled, bypassing the service.
func goldenSampled(t *testing.T) service.SimulateResponse {
	t.Helper()
	w, _ := workload.ByName("compress")
	est, err := session.New().SimulateSampled(context.Background(), w,
		session.WithMaxInsts(50_000), session.WithSamplingOptions(sample.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return service.SimulateResponse{
		Workload: "compress",
		Scale:    1,
		BuildKey: w.Key(1, workload.BuildOptions{EDVI: true}).String(),
		MaxInsts: 50_000,
		IPC:      est.IPC,
		Stats:    est.Stats,
		Sampled: &service.SampledSummary{
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
}

// goldenCtxSwitch computes the expected /v1/ctxswitch response for
// (li, interval 97, 100k insts) from the library.
func goldenCtxSwitch(t *testing.T) service.CtxSwitchResponse {
	t.Helper()
	w, _ := dvi.WorkloadByName("li")
	pr, img, err := dvi.Build(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dvi.MeasureContextSwitch(pr, img,
		dvi.EmulatorConfig{DVI: dvi.DefaultDVIConfig(), Scheme: dvi.ElimLVMStack}, 97, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	return service.CtxSwitchResponse{
		Workload: "li",
		Scale:    1,
		BuildKey: w.Key(1, workload.BuildOptions{EDVI: true}).String(),
		SaveSet:  ctxswitch.SaveSet,
		Result:   res,
	}
}

// goldenAnnotate computes the expected /v1/annotate response for li from
// the library pipeline: fresh plain build, default rewrite, relink.
func goldenAnnotate(t *testing.T) service.AnnotateResponse {
	t.Helper()
	spec, _ := workload.ByName("li")
	pr, _, err := workload.CompileSpec(spec, 1, workload.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inserted, err := rewrite.InsertKills(pr, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	var perProc []service.ProcKills
	for _, p := range pr.Procs {
		kills := 0
		for _, in := range p.Insts {
			if in.Op == isa.KILL {
				kills++
			}
		}
		if kills > 0 {
			perProc = append(perProc, service.ProcKills{Proc: p.Name, Kills: kills})
		}
	}
	return service.AnnotateResponse{
		Asm:       prog.FormatAsm(pr),
		Inserted:  inserted,
		PerProc:   perProc,
		TextWords: img.TextWords(),
	}
}

// compileDirect builds one flavour of spec without the service or the
// session: a benchmark through workload.CompileSpec, submitted assembly
// parsed and linked as written (the only flavour the golden rows ask of
// it).
func compileDirect(t *testing.T, spec workload.Spec, bopt workload.BuildOptions) (*prog.Program, *prog.Image) {
	t.Helper()
	if spec.Asm == "" {
		pr, img, err := workload.CompileSpec(spec, 1, bopt)
		if err != nil {
			t.Fatal(err)
		}
		return pr, img
	}
	if bopt.EDVI || bopt.Infer {
		t.Fatalf("compileDirect: asm golden rows run plain, got %+v", bopt)
	}
	pr, err := prog.ParseAsm(spec.Asm)
	if err != nil {
		t.Fatal(err)
	}
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	return pr, img
}

// goldenMachine computes the expected /v1/simulate response for one
// flavour on one machine by running the timing simulator directly.
func goldenMachine(t *testing.T, spec workload.Spec, bopt workload.BuildOptions, cfg ooo.Config) service.SimulateResponse {
	t.Helper()
	pr, img := compileDirect(t, spec, bopt)
	m := ooo.New(pr, img, cfg)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	resp := service.SimulateResponse{
		Workload: spec.Name,
		Scale:    1,
		BuildKey: spec.Key(1, bopt).String(),
		MaxInsts: cfg.MaxInsts,
		IPC:      st.IPC(),
		Stats:    st,
	}
	if m.Contexts() > 1 {
		resp.CtxStats = m.CtxStats()
	}
	return resp
}

// goldenMachineFor is goldenMachine on the paper machine at one DVI
// level and scheme, edited by tweak, over maxInsts instructions.
func goldenMachineFor(t *testing.T, name string, bopt workload.BuildOptions, level core.Level, scheme emu.Scheme, maxInsts uint64, tweak func(*ooo.Config)) service.SimulateResponse {
	t.Helper()
	spec, _ := workload.ByName(name)
	cfg := ooo.DefaultConfig()
	cfg.Emu = session.EmuConfigFor(level, scheme)
	cfg.MaxInsts = maxInsts
	if tweak != nil {
		tweak(&cfg)
	}
	return goldenMachine(t, spec, bopt, cfg)
}

// goldenCtxSwitchAt computes the expected /v1/ctxswitch response for li
// (interval 97, 100k insts) at one DVI level on a plain build.
func goldenCtxSwitchAt(t *testing.T, level core.Level) service.CtxSwitchResponse {
	t.Helper()
	spec, _ := workload.ByName("li")
	bopt := workload.BuildOptions{}
	pr, img := compileDirect(t, spec, bopt)
	res, err := ctxswitch.Measure(pr, img, session.EmuConfigFor(level, emu.ElimLVMStack), 97, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	return service.CtxSwitchResponse{
		Workload: "li",
		Scale:    1,
		BuildKey: spec.Key(1, bopt).String(),
		SaveSet:  ctxswitch.SaveSet,
		Result:   res,
	}
}

// goldenAsm is a small client program for the asm-source golden row.
const goldenAsm = `.entry main
.proc main
  addi t0, zero, 50
loop:
  addi t0, t0, -1
  bne t0, zero, loop
  sys zero, t0
  ret
`

// goldenAsmSimulate computes the expected /v1/simulate response for
// goldenAsm: a content-addressed spec, run exactly as written.
func goldenAsmSimulate(t *testing.T) service.SimulateResponse {
	t.Helper()
	sum := sha256.Sum256([]byte(goldenAsm))
	spec := workload.Spec{Name: "asm:" + hex.EncodeToString(sum[:12]), Asm: goldenAsm}
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 10_000
	return goldenMachine(t, spec, workload.BuildOptions{}, cfg)
}

// TestV1GoldenShims is the satellite golden test: after the /v1 endpoints
// became shims over the /v2 execution path, every response must remain
// byte-identical to the library-derived wire format — and the /v2 batch
// line for the same job must embed exactly the same payload bytes.
func TestV1GoldenShims(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	type endpoint struct {
		name, path, kind, reqBody string
		expected                  any
	}
	cases := []endpoint{
		{"simulate", "/v1/simulate", "simulate",
			`{"workload":"compress","max_insts":50000}`, goldenSimulate(t)},
		{"sampled", "/v1/simulate", "simulate",
			`{"workload":"compress","max_insts":50000,"sampling":{}}`, goldenSampled(t)},
		{"ctxswitch", "/v1/ctxswitch", "ctxswitch",
			`{"workload":"li","interval":97,"max_insts":100000}`, goldenCtxSwitch(t)},
		{"annotate", "/v1/annotate", "annotate",
			`{"workload":"li"}`, goldenAnnotate(t)},

		// One row per knob of the job description, each derived by
		// building the flavour and running the machine directly.
		{"idvi lvm", "/v1/simulate", "simulate",
			`{"workload":"li","max_insts":50000,"dvi_level":"idvi","scheme":"lvm"}`,
			goldenMachineFor(t, "li", workload.BuildOptions{}, core.IDVI, emu.ElimLVM, 50_000, nil)},
		{"none off", "/v1/simulate", "simulate",
			`{"workload":"li","max_insts":50000,"dvi_level":"none","scheme":"off"}`,
			goldenMachineFor(t, "li", workload.BuildOptions{}, core.None, emu.ElimOff, 50_000, nil)},
		{"stack depth and ports", "/v1/simulate", "simulate",
			`{"workload":"li","max_insts":50000,"machine":{"stack_depth":4,"cache_ports":1}}`,
			goldenMachineFor(t, "li", workload.BuildOptions{EDVI: true}, core.Full, emu.ElimLVMStack, 50_000,
				func(c *ooo.Config) { c.Emu.DVI.StackDepth, c.CachePorts = 4, 1 })},
		{"edvi off at-death", "/v1/simulate", "simulate",
			`{"workload":"li","max_insts":50000,"edvi":false,"policy":"at-death"}`,
			goldenMachineFor(t, "li", workload.BuildOptions{Policy: rewrite.KillsAtDeath}, core.Full, emu.ElimLVMStack, 50_000, nil)},
		{"infer", "/v1/simulate", "simulate",
			`{"workload":"li","max_insts":50000,"infer":true}`,
			goldenMachineFor(t, "li", workload.BuildOptions{Infer: true}, core.Full, emu.ElimLVMStack, 50_000, nil)},
		{"two contexts", "/v1/simulate", "simulate",
			`{"workload":"li","max_insts":30000,"contexts":2,"fetch_policy":"icount","machine":{"phys_regs":128}}`,
			goldenMachineFor(t, "li", workload.BuildOptions{EDVI: true}, core.Full, emu.ElimLVMStack, 30_000,
				func(c *ooo.Config) { c.Contexts, c.FetchPolicy, c.PhysRegs = 2, ooo.FetchICOUNT, 128 })},
		{"asm", "/v1/simulate", "simulate",
			`{"asm":` + strconv.Quote(goldenAsm) + `,"max_insts":10000}`, goldenAsmSimulate(t)},
		{"ctxswitch idvi", "/v1/ctxswitch", "ctxswitch",
			`{"workload":"li","interval":97,"max_insts":100000,"dvi_level":"idvi"}`, goldenCtxSwitchAt(t, core.IDVI)},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The /v1 shim answers the library-derived bytes exactly.
			code, body := postJSON(t, ts.URL+c.path, c.reqBody)
			if code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", code, body)
			}
			want := encodeJSON(t, c.expected)
			if !bytes.Equal(body, want) {
				t.Fatalf("%s response bytes changed:\n got %s\nwant %s", c.path, body, want)
			}

			// A one-job /v2 batch of the same kind streams one line whose
			// payload is byte-identical to the /v1 response.
			batch := fmt.Sprintf(`{"jobs":[{"kind":%q,%q:%s}]}`, c.kind, c.kind, c.reqBody)
			code, lines := postJSON(t, ts.URL+"/v2/jobs", batch)
			if code != http.StatusOK {
				t.Fatalf("/v2/jobs HTTP %d: %s", code, lines)
			}
			var line service.JobResult
			if err := json.Unmarshal(lines, &line); err != nil {
				t.Fatalf("bad NDJSON line: %v\n%s", err, lines)
			}
			var payload any
			switch c.kind {
			case "simulate":
				payload = line.Simulate
			case "ctxswitch":
				payload = line.CtxSwitch
			case "annotate":
				payload = line.Annotate
			}
			if line.Error != "" {
				t.Fatalf("/v2 job failed: %s", line.Error)
			}
			if got := encodeJSON(t, payload); !bytes.Equal(got, want) {
				t.Fatalf("/v2 payload differs from /v1 bytes:\n got %s\nwant %s", got, want)
			}
		})
	}

	// GET /v1/workloads stays pinned too.
	res, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	var infos []service.WorkloadInfo
	for _, spec := range workload.All() {
		infos = append(infos, service.WorkloadInfo{Name: spec.Name, Describe: spec.Describe})
	}
	if want := encodeJSON(t, infos); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("/v1/workloads bytes changed:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// TestJobsBatch64Coalesce is the acceptance criterion: a 64-way identical
// /v2/jobs submission performs exactly one compile, streams 64 lines in
// order, and every payload is byte-identical.
func TestJobsBatch64Coalesce(t *testing.T) {
	svc := service.New(service.Config{Workers: 4})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	const n = 64
	jobs := make([]service.JobRequest, n)
	for i := range jobs {
		jobs[i] = service.JobRequest{
			Kind:     "simulate",
			Simulate: &service.SimulateRequest{Workload: "compress", MaxInsts: 50_000},
		}
	}
	var lines []service.JobResult
	err := cl.RunJobs(context.Background(), jobs, func(line service.JobResult) error {
		lines = append(lines, line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != n {
		t.Fatalf("streamed %d lines, want %d", len(lines), n)
	}
	first := encodeJSON(t, lines[0].Simulate)
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d carries index %d", i, line.Index)
		}
		if line.Error != "" {
			t.Fatalf("job %d failed: %s", i, line.Error)
		}
		if !bytes.Equal(encodeJSON(t, line.Simulate), first) {
			t.Fatalf("job %d payload differs from job 0", i)
		}
	}
	hits, misses := svc.Engine().Cache().Stats()
	if misses != 1 {
		t.Fatalf("64-job identical batch compiled %d times, want exactly 1", misses)
	}
	if hits != n-1 {
		t.Fatalf("got %d cache hits, want %d", hits, n-1)
	}
}

// TestJobsHeterogeneousBatch drives a mixed batch — timing, annotate,
// ctxswitch, a failing job — through the typed client and checks ordered
// delivery with per-job error isolation.
func TestJobsHeterogeneousBatch(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	jobs := []service.JobRequest{
		{Kind: "simulate", Simulate: &service.SimulateRequest{Workload: "gcc", MaxInsts: 30_000}},
		{Kind: "annotate", Annotate: &service.AnnotateRequest{Workload: "li"}},
		{Kind: "ctxswitch", CtxSwitch: &service.CtxSwitchRequest{Workload: "li", Interval: 97, MaxInsts: 50_000}},
		{Kind: "simulate", Simulate: &service.SimulateRequest{Asm: "bogus", MaxInsts: 10_000}},
		{Kind: "simulate", Simulate: &service.SimulateRequest{Workload: "compress", MaxInsts: 30_000}},
	}
	var lines []service.JobResult
	if err := cl.RunJobs(context.Background(), jobs, func(line service.JobResult) error {
		lines = append(lines, line)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(jobs) {
		t.Fatalf("streamed %d lines, want %d", len(lines), len(jobs))
	}
	wantKinds := []string{"simulate", "annotate", "ctxswitch", "simulate", "simulate"}
	for i, line := range lines {
		if line.Index != i || line.Kind != wantKinds[i] {
			t.Fatalf("line %d = (index %d, kind %q), want (index %d, kind %q)",
				i, line.Index, line.Kind, i, wantKinds[i])
		}
	}
	if lines[0].Simulate == nil || lines[0].Simulate.Stats.Committed == 0 {
		t.Fatal("simulate job returned no stats")
	}
	if lines[1].Annotate == nil || lines[1].Annotate.Inserted == 0 {
		t.Fatal("annotate job inserted nothing")
	}
	if lines[2].CtxSwitch == nil || lines[2].CtxSwitch.Result.Samples == 0 {
		t.Fatal("ctxswitch job produced no samples")
	}
	if lines[3].Error == "" || !strings.Contains(lines[3].Error, "asm line 1") {
		t.Fatalf("bad-asm job error = %q, want a parse failure", lines[3].Error)
	}
	if lines[3].Simulate != nil {
		t.Fatal("failed job carries a payload")
	}
	if lines[4].Error != "" {
		t.Fatalf("job after the failure did not run: %s", lines[4].Error)
	}
}

// TestJobsAnnotateStreamsBeforeSlowSimulate pins the streaming contract
// for annotate jobs: a leading annotate line must arrive as soon as it
// is ready, not ride on a later simulation's completion. The simulate
// job's build is gated, so if annotate delivery waited for it, the first
// read would block until the watchdog fires.
func TestJobsAnnotateStreamsBeforeSlowSimulate(t *testing.T) {
	gate := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	svc := service.New(service.Config{
		Compile: func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
			if s.Name == "go" {
				<-gate
			}
			return workload.CompileSpec(s, scale, opt)
		},
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	res, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(
		`{"jobs":[{"kind":"annotate","annotate":{"workload":"li"}},
		          {"kind":"simulate","simulate":{"workload":"go","max_insts":20000}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()

	type read struct {
		line string
		err  error
	}
	br := bufio.NewReader(res.Body)
	readLine := func() read {
		ch := make(chan read, 1)
		go func() {
			s, err := br.ReadString('\n')
			ch <- read{s, err}
		}()
		select {
		case r := <-ch:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for a stream line")
			return read{}
		}
	}

	first := readLine() // with the simulate build still gated
	if first.err != nil {
		t.Fatalf("first line: %v", first.err)
	}
	if !strings.Contains(first.line, `"index":0,"kind":"annotate"`) || !strings.Contains(first.line, `"inserted":`) {
		t.Fatalf("first streamed line is not the annotate result: %s", first.line)
	}

	released = true
	close(gate)
	second := readLine()
	if second.err != nil {
		t.Fatalf("second line: %v", second.err)
	}
	if !strings.Contains(second.line, `"index":1,"kind":"simulate"`) {
		t.Fatalf("second streamed line: %s", second.line)
	}
}

// TestJobsPanicStaysOnItsLine pins panic containment over the wire: a
// compile function that panics fails only its own /v2 line with the
// recovered panic, the daemon keeps serving, and the panic is counted.
func TestJobsPanicStaysOnItsLine(t *testing.T) {
	svc := service.New(service.Config{
		Compile: func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
			if s.Name == "go" {
				panic("compiler bug")
			}
			return workload.CompileSpec(s, scale, opt)
		},
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v2/jobs", `{"jobs":[
		{"kind":"simulate","simulate":{"workload":"go","max_insts":20000}},
		{"kind":"annotate","annotate":{"workload":"go"}},
		{"kind":"simulate","simulate":{"workload":"li","max_insts":20000}}]}`)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), body)
	}
	for i, want := range []string{
		`"index":0,"kind":"simulate","error":"simulate go/x1/edvi: panic: compiler bug"`,
		`"index":1,"kind":"annotate","error":"annotate go/x1/plain: panic: compiler bug"`,
		`"index":2,"kind":"simulate","simulate":{`,
	} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %s\nwant it to contain %s", i, lines[i], want)
		}
	}

	// The next request answers, and both panics were counted.
	code, body = postJSON(t, ts.URL+"/v1/simulate", `{"workload":"li","max_insts":20000}`)
	if code != http.StatusOK {
		t.Fatalf("request after the panic: HTTP %d: %s", code, body)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "dvid_job_panics_total 2\n") {
		t.Errorf("metrics do not count 2 panics:\n%s", metrics)
	}
}

// TestJobsStreamingHeaders checks the NDJSON content type.
func TestJobsStreamingHeaders(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	res, err := http.Post(ts.URL+"/v2/jobs", "application/json",
		strings.NewReader(`{"jobs":[{"kind":"annotate","annotate":{"workload":"li"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
}

// TestJobsValidation covers the batch-level 4xx surface: the whole batch
// is validated before any byte streams, so an invalid job rejects it.
func TestJobsValidation(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{MaxJobs: 2}))
	defer ts.Close()

	cases := []struct {
		name, body, wantFrag string
	}{
		{"empty batch", `{"jobs":[]}`, "at least one job"},
		{"unknown kind", `{"jobs":[{"kind":"turbo","simulate":{"workload":"li"}}]}`, "unknown job kind"},
		{"missing payload", `{"jobs":[{"kind":"simulate"}]}`, "exactly one of"},
		{"mismatched payload", `{"jobs":[{"kind":"simulate","annotate":{"workload":"li"}}]}`, "needs a simulate payload"},
		{"two payloads", `{"jobs":[{"kind":"simulate","simulate":{"workload":"li"},"annotate":{"workload":"li"}}]}`, "exactly one of"},
		{"bad inner request", `{"jobs":[{"kind":"simulate","simulate":{"workload":"spice"}}]}`, "jobs[0]: unknown workload"},
		{"over batch limit", `{"jobs":[{"kind":"annotate","annotate":{"workload":"li"}},{"kind":"annotate","annotate":{"workload":"li"}},{"kind":"annotate","annotate":{"workload":"li"}}]}`, "exceeds the 2-job limit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+"/v2/jobs", c.body)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d (%s), want 400", code, body)
			}
			if !strings.Contains(string(body), c.wantFrag) {
				t.Fatalf("error body %s missing %q", body, c.wantFrag)
			}
		})
	}
}
