package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dvi/internal/obs"
	"dvi/internal/prog"
	"dvi/internal/service"
	"dvi/internal/workload"
)

// getBody GETs url and returns the status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, b
}

// TestRejected429ExcludedFromLatency is the regression test for the
// admission-metrics fix: a 429 must appear in dvid_requests_total and
// the new dvid_admission_rejected_total, but NOT in the request latency
// histogram — near-instant rejections under overload used to drag the
// histogram toward zero exactly when its tail mattered.
func TestRejected429ExcludedFromLatency(t *testing.T) {
	gate := make(chan struct{})
	svc := service.New(service.Config{
		MaxConcurrent: 1,
		MaxQueue:      -1, // no queue: reject whenever the slot is busy
		Compile: func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
			<-gate
			return workload.CompileSpec(s, scale, opt)
		},
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		code, body := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"compress","max_insts":20000}`)
		if code != http.StatusOK {
			t.Errorf("gated request: HTTP %d: %s", code, body)
		}
	}()
	waitFor(t, "first request executing", func() bool { return svc.Inflight() == 1 })

	for i := 0; i < 3; i++ {
		code, _ := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"li","max_insts":20000}`)
		if code != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: HTTP %d, want 429", i, code)
		}
	}
	close(gate)
	<-done

	_, body := getBody(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		`dvid_requests_total{endpoint="simulate",code="200"} 1`,
		`dvid_requests_total{endpoint="simulate",code="429"} 3`,
		`dvid_admission_rejected_total{endpoint="simulate"} 3`,
		// The latency histogram saw only the admitted request.
		`dvid_request_duration_seconds_count{endpoint="simulate"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics:\n%s", text)
	}
}

// TestSimulateTraceOverTheWire covers the bounded trace option on
// /v1/simulate: both formats round-trip, the record budget clamps, and
// the invalid combinations answer 400.
func TestSimulateTraceOverTheWire(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)
	ctx := context.Background()

	resp, err := cl.Simulate(ctx, service.SimulateRequest{
		Workload: "compress", MaxInsts: 20_000,
		Trace: &service.TraceSpec{Format: "chrome"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatal("no trace in response")
	}
	if tr.Format != "chrome" || len(tr.Events) == 0 || tr.Records == 0 {
		t.Fatalf("chrome trace: %+v", tr)
	}
	for _, ev := range tr.Events {
		if ev.Ph != "X" || ev.Dur == 0 {
			t.Fatalf("bad event %+v", ev)
		}
	}

	// The konata format returns the log as one blob, and a tiny
	// max_records must clamp the buffer and report drops.
	resp, err = cl.Simulate(ctx, service.SimulateRequest{
		Workload: "compress", MaxInsts: 20_000,
		Trace: &service.TraceSpec{Format: "konata", MaxRecords: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr = resp.Trace
	if tr == nil || !strings.HasPrefix(tr.Konata, "Kanata\t0004\n") {
		t.Fatalf("konata trace: %+v", tr)
	}
	if tr.Records != 10 || tr.Dropped == 0 {
		t.Fatalf("10-record budget: records=%d dropped=%d", tr.Records, tr.Dropped)
	}

	// Stats must be identical with and without tracing — the tracer
	// observes the pipeline, it must not perturb it.
	plain, err := cl.Simulate(ctx, service.SimulateRequest{Workload: "compress", MaxInsts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != resp.Stats || plain.IPC != resp.IPC {
		t.Fatalf("tracing changed the run: %+v vs %+v", plain.Stats, resp.Stats)
	}

	code, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"workload":"compress","max_insts":20000,"trace":{"format":"svg"}}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "unknown trace format") {
		t.Fatalf("bad format: HTTP %d: %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/simulate",
		`{"workload":"compress","max_insts":20000,"trace":{},"sampling":{}}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "mutually exclusive") {
		t.Fatalf("trace+sampling: HTTP %d: %s", code, body)
	}
}

// TestDebugTraceRecentSpanTree is the acceptance check for the
// orchestration plane: a sampled /v1/simulate request must leave a
// complete span tree — queue-wait, execute, sample with build/scan/
// interval jobs/aggregate, render — on /debug/trace/recent.
func TestDebugTraceRecentSpanTree(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	if _, err := cl.Simulate(context.Background(), service.SimulateRequest{
		Workload: "compress", MaxInsts: 60_000,
		Sampling: &service.SamplingSpec{Interval: 2_000},
	}); err != nil {
		t.Fatal(err)
	}

	code, body := getBody(t, ts.URL+"/debug/trace/recent")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	var recent service.TraceRecent
	if err := json.Unmarshal(body, &recent); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(recent.Traces) == 0 {
		t.Fatal("no recorded traces")
	}
	root := recent.Traces[0] // newest first
	if root.Name != "simulate" {
		t.Fatalf("root span %q, want simulate", root.Name)
	}
	if root.Attrs["request_id"] == nil {
		t.Errorf("root span missing request_id attr: %v", root.Attrs)
	}

	// Collect all span names in the tree.
	counts := map[string]int{}
	var walk func(s *obs.SpanSnapshot)
	walk = func(s *obs.SpanSnapshot) {
		counts[s.Name]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	for _, phase := range []string{"queue-wait", "execute", "sample", "build", "scan", "job", "aggregate", "render"} {
		if counts[phase] == 0 {
			t.Errorf("span tree missing phase %q (have %v)", phase, counts)
		}
	}
	// Interval jobs fan out: more than one engine job span.
	if counts["job"] < 2 {
		t.Errorf("expected multiple interval job spans, got %d", counts["job"])
	}

	// The per-phase histograms fold the same tree.
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`dvid_phase_duration_seconds_count{phase="sample"} 1`,
		`dvid_phase_duration_seconds_count{phase="queue-wait"} 1`,
		`dvid_sampled_runs_total 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPprofAndRequestID smoke-tests the profiling surface and the
// request-ID contract: the index must serve, and X-Request-Id must be
// honoured when supplied and generated when absent.
func TestPprofAndRequestID(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	code, body := getBody(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: HTTP %d", code)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/simulate",
		strings.NewReader(`{"workload":"compress","max_insts":20000}`))
	req.Header.Set("X-Request-Id", "client-chosen-7")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if got := res.Header.Get("X-Request-Id"); got != "client-chosen-7" {
		t.Fatalf("inbound request id not echoed: %q", got)
	}

	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if got := res.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "dvid-") {
		t.Fatalf("generated request id = %q, want dvid-* prefix", got)
	}
}

// metricSeriesRe splits a Prometheus sample line into its series part
// (name plus label set) and its value.
var metricSeriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?) (.+)$`)

// TestMetricsGoldenShape pins the /metrics output shape: the exact set
// of series (names + label sets) after one exact and one sampled
// simulate, with values masked. Adding a metric means updating this
// list — that is the point: the exposition is an interface.
func TestMetricsGoldenShape(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)
	ctx := context.Background()

	if _, err := cl.Simulate(ctx, service.SimulateRequest{Workload: "compress", MaxInsts: 20_000}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Simulate(ctx, service.SimulateRequest{
		Workload: "compress", MaxInsts: 60_000,
		Sampling: &service.SamplingSpec{Interval: 2_000},
	}); err != nil {
		t.Fatal(err)
	}

	_, body := getBody(t, ts.URL+"/metrics")
	seen := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := metricSeriesRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable metrics line %q", line)
		}
		seen[m[1]] = true
	}
	var got []string
	for s := range seen {
		got = append(got, s)
	}
	sort.Strings(got)

	histogram := func(name, labels string) []string {
		var out []string
		for _, le := range []string{"0.001", "0.0025", "0.005", "0.01", "0.025", "0.05",
			"0.1", "0.25", "0.5", "1", "2.5", "5", "10", "+Inf"} {
			out = append(out, name+`_bucket{`+labels+`,le="`+le+`"}`)
		}
		return append(out,
			name+`_sum{`+labels+`}`,
			name+`_count{`+labels+`}`)
	}
	var want []string
	want = append(want,
		`dvid_requests_total{endpoint="simulate",code="200"}`,
		"dvid_uptime_seconds", "dvid_inflight_requests",
		"dvid_queue_depth", "dvid_queue_capacity",
		"dvid_build_cache_hits_total", "dvid_build_cache_misses_total",
		"dvid_build_cache_evictions_total", "dvid_build_cache_entries",
		"dvid_build_compiles_total", "dvid_job_panics_total",
		"dvid_machine_pool_reuse_total", "dvid_machine_pool_fresh_total",
		"dvid_emulator_pool_reuse_total", "dvid_emulator_pool_fresh_total",
		"dvid_checkpoint_pool_reuse_total", "dvid_checkpoint_pool_fresh_total",
		"dvid_sim_runs_total", "dvid_sim_cycles_total", "dvid_sim_instructions_total",
		"dvid_sim_mispredicts_total", "dvid_sim_wrong_path_total",
		"dvid_sim_rename_stall_cycles_total", "dvid_sim_window_full_cycles_total",
		"dvid_sim_port_stall_cycles_total",
		"dvid_sim_elim_saves_total", "dvid_sim_elim_restores_total",
		"dvid_sim_kills_total", "dvid_sim_early_reclaims_total", "dvid_sim_faults_total",
		"dvid_sampled_runs_total", "dvid_sampled_rel_ci",
	)
	want = append(want, histogram("dvid_request_duration_seconds", `endpoint="simulate"`)...)
	for _, phase := range []string{"aggregate", "build", "compile", "execute", "interval", "job",
		"queue-wait", "render", "sample", "scan", "timing"} {
		want = append(want, histogram("dvid_phase_duration_seconds", `phase="`+phase+`"`)...)
	}
	sort.Strings(want)

	if len(got) != len(want) {
		t.Errorf("series count: got %d, want %d", len(got), len(want))
	}
	wantSet := map[string]bool{}
	for _, s := range want {
		wantSet[s] = true
	}
	for _, s := range got {
		if !wantSet[s] {
			t.Errorf("unexpected series %s", s)
		}
	}
	for _, s := range want {
		if !seen[s] {
			t.Errorf("missing series %s", s)
		}
	}
}
