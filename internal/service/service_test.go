package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dvi"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/service"
	"dvi/internal/workload"
)

// postJSON sends body to url and returns the status code and raw body.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return res.StatusCode, b
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentSimulateCoalesceAndDrain is the load test from the PR's
// acceptance criteria: 64 concurrent /v1/simulate requests for the same
// (workload, scale, config) must trigger exactly one compile, answer
// byte-identically to a direct dvi.Simulate call, and a graceful
// shutdown must drain in-flight requests without error.
func TestConcurrentSimulateCoalesceAndDrain(t *testing.T) {
	gate := make(chan struct{})
	released := false
	svc := service.New(service.Config{
		Workers:       4,
		MaxConcurrent: 128,
		MaxQueue:      256,
		Compile: func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
			// Phase 2 uses "go" as a gated build so the drain below can
			// hold requests in flight deterministically.
			if s.Name == "go" {
				<-gate
			}
			return workload.CompileSpec(s, scale, opt)
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: svc}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Phase 1: 64 identical concurrent requests.
	const n = 64
	const budget = 50_000
	reqBody := fmt.Sprintf(`{"workload":"compress","max_insts":%d}`, budget)
	codes := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = postJSON(t, base+"/v1/simulate", reqBody)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: HTTP %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d response differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	hits, misses := svc.Engine().Cache().Stats()
	if misses != 1 {
		t.Fatalf("got %d compiles for %d identical requests, want exactly 1", misses, n)
	}
	if hits != n-1 {
		t.Fatalf("got %d cache hits, want %d", hits, n-1)
	}

	// The wire bytes must match a direct library call exactly.
	w, _ := dvi.WorkloadByName("compress")
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = budget
	direct, err := dvi.Simulate(w, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	expected := service.SimulateResponse{
		Workload: "compress",
		Scale:    1,
		BuildKey: w.Key(1, workload.BuildOptions{EDVI: true}).String(),
		MaxInsts: budget,
		IPC:      direct.IPC(),
		Stats:    direct,
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(expected); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bodies[0], want.Bytes()) {
		t.Fatalf("service response differs from direct dvi.Simulate:\nservice: %s\ndirect:  %s", bodies[0], want.Bytes())
	}

	// Phase 2: graceful shutdown drains in-flight requests. Eight
	// requests block on the gated "go" build (one compiling, seven
	// waiting on the single-flight entry), shutdown begins, then the
	// gate opens: every request must still complete cleanly.
	const d = 8
	drainCodes := make([]int, d)
	drainBodies := make([][]byte, d)
	var dwg sync.WaitGroup
	for i := 0; i < d; i++ {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			drainCodes[i], drainBodies[i] = postJSON(t, base+"/v1/simulate", `{"workload":"go","max_insts":50000}`)
		}(i)
	}
	waitFor(t, "8 in-flight requests", func() bool { return svc.Inflight() == d })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- hs.Shutdown(ctx)
	}()
	// Give Shutdown time to close the listener, then release the builds.
	waitFor(t, "listener closed", func() bool {
		_, err := net.DialTimeout("tcp", ln.Addr().String(), 10*time.Millisecond)
		return err != nil
	})
	if !released {
		released = true
		close(gate)
	}
	dwg.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	for i := 0; i < d; i++ {
		if drainCodes[i] != http.StatusOK {
			t.Fatalf("drained request %d: HTTP %d: %s", i, drainCodes[i], drainBodies[i])
		}
		if !bytes.Equal(drainBodies[i], drainBodies[0]) {
			t.Fatalf("drained request %d response differs", i)
		}
	}
}

// TestAnnotateWorkloadMatchesLibrary checks the /v1/annotate wire format
// against the library pipeline: same build, same rewriter, same text.
func TestAnnotateWorkloadMatchesLibrary(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	resp, err := cl.Annotate(context.Background(), service.AnnotateRequest{Workload: "li"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Inserted == 0 {
		t.Fatal("no kills inserted into li")
	}

	spec, _ := workload.ByName("li")
	pr, _, err := workload.CompileSpec(spec, 1, workload.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := rewrite.InsertKills(pr, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != resp.Inserted {
		t.Fatalf("service inserted %d kills, library %d", resp.Inserted, n)
	}
	if want := prog.FormatAsm(pr); resp.Asm != want {
		t.Fatal("service annotation text differs from library rewrite")
	}

	sum := 0
	for _, pk := range resp.PerProc {
		sum += pk.Kills
	}
	if sum != resp.Inserted {
		t.Fatalf("per-proc kills sum %d != inserted %d", sum, resp.Inserted)
	}
	if _, err := prog.ParseAsm(resp.Asm); err != nil {
		t.Fatalf("annotated asm does not reparse: %v", err)
	}
}

// TestAnnotateAsmInput drives the raw-assembly path end to end.
func TestAnnotateAsmInput(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	src := `.entry main
.proc main
  addi sp, sp, -16
  lvst s0, 0(sp)
  addi s0, zero, 7
  jal helper
  lvld s0, 0(sp)
  addi sp, sp, 16
  ret

.proc helper
  addi sp, sp, -16
  lvst s0, 0(sp)
  addi s0, zero, 1
  lvld s0, 0(sp)
  addi sp, sp, 16
  ret
`
	resp, err := cl.Annotate(context.Background(), service.AnnotateRequest{Asm: src})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Inserted == 0 || !strings.Contains(resp.Asm, "kill") {
		t.Fatalf("expected kill annotations, got %d inserted:\n%s", resp.Inserted, resp.Asm)
	}

	bad := service.AnnotateRequest{Asm: ".proc main\n  frob t0\n"}
	if _, err := cl.Annotate(context.Background(), bad); err == nil {
		t.Fatal("bad assembly accepted")
	} else if se := new(service.Error); !asService(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 service error, got %v", err)
	}
}

// asService unwraps err into *service.Error.
func asService(err error, target **service.Error) bool {
	se, ok := err.(*service.Error)
	if ok {
		*target = se
	}
	return ok
}

// TestSimulateAsmSourceCoalesces submits the same assembly twice and
// checks the second run is served from the build cache.
func TestSimulateAsmSourceCoalesces(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	src := `.entry main
.proc main
  addi t0, zero, 50
loop:
  addi t0, t0, -1
  bne t0, zero, loop
  sys zero, t0
  ret
`
	req := service.SimulateRequest{Asm: src, MaxInsts: 10_000}
	r1, err := cl.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Committed == 0 {
		t.Fatal("no instructions committed")
	}
	if !strings.HasPrefix(r1.BuildKey, "asm:") {
		t.Fatalf("asm build key %q", r1.BuildKey)
	}
	r2, err := cl.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatal("identical asm requests returned different stats")
	}
	_, misses := svc.Engine().Cache().Stats()
	if misses != 1 {
		t.Fatalf("%d compiles for two identical asm requests, want 1", misses)
	}
}

// TestBackpressure429 fills the single execution slot and the one-deep
// queue, then checks the next arrival bounces with 429 immediately.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	svc := service.New(service.Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		Compile: func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
			<-gate
			return workload.CompileSpec(s, scale, opt)
		},
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 2)
	post := func(body string) {
		code, b := postJSON(t, ts.URL+"/v1/simulate", body)
		results <- result{code, b}
	}

	go post(`{"workload":"compress","max_insts":20000}`)
	waitFor(t, "first request executing", func() bool { return svc.Inflight() == 1 })
	go post(`{"workload":"li","max_insts":20000}`)
	waitFor(t, "second request queued", func() bool { return svc.QueueDepth() == 1 })

	code, body := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"perl","max_insts":20000}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload request: HTTP %d (%s), want 429", code, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("429 body: %s", body)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("queued request: HTTP %d: %s", r.code, r.body)
		}
	}
}

// TestCtxSwitchEndpoint checks the §6 sampling endpoint through the
// typed client.
func TestCtxSwitchEndpoint(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	resp, err := cl.CtxSwitch(context.Background(), service.CtxSwitchRequest{
		Workload: "li", Interval: 97, MaxInsts: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Samples == 0 {
		t.Fatal("no preemption samples")
	}
	if resp.Result.Reduction <= 0 || resp.Result.Reduction > 1 {
		t.Fatalf("reduction %.3f out of range", resp.Result.Reduction)
	}
	if resp.SaveSet != 31 {
		t.Fatalf("save set %d, want 31", resp.SaveSet)
	}
}

// TestWorkloadsHealthMetrics smoke-tests the read-only endpoints.
func TestWorkloadsHealthMetrics(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)
	ctx := context.Background()

	ws, err := cl.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 7 {
		t.Fatalf("got %d workloads, want 7", len(ws))
	}

	// Two identical simulations: the first builds a fresh machine (cold
	// pool), the second must run on the same instance via Reset — the
	// pool-effectiveness counters on /metrics expose exactly that.
	if _, err := cl.Simulate(ctx, service.SimulateRequest{Workload: "compress", MaxInsts: 20_000}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Simulate(ctx, service.SimulateRequest{Workload: "compress", MaxInsts: 20_000}); err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.CacheMisses != 1 {
		t.Fatalf("health %+v", h)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	for _, want := range []string{
		`dvid_requests_total{endpoint="simulate",code="200"} 2`,
		`dvid_request_duration_seconds_count{endpoint="simulate"} 2`,
		"dvid_build_cache_misses_total 1",
		"dvid_queue_capacity",
		"dvid_emulator_pool_fresh_total 0",
		"dvid_emulator_pool_reuse_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// Two timing jobs ran: normally 1 fresh + 1 reuse, but a GC cycle
	// between the calls may drain the sync.Pool (2 fresh). Assert the
	// invariant parts: every job is accounted for, and the first was
	// necessarily a fresh build.
	fresh := metricValue(t, string(body), "dvid_machine_pool_fresh_total")
	reuse := metricValue(t, string(body), "dvid_machine_pool_reuse_total")
	if fresh+reuse != 2 || fresh < 1 {
		t.Fatalf("machine pool counters fresh=%d reuse=%d, want 2 jobs with >=1 fresh", fresh, reuse)
	}
}

// metricValue extracts an un-labelled counter's value from a Prometheus
// text exposition.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestRequestValidation covers the 4xx surface.
func TestRequestValidation(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
		msg              string // must appear in the error message
	}{
		{"unknown workload", "/v1/simulate", `{"workload":"spice"}`, 400, ""},
		{"both sources", "/v1/simulate", `{"workload":"li","asm":".proc main\n"}`, 400, ""},
		{"no source", "/v1/simulate", `{}`, 400, ""},
		{"unknown field", "/v1/simulate", `{"workload":"li","turbo":true}`, 400, ""},
		{"bad level", "/v1/simulate", `{"workload":"li","dvi_level":"max"}`, 400, ""},
		{"bad scheme", "/v1/simulate", `{"workload":"li","scheme":"magic"}`, 400, ""},
		{"bad policy", "/v1/annotate", `{"workload":"li","policy":"never"}`, 400, ""},
		{"bad json", "/v1/ctxswitch", `{`, 400, ""},
		{"negative contexts", "/v1/simulate", `{"workload":"li","contexts":-1}`, 400, ""},
		{"contexts over limit", "/v1/simulate", `{"workload":"li","contexts":9}`, 400, ""},
		{"bad fetch policy", "/v1/simulate", `{"workload":"li","contexts":2,"fetch_policy":"priority"}`, 400, ""},
		{"contexts regfile too small", "/v1/simulate", `{"workload":"li","contexts":4}`, 400, ""},
		{"contexts with sampling", "/v1/simulate", `{"workload":"li","contexts":2,"sampling":{}}`, 400, ""},
		// A negative machine field must fail in the prepare step, before
		// a simulator sizes a structure or a latency from it.
		{"negative window_size", "/v1/simulate", `{"workload":"li","machine":{"window_size":-1}}`, 400, "machine.window_size"},
		{"negative ifq_size", "/v1/simulate", `{"workload":"li","machine":{"ifq_size":-1}}`, 400, "machine.ifq_size"},
		{"negative stack_depth", "/v1/simulate", `{"workload":"li","machine":{"stack_depth":-1}}`, 400, "machine.stack_depth"},
		{"negative issue_width", "/v1/simulate", `{"workload":"li","machine":{"issue_width":-4}}`, 400, "machine.issue_width"},
		{"negative mul_latency", "/v1/simulate", `{"workload":"li","machine":{"mul_latency":-3}}`, 400, "machine.mul_latency"},
		// Validate's range for the LVM-Stack: a depth the tracker cannot
		// hold used to panic a runner worker.
		{"stack_depth over range", "/v1/simulate", `{"workload":"li","machine":{"stack_depth":65}}`, 400, "stack depth 65 outside [0, 64]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := postJSON(t, ts.URL+c.path, c.body)
			if code != c.want {
				t.Fatalf("HTTP %d (%s), want %d", code, body, c.want)
			}
			var e service.Error
			if err := json.Unmarshal(body, &e); err != nil || e.Message == "" {
				t.Fatalf("error body not standard JSON: %s", body)
			}
			if !strings.Contains(e.Message, c.msg) {
				t.Fatalf("error %q does not name %q", e.Message, c.msg)
			}
		})
	}

	res, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET simulate: HTTP %d, want 405", res.StatusCode)
	}
}

// TestSimulateMultiContext runs a 2-context machine over the wire and
// pins the per-context response shape: ctx_stats carries one entry per
// hardware context, both make progress, and additive counts sum to the
// aggregate. A single-context run must omit the field.
func TestSimulateMultiContext(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"workload":"li","max_insts":30000,"contexts":2,"fetch_policy":"icount"}`)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	var resp service.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.CtxStats) != 2 {
		t.Fatalf("ctx_stats has %d entries, want 2", len(resp.CtxStats))
	}
	var committed, elim uint64
	for i, c := range resp.CtxStats {
		if c.Committed == 0 {
			t.Errorf("context %d committed nothing", i)
		}
		committed += c.Committed
		elim += c.ElimSaves + c.ElimRests
	}
	if committed != resp.Stats.Committed {
		t.Errorf("per-context committed sums to %d, aggregate %d", committed, resp.Stats.Committed)
	}
	if elim != resp.Stats.ElimSaves+resp.Stats.ElimRests {
		t.Errorf("per-context eliminations sum to %d, aggregate %d",
			elim, resp.Stats.ElimSaves+resp.Stats.ElimRests)
	}

	code, body = postJSON(t, ts.URL+"/v1/simulate", `{"workload":"li","max_insts":30000}`)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	if strings.Contains(string(body), `"ctx_stats"`) {
		t.Error("single-context response carries ctx_stats")
	}
}

// TestRequestBodyLimit413 checks that over-limit bodies answer 413 — the
// body is read and bounded before an execution slot is taken, so clients
// can tell "shrink and retry" apart from "malformed, don't retry".
func TestRequestBodyLimit413(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{MaxRequestBytes: 128}))
	defer ts.Close()

	big := `{"asm":"` + strings.Repeat("x", 256) + `"}`
	code, body := postJSON(t, ts.URL+"/v1/simulate", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: HTTP %d (%s), want 413", code, body)
	}
}

// TestClientErrorCarriesMethodAndPath pins the satellite fix: a non-2xx
// response decoded by the typed client identifies which endpoint failed,
// so e.g. a 429 from /v1/simulate and one from /v1/annotate are
// distinguishable in logs.
func TestClientErrorCarriesMethodAndPath(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	cl := service.NewClient(ts.URL, nil)

	_, err := cl.Simulate(context.Background(), service.SimulateRequest{Workload: "no-such-workload"})
	se := new(service.Error)
	if !asService(err, &se) {
		t.Fatalf("want *service.Error, got %v", err)
	}
	if se.Method != http.MethodPost || se.Path != "/v1/simulate" {
		t.Fatalf("error carries %q %q, want POST /v1/simulate", se.Method, se.Path)
	}
	if se.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", se.StatusCode)
	}
	if msg := se.Error(); !strings.Contains(msg, "POST /v1/simulate") {
		t.Fatalf("Error() = %q, want the method and path in it", msg)
	}

	_, err = cl.Annotate(context.Background(), service.AnnotateRequest{Workload: "no-such-workload"})
	if !asService(err, &se) {
		t.Fatalf("want *service.Error, got %v", err)
	}
	if se.Method != http.MethodPost || se.Path != "/v1/annotate" {
		t.Fatalf("error carries %q %q, want POST /v1/annotate", se.Method, se.Path)
	}
}
