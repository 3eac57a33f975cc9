package service_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"dvi/internal/obs"
	"dvi/internal/service"
)

// TestSimulateSamplingEndpoint covers the /v1/simulate sampling surface:
// a request with a sampling block answers with an estimate whose summary
// reports the plan and error bound, whose cycle estimate brackets the
// exact run within its confidence interval, and whose architectural
// counts are exact. The checkpoint pool counters must show up on
// /metrics, with reuse after the pool has warmed.
func TestSimulateSamplingEndpoint(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	const base = `"workload":"go","max_insts":120000`
	code, body := postJSON(t, ts.URL+"/v1/simulate", `{`+base+`}`)
	if code != http.StatusOK {
		t.Fatalf("exact simulate: HTTP %d: %s", code, body)
	}
	var exact service.SimulateResponse
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Sampled != nil {
		t.Fatalf("exact response carries a sampled summary: %+v", exact.Sampled)
	}

	code, body = postJSON(t, ts.URL+"/v1/simulate",
		`{`+base+`,"sampling":{"interval":4000,"warmup":1000}}`)
	if code != http.StatusOK {
		t.Fatalf("sampled simulate: HTTP %d: %s", code, body)
	}
	var samp service.SimulateResponse
	if err := json.Unmarshal(body, &samp); err != nil {
		t.Fatal(err)
	}
	sum := samp.Sampled
	if sum == nil {
		t.Fatal("sampled response missing the sampled summary")
	}
	if sum.Interval != 4000 || sum.Warmup != 1000 {
		t.Fatalf("summary plan %+v does not echo the request", sum)
	}
	if sum.Measured <= 0 || sum.Measured > sum.Intervals {
		t.Fatalf("measured %d of %d intervals is not a sane plan", sum.Measured, sum.Intervals)
	}
	if sum.DetailedInsts >= sum.TotalInsts {
		t.Fatalf("sampling simulated %d of %d instructions in detail — no savings",
			sum.DetailedInsts, sum.TotalInsts)
	}
	if sum.RelCI <= 0 || sum.Confidence != 0.95 {
		t.Fatalf("summary error bound rel=%v conf=%v", sum.RelCI, sum.Confidence)
	}
	// The estimate must bracket the exact run within its reported CI
	// (CIHalfWidth is absolute on IPC).
	if diff := math.Abs(samp.IPC - exact.IPC); diff > sum.CIHalfWidth {
		t.Fatalf("estimated IPC %.4f vs exact %.4f: off by %.4f, CI half-width %.4f",
			samp.IPC, exact.IPC, diff, sum.CIHalfWidth)
	}
	// Architectural counts come from the exact functional pass. The exact
	// detailed run may overshoot the instruction budget by up to
	// IssueWidth-1 commits in its final cycle, so allow that much slack.
	const boundarySlack = 3 // DefaultConfig().IssueWidth - 1
	if d := absDiff(samp.Stats.Committed, exact.Stats.Committed); d > boundarySlack {
		t.Fatalf("committed drifted: sampled %d exact %d",
			samp.Stats.Committed, exact.Stats.Committed)
	}
	if d := absDiff(samp.Stats.ElimSaves, exact.Stats.ElimSaves); d > boundarySlack {
		t.Fatalf("elim saves drifted: sampled %d exact %d",
			samp.Stats.ElimSaves, exact.Stats.ElimSaves)
	}

	// Checkpoint pool counters are exposed; a second sampled request runs
	// against a warm pool and must reuse recycled checkpoints.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m1 := readAll(t, res)
	if metricValue(t, m1, "dvid_checkpoint_pool_fresh_total") <= 0 {
		t.Fatalf("no fresh checkpoints after a sampled run:\n%s", m1)
	}
	if code, body := postJSON(t, ts.URL+"/v1/simulate",
		`{`+base+`,"sampling":{"interval":4000,"warmup":1000}}`); code != http.StatusOK {
		t.Fatalf("second sampled simulate: HTTP %d: %s", code, body)
	}
	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m2 := readAll(t, res)
	if metricValue(t, m2, "dvid_checkpoint_pool_reuse_total") <= 0 {
		t.Fatalf("second sampled run reused no checkpoints:\n%s", m2)
	}
}

// TestSamplingPlanBoundedAtTheDoor pins the sampled-plan bound: a
// sampling interval that splits the budget into thousands of intervals
// (at interval 10 and 200k instructions the sampler once retained
// about 1.4 GB of checkpoints) is a 400 naming sampling.interval on /v1
// and rejects a /v2 batch, in the prepare step — nothing compiles or
// runs — and the daemon stays healthy.
func TestSamplingPlanBoundedAtTheDoor(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	const poison = `{"workload":"li","max_insts":200000,"sampling":{"interval":10}}`
	code, body := postJSON(t, ts.URL+"/v1/simulate", poison)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "sampling.interval 10") {
		t.Fatalf("/v1: HTTP %d %s, want a 400 naming sampling.interval", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v2/jobs", `{"jobs":[
		{"kind":"annotate","annotate":{"workload":"li"}},
		{"kind":"simulate","simulate":`+poison+`}]}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "jobs[1]: sampling.interval 10") {
		t.Fatalf("/v2: HTTP %d %s, want the batch rejected at jobs[1]", code, body)
	}
	if _, misses := svc.Engine().Cache().Stats(); misses != 0 {
		t.Fatalf("rejected requests compiled %d binaries, want 0", misses)
	}
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("/healthz after the poison request: HTTP %d %s", code, body)
	}
}

// TestJobsBatchWithSampling runs a /v2/jobs batch mixing a sampled
// simulate, an exact simulate and an annotate: lines stream in
// submission order, only the sampled line carries a summary, and both
// simulates agree on exact architectural counts.
func TestJobsBatchWithSampling(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v2/jobs", `{"jobs":[
		{"kind":"simulate","simulate":{"workload":"li","max_insts":100000,"sampling":{"interval":4000,"warmup":1000}}},
		{"kind":"simulate","simulate":{"workload":"li","max_insts":100000}},
		{"kind":"annotate","annotate":{"workload":"li"}}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("/v2/jobs: HTTP %d: %s", code, body)
	}
	var lines []service.JobResult
	for _, raw := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var line service.JobResult
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 3 {
		t.Fatalf("%d result lines, want 3", len(lines))
	}
	for i, line := range lines {
		if line.Index != i || line.Error != "" {
			t.Fatalf("line %d: %+v", i, line)
		}
	}
	sampled, exact := lines[0].Simulate, lines[1].Simulate
	if sampled == nil || sampled.Sampled == nil {
		t.Fatalf("sampled job missing its summary: %+v", lines[0])
	}
	if exact == nil || exact.Sampled != nil {
		t.Fatalf("exact job carries a sampled summary: %+v", lines[1])
	}
	if lines[2].Annotate == nil || lines[2].Annotate.Inserted == 0 {
		t.Fatalf("annotate job did not run: %+v", lines[2])
	}
	if d := absDiff(sampled.Stats.Committed, exact.Stats.Committed); d > 3 {
		t.Fatalf("committed drifted: sampled %d exact %d",
			sampled.Stats.Committed, exact.Stats.Committed)
	}
	if diff := math.Abs(sampled.IPC - exact.IPC); diff > sampled.Sampled.CIHalfWidth {
		t.Fatalf("estimated IPC off by %.4f, CI half-width %.4f",
			diff, sampled.Sampled.CIHalfWidth)
	}
}

// TestJobsManySampledMeasureOneAtATime sends a /v2/jobs batch of
// several sampled simulates beside an exact one to a 4-worker daemon.
// The request's span tree must show the sampled jobs measuring one at a
// time — no two sample spans' scans, interval jobs and aggregates
// overlap — and each sampled line must carry the bytes /v1 answers for
// the same request alone.
func TestJobsManySampledMeasureOneAtATime(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{Workers: 4}))
	defer ts.Close()

	var reqs []string
	jobs := []string{`{"kind":"simulate","simulate":{"workload":"li","max_insts":60000}}`}
	for _, w := range []string{"compress", "li", "go", "perl", "compress"} {
		r := `{"workload":"` + w + `","max_insts":60000,"sampling":{"interval":4000,"warmup":1000}}`
		reqs = append(reqs, r)
		jobs = append(jobs, `{"kind":"simulate","simulate":`+r+`}`)
	}
	code, body := postJSON(t, ts.URL+"/v2/jobs", `{"jobs":[`+strings.Join(jobs, ",")+`]}`)
	if code != http.StatusOK {
		t.Fatalf("/v2/jobs: HTTP %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != len(jobs) {
		t.Fatalf("%d result lines, want %d", len(lines), len(jobs))
	}

	code, trace := getBody(t, ts.URL+"/debug/trace/recent")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d: %s", code, trace)
	}
	var recent service.TraceRecent
	if err := json.Unmarshal(trace, &recent); err != nil || len(recent.Traces) == 0 {
		t.Fatalf("no recorded trace (%v)", err)
	}
	type window struct{ lo, hi time.Time }
	var windows []window
	var walk func(s *obs.SpanSnapshot)
	walk = func(s *obs.SpanSnapshot) {
		if s.Name != "sample" {
			for _, c := range s.Children {
				walk(c)
			}
			return
		}
		var w window
		for _, c := range s.Children {
			if c.Name == "build" || c.Name == "sample-wait" {
				continue
			}
			end := c.Start.Add(time.Duration(c.DurationMS * float64(time.Millisecond)))
			if w.lo.IsZero() || c.Start.Before(w.lo) {
				w.lo = c.Start
			}
			if end.After(w.hi) {
				w.hi = end
			}
		}
		windows = append(windows, w)
	}
	walk(recent.Traces[0]) // newest first
	if len(windows) != len(reqs) {
		t.Fatalf("%d sample spans, want %d", len(windows), len(reqs))
	}
	slices.SortFunc(windows, func(a, b window) int { return a.lo.Compare(b.lo) })
	for i := 1; i < len(windows); i++ {
		if windows[i].lo.Before(windows[i-1].hi) {
			t.Errorf("two sampled jobs measured at once (sample spans from %s and %s)",
				windows[i-1].lo.Format(time.StampMicro), windows[i].lo.Format(time.StampMicro))
		}
	}

	for i, r := range reqs {
		var line struct {
			Simulate json.RawMessage `json:"simulate"`
			Error    string          `json:"error"`
		}
		if err := json.Unmarshal([]byte(lines[i+1]), &line); err != nil || line.Error != "" {
			t.Fatalf("line %d: %v %s", i+1, err, lines[i+1])
		}
		code, alone := postJSON(t, ts.URL+"/v1/simulate", r)
		if code != http.StatusOK {
			t.Fatalf("/v1/simulate %s: HTTP %d: %s", r, code, alone)
		}
		if got, want := string(line.Simulate), strings.TrimSpace(string(alone)); got != want {
			t.Errorf("line %d differs from /v1 alone:\n got %s\nwant %s", i+1, got, want)
		}
	}
}

// absDiff is |a-b| for unsigned counters.
func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// readAll drains an HTTP response body as a string.
func readAll(t *testing.T, res *http.Response) string {
	t.Helper()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
