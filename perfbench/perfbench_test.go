package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"dvi/internal/obs"
	"dvi/internal/service"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSameSeedSameInputs(t *testing.T) {
	pool := warmPool()
	bases, err := coldBases()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42} {
		for client := -1; client < 2; client++ {
			for batch := 0; batch < 3; batch++ {
				if a, b := mustJSON(t, warmBatch(pool, seed, client, batch)), mustJSON(t, warmBatch(warmPool(), seed, client, batch)); a != b {
					t.Fatalf("seed %d client %d batch %d: warm batches differ", seed, client, batch)
				}
				if a, b := mustJSON(t, coldBatch(bases, seed, client, batch)), mustJSON(t, coldBatch(bases, seed, client, batch)); a != b {
					t.Fatalf("seed %d client %d batch %d: cold batches differ", seed, client, batch)
				}
				if a, b := mustJSON(t, fleetBatch(pool, bases, seed, client, batch)), mustJSON(t, fleetBatch(warmPool(), bases, seed, client, batch)); a != b {
					t.Fatalf("seed %d client %d batch %d: fleet batches differ", seed, client, batch)
				}
			}
		}
	}
	again, err := coldBases()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bases, again) {
		t.Fatal("cold corpus bases differ between calls")
	}
	if mustJSON(t, warmBatch(pool, 1, 0, 0)) == mustJSON(t, warmBatch(pool, 1, 0, 1)) {
		t.Fatal("consecutive warm batches are identical")
	}
}

func TestCycleVisitsEveryChoice(t *testing.T) {
	for _, size := range []int{1, 3, 7, 21} {
		for client := -1; client < 3; client++ {
			seen := map[int]int{}
			for n := 0; n < 2*size; n++ {
				seen[cycle(9, client, n, size)]++
			}
			for i := 0; i < size; i++ {
				if seen[i] != 2 {
					t.Fatalf("size %d client %d: choice %d came up %d times in %d steps", size, client, i, seen[i], 2*size)
				}
			}
		}
	}
}

// coldKeys returns the build-key digests (the service names client
// assembly by its sha256) of every program a seed's fleet can
// send in its first batches, its set-up and its probe.
func coldKeys(t *testing.T, bases []string, seed uint64) map[[32]byte]bool {
	t.Helper()
	keys := map[[32]byte]bool{}
	for client := probeCorpusClient; client < 4; client++ {
		for batch := 0; batch < 4; batch++ {
			for _, jr := range coldBatch(bases, seed, client, batch) {
				k := sha256.Sum256([]byte(jobAsm(jr)))
				if keys[k] {
					t.Fatalf("seed %d client %d batch %d repeats a program", seed, client, batch)
				}
				keys[k] = true
			}
		}
	}
	return keys
}

func TestDifferentSeedsDisjointBuildKeys(t *testing.T) {
	bases, err := coldBases()
	if err != nil {
		t.Fatal(err)
	}
	a, b := coldKeys(t, bases, 1), coldKeys(t, bases, 2)
	for k := range a {
		if b[k] {
			t.Fatal("seeds 1 and 2 share a cold program")
		}
	}
}

func TestColdProgramsBuild(t *testing.T) {
	bases, err := coldBases()
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 1})
	for _, jr := range coldBatch(bases, 3, 0, 0)[:4] {
		if res := srv.ExecuteJob(context.Background(), jr); res.Error != "" {
			t.Fatalf("%s job failed: %s", jr.Kind, res.Error)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || !unitName.MatchString(d.unit) {
			t.Errorf("bad metric %q unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("bad workload name %q", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json's metric and
// workload lists in step with what the program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestResultCarriesEveryMetric checks both output shapes list their
// whole catalogue, and that nothing is NaN.
func TestResultCarriesEveryMetric(t *testing.T) {
	out := newOutcome()
	out.attempted = 3
	for _, trace := range []bool{false, true} {
		r := out.result(trace)
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(r.Metrics) != len(want) || !r.Correct || r.Attempted != 3 {
			t.Fatalf("trace=%v: %+v", trace, r)
		}
		if _, err := json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLadderRunsIdenticalJobs starts a fleet and checks that every rung
// of the ladder returns the same statistics, so the layer differences
// are taken between runs of one job.
func TestLadderRunsIdenticalJobs(t *testing.T) {
	rc := &runConfig{seed: 1, seconds: 1, workers: runtime.NumCPU(), tmp: t.TempDir()}
	f, err := startFleet(rc, rc.tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	rungs, err := ladderRungs(f)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, r := range rungs {
		got, err := r.call(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("%s returned different statistics than %s", r.name, rungs[0].name)
		}
	}
	out := newOutcome()
	if err := ladder(context.Background(), f, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("ladder failures: %v", out.problems)
	}
	for _, n := range []string{"session", "service", "http", "gateway"} {
		if _, ok := out.layer[n+".overhead_us_per_job"]; !ok {
			t.Errorf("ladder reported no %s overhead", n)
		}
	}
}

// TestFleetLinesMatchExecuteJob sends one fleet batch through the
// gateway and verifies it the way a run does.
func TestFleetLinesMatchExecuteJob(t *testing.T) {
	rc := &runConfig{seed: 5, seconds: 1, workers: runtime.NumCPU(), tmp: t.TempDir()}
	f, err := startFleet(rc, rc.tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	c := newClient(f.gatewayURL())
	defer c.close()
	pool := warmPool()
	bases, err := coldBases()
	if err != nil {
		t.Fatal(err)
	}
	gen := func(cl, k int) []service.JobRequest { return fleetBatch(pool, bases, rc.seed, cl, k) }
	out := newOutcome()
	rec, ok := account(out, 0, 0, len(warmSlots)+coldBatchSize, c.run(context.Background(), gen(0, 0)))
	if !ok || out.failed != 0 {
		t.Fatalf("batch failed: %v", out.problems)
	}
	if err := newVerifier(rc.workers).verify(context.Background(), []batchRecord{rec}, gen, 2, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("lines differ from ExecuteJob: %v", out.problems)
	}
	// A corrupted record must be caught.
	rec.lines[3][0] ^= 1
	bad := newOutcome()
	if err := newVerifier(rc.workers).verify(context.Background(), []batchRecord{rec}, gen, 1, bad); err != nil {
		t.Fatal(err)
	}
	if bad.failed != 1 {
		t.Fatalf("corrupted line: %d failures, want 1", bad.failed)
	}
}

// TestCheckServedCatchesLocalFallback serves one cold job with both
// backends down, so the gateway runs it on its local fallback, and
// checks that the run counts that as a failure and counts the
// fallback's compile.
func TestCheckServedCatchesLocalFallback(t *testing.T) {
	rc := &runConfig{seed: 9, seconds: 1, workers: runtime.NumCPU(), tmp: t.TempDir()}
	f, err := startFleet(rc, rc.tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	ctx := context.Background()
	c := newClient(f.gatewayURL())
	defer c.close()
	bases, err := coldBases()
	if err != nil {
		t.Fatal(err)
	}
	batch := coldBatch(bases, rc.seed, 0, 0)

	out := newOutcome()
	runOne(ctx, c, batch[:1], out)
	if err := f.checkServed(ctx, out, "healthy"); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("healthy fleet: %v", out.problems)
	}

	for _, b := range f.backends {
		b.l.stop()
	}
	runOne(ctx, c, batch[1:2], out)
	if err := f.restart(); err != nil { // checkServed scrapes the backends
		t.Fatal(err)
	}
	if err := f.checkServed(ctx, out, "backends down"); err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Fatalf("local fallback: %d failures (%v), want 1", out.failed, out.problems)
	}
	if f.compiles() == 0 {
		t.Fatal("the local fallback's compile is not counted")
	}
}

func TestRepeatCounters(t *testing.T) {
	out := newOutcome()
	out.repeatCounters("a", map[string]uint64{"x": 1})
	out.repeatCounters("b", map[string]uint64{"x": 1, "y": 2})
	out.repeatCounters("c", map[string]uint64{"x": 1, "y": 2})
	if out.failed != 0 {
		t.Fatalf("unexpected failures: %v", out.problems)
	}
	out.repeatCounters("d", map[string]uint64{"x": 2})
	if out.failed != 1 {
		t.Fatalf("changed counter not caught: %d failures", out.failed)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Now()
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	root := &obs.SpanSnapshot{Name: "p", Start: ms(0), DurationMS: 10, Children: []*obs.SpanSnapshot{
		{Name: "a", Start: ms(1), DurationMS: 4},
		{Name: "b", Start: ms(3), DurationMS: 4}, // overlaps a: union 1..7
		{Name: "c", Start: ms(9), DurationMS: 5}, // clipped to 9..10
	}}
	if got := covered(root); got != 7*time.Millisecond {
		t.Fatalf("covered = %v, want 7ms", got)
	}
}
