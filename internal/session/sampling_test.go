package session_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// samplingTestOpts is a small plan sized for test workloads (scale 1 runs
// are a few hundred thousand instructions).
func samplingTestOpts() sample.Options {
	return sample.Options{Interval: 4000, Warmup: 1000, Period: 4}
}

// TestSampledAccuracyAcrossSuite is the headline acceptance gate: on
// every workload and elimination scheme, the sampled IPC estimate lands
// within its own reported confidence interval of the exact detailed IPC,
// and the exact-side architectural statistics are identical to a
// functional run's.
func TestSampledAccuracyAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite accuracy sweep is not short")
	}
	sess := session.New()
	ctx := context.Background()
	schemes := []emu.Scheme{emu.ElimOff, emu.ElimLVM, emu.ElimLVMStack}

	for _, w := range workload.All() {
		for _, scheme := range schemes {
			so := samplingTestOpts()
			est, err := sess.SimulateSampled(ctx, w,
				session.WithScheme(scheme),
				session.WithSamplingOptions(so))
			if err != nil {
				t.Fatalf("%s/%v: sampled: %v", w.Name, scheme, err)
			}
			exact, err := sess.Simulate(ctx, w, session.WithScheme(scheme))
			if err != nil {
				t.Fatalf("%s/%v: exact: %v", w.Name, scheme, err)
			}
			if diff := math.Abs(est.IPC - exact.IPC()); diff > est.CIHalfWidth {
				t.Errorf("%s/%v: estimate %.4f off exact %.4f by %.4f, CI half-width %.4f",
					w.Name, scheme, est.IPC, exact.IPC(), diff, est.CIHalfWidth)
			}
			// Architectural counts come from the functional pass: exact.
			if est.Stats.ElimSaves != exact.ElimSaves || est.Stats.ElimRests != exact.ElimRests {
				t.Errorf("%s/%v: sampled eliminations %d/%d, exact %d/%d",
					w.Name, scheme, est.Stats.ElimSaves, est.Stats.ElimRests,
					exact.ElimSaves, exact.ElimRests)
			}
			if est.Stats.Committed != exact.Committed {
				t.Errorf("%s/%v: sampled committed %d, exact %d",
					w.Name, scheme, est.Stats.Committed, exact.Committed)
			}
			if est.DetailedInsts >= est.TotalInsts {
				t.Errorf("%s/%v: %d detailed instructions of %d total — sampling saved nothing",
					w.Name, scheme, est.DetailedInsts, est.TotalInsts)
			}
		}
	}
}

// TestSampledDeterministicAcrossWorkerCounts pins the scheduling
// determinism contract: the same plan yields bit-identical estimates at
// one worker and at eight.
func TestSampledDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	w, _ := workload.ByName("go")
	so := samplingTestOpts()

	run := func(workers int) sample.Estimate {
		t.Helper()
		sess := session.New(session.WithWorkers(workers))
		est, err := sess.SimulateSampled(ctx, w,
			session.WithScheme(emu.ElimLVMStack),
			session.WithSamplingOptions(so))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return est
	}

	one := run(1)
	eight := run(8)
	if !reflect.DeepEqual(one, eight) {
		t.Errorf("estimates differ across worker counts:\n-j1: %+v\n-j8: %+v", one, eight)
	}
	// And re-running in the same session (pooled, warm instances) is
	// also identical.
	again := run(1)
	if !reflect.DeepEqual(one, again) {
		t.Errorf("estimate changed between runs:\nfirst: %+v\nagain: %+v", one, again)
	}
}

// TestSimulateRoutesThroughSampler pins that WithSampling changes
// Simulate's path: the returned stats are the estimate's rendering
// (identical to SimulateSampled's Stats), not an exact run.
func TestSimulateRoutesThroughSampler(t *testing.T) {
	ctx := context.Background()
	sess := session.New()
	w, _ := workload.ByName("li")
	so := samplingTestOpts()

	est, err := sess.SimulateSampled(ctx, w, session.WithSamplingOptions(so))
	if err != nil {
		t.Fatal(err)
	}
	viaSimulate, err := sess.Simulate(ctx, w, session.WithSamplingOptions(so))
	if err != nil {
		t.Fatal(err)
	}
	if viaSimulate != est.Stats {
		t.Errorf("Simulate(WithSampling) = %+v\nwant %+v", viaSimulate, est.Stats)
	}
}

// TestSampledTargetCIDensifies pins adaptive densification: demanding a
// tighter CI than the initial sparse plan delivers makes the sampler
// measure more intervals, and the final estimate reports a CI no wider
// than the target (or a full census).
func TestSampledTargetCIDensifies(t *testing.T) {
	ctx := context.Background()
	sess := session.New()
	w, _ := workload.ByName("go")

	loose, err := sess.SimulateSampled(ctx, w,
		session.WithSamplingOptions(sample.Options{Interval: 4000, Warmup: 1000, Period: 8}))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := sess.SimulateSampled(ctx, w,
		session.WithSamplingOptions(sample.Options{
			Interval: 4000, Warmup: 1000, Period: 8,
			TargetCI: loose.RelCI * 0.9,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Measured <= loose.Measured {
		t.Errorf("target CI %.4f did not densify: measured %d, loose plan measured %d",
			loose.RelCI*0.9, tight.Measured, loose.Measured)
	}
	if tight.RelCI > loose.RelCI*0.9 && tight.Measured < tight.Intervals {
		t.Errorf("final RelCI %.4f misses target %.4f with %d/%d intervals measured",
			tight.RelCI, loose.RelCI*0.9, tight.Measured, tight.Intervals)
	}
}

// TestCollectSampledMixedBatch pins that sampled jobs are ordinary
// engine jobs: one Collect batch mixes Timing jobs with Sampling set and
// exact jobs; sampled results come back with estimates and rendered
// stats, the rest run exactly, and results keep submission order.
func TestCollectSampledMixedBatch(t *testing.T) {
	ctx := context.Background()
	sess := session.New()
	li, _ := workload.ByName("li")
	goW, _ := workload.ByName("go")
	so := samplingTestOpts()

	jobs := []session.Job{
		sampledJob(li, emu.ElimLVMStack, &so),
		functionalJob(goW, emu.ElimLVMStack),
		sampledJob(goW, emu.ElimOff, &so),
		sampledJob(li, emu.ElimOff, nil),
	}

	results, err := sess.Collect(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Index != i {
			t.Errorf("result %d has index %d", i, res.Index)
		}
	}
	if results[0].Sampled == nil || results[2].Sampled == nil {
		t.Error("sampled timing results missing their estimates")
	}
	if results[1].Sampled != nil || results[3].Sampled != nil {
		t.Error("a job without Sampling carries a sampled estimate")
	}
	if results[0].Timing != results[0].Sampled.Stats {
		t.Error("timing stats do not match the estimate's rendering")
	}
	if results[1].Func.Original() == 0 {
		t.Error("functional job did not run")
	}

	// The batch's estimate is the one SimulateSampled computes alone.
	est, err := sess.SimulateSampled(ctx, li, session.WithSamplingOptions(so))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*results[0].Sampled, est) {
		t.Errorf("batch estimate differs from SimulateSampled:\nbatch: %+v\nalone: %+v", *results[0].Sampled, est)
	}
}

// TestRunSampledMultiContextFailsAlone pins that a sampled job on a
// multi-context machine is refused by the engine as that job's own
// error — checkpoints restore one architectural state, so it must never
// reach the single-context boot — while the rest of the batch runs.
func TestRunSampledMultiContextFailsAlone(t *testing.T) {
	ctx := context.Background()
	sess := session.New()
	li, _ := workload.ByName("li")
	so := samplingTestOpts()

	smt := sampledJob(li, emu.ElimLVMStack, &so)
	smt.Machine.Contexts = 2
	jobs := []session.Job{
		sampledJob(li, emu.ElimLVMStack, &so),
		smt,
		functionalJob(li, emu.ElimLVMStack),
	}
	var got []session.Result
	err := sess.Run(ctx, jobs, func(res session.Result) error {
		got = append(got, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(got), len(jobs))
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "single-context") {
		t.Errorf("2-context sampled job: err = %v, want a single-context refusal", got[1].Err)
	}
	if got[0].Err != nil || got[0].Sampled == nil {
		t.Errorf("sampled job: err %v, estimate %v", got[0].Err, got[0].Sampled)
	}
	if got[2].Err != nil || got[2].Func.Original() == 0 {
		t.Errorf("functional job: err %v, stats %+v", got[2].Err, got[2].Func)
	}
	if n := sess.Engine().Panics(); n != 0 {
		t.Errorf("%d jobs panicked", n)
	}
}

// sampledJob is a full-DVI Timing job on the paper machine with
// sampling set to so (nil = exact).
func sampledJob(w workload.Spec, scheme emu.Scheme, so *sample.Options) session.Job {
	cfg := ooo.DefaultConfig()
	cfg.Emu = session.EmuConfigFor(core.Full, scheme)
	return session.Job{
		Workload: w, Scale: 1,
		Build:    session.BuildOptionsFor(core.Full),
		Kind:     runner.Timing,
		Machine:  cfg,
		Sampling: so,
	}
}

// functionalJob is a full-DVI Functional job.
func functionalJob(w workload.Spec, scheme emu.Scheme) session.Job {
	return session.Job{
		Workload: w, Scale: 1,
		Build: session.BuildOptionsFor(core.Full),
		Kind:  runner.Functional,
		Emu:   session.EmuConfigFor(core.Full, scheme),
	}
}

// TestSampledPersistenceBitIdentical is the sampled half of the
// crash-recovery contract: a session restarted over the same artifact
// store serves a sampled simulation from the persisted interval-result
// set — no scan, no interval simulation — and the restored estimate is
// bit-identical to the one computed live.
func TestSampledPersistenceBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	w, _ := workload.ByName("go")
	so := samplingTestOpts()

	run := func() (sample.Estimate, *store.Store) {
		t.Helper()
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		sess := session.New(session.WithStore(st))
		est, err := sess.SimulateSampled(ctx, w,
			session.WithScheme(emu.ElimLVMStack),
			session.WithSamplingOptions(so))
		if err != nil {
			t.Fatal(err)
		}
		return est, st
	}

	cold, st1 := run()
	s1 := st1.Stats()
	if s1.Puts < 2 { // one build artifact + one sampled record
		t.Fatalf("cold run persisted too little: %+v", s1)
	}

	warm, st2 := run()
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("restored estimate differs:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	s2 := st2.Stats()
	if s2.Hits < 2 { // build + sampled record both served from disk
		t.Fatalf("warm run did not hit the store: %+v", s2)
	}
	if s2.Puts != 0 {
		t.Fatalf("warm run re-persisted: %+v", s2)
	}

	// A different plan is a different key: no false sharing.
	st3, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sess := session.New(session.WithStore(st3))
	other := so
	other.Period = so.Period * 2
	est, err := sess.SimulateSampled(ctx, w,
		session.WithScheme(emu.ElimLVMStack),
		session.WithSamplingOptions(other))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(est, cold) {
		t.Error("distinct sampling plans produced identical estimates — key collision?")
	}
	if st3.Stats().Puts == 0 {
		t.Error("new plan was not persisted")
	}
}
