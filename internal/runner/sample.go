package runner

import (
	"context"
	"fmt"
	"slices"

	"dvi/internal/mem"
	"dvi/internal/obs"
	"dvi/internal/prog"
	"dvi/internal/sample"
	"dvi/internal/store"
)

// A sampled Timing job runs the statistical sampler inside its own job:
// a functional scan on a pooled emulator captures checkpoints into
// recycled buffers, the selected intervals run as nested SampledInterval
// jobs on the engine's pool, and a deterministic fold aggregates them.
// Repeated sampled runs thus reach the same zero-allocation steady state
// as exact ones.

// maxSampleRounds bounds adaptive densification: starting from the
// default period 8, five halvings reach period 1 (a full census), so more
// rounds can never add coverage.
const maxSampleRounds = 5

// getCheckpoint returns a checkpoint buffer whose internal slices
// (memory page delta, cache line arrays, predictor tables) are reused
// from a previous sampled run when possible. Only the holder of the
// sampling slot calls it.
func (e *Engine) getCheckpoint() *sample.Checkpoint {
	if n := len(e.checkpoints); n > 0 {
		ck := e.checkpoints[n-1]
		e.checkpoints[n-1] = nil
		e.checkpoints = e.checkpoints[:n-1]
		e.ckReuse.Add(1)
		return ck
	}
	e.ckFresh.Add(1)
	return new(sample.Checkpoint)
}

// sampleSlot takes the engine's sampling slot, waiting under a
// "sample-wait" span while another sampled job holds it, so the wait
// never reads as sampler work. The caller releases it with <-e.sampling.
func (e *Engine) sampleSlot(ctx context.Context) error {
	select {
	case e.sampling <- struct{}{}:
		return nil
	default:
	}
	_, span := obs.StartSpan(ctx, "sample-wait")
	defer span.End()
	select {
	case e.sampling <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runSampled runs a Timing job through the sampler: scan, per-interval
// detailed jobs on the pool, aggregate; repeat with a denser selection
// while a TargetCI is unmet. ctx carries the job's "sample" span. The
// scans and interval fan-out run under the engine's sampling slot, so
// sampled jobs measure one at a time.
func (e *Engine) runSampled(ctx context.Context, j Job, pr *prog.Program, img *prog.Image) (sample.Estimate, error) {
	if n := j.Machine.ContextCount(); n > 1 {
		return sample.Estimate{}, fmt.Errorf("runner: sampling is single-context (Contexts=%d)", n)
	}
	label := j.label()

	opt := *j.Sampling
	opt.MaxInsts = j.Machine.MaxInsts
	opt = opt.WithDefaults()

	// A persisted measured set for this exact plan reproduces the
	// estimate bit-identically through the deterministic aggregation
	// fold — no scan, no interval simulation.
	st := e.Store()
	var planKey string
	planOK := false
	if st != nil {
		planKey, planOK = samplePlanKey(j, opt)
	}
	if planOK {
		if payload, ok := st.Get(store.SampledKind, planKey); ok {
			if est, err := decodeSampledRecord(payload, opt); err == nil {
				obs.SpanFrom(ctx).SetAttr("store_hit", true)
				return est, nil
			}
			// Undecodable despite a good checksum (version drift):
			// fall through and re-measure.
		}
	}

	if err := e.sampleSlot(ctx); err != nil {
		return sample.Estimate{}, err
	}
	defer func() { <-e.sampling }()

	// The pristine loaded image: the baseline every checkpoint's memory
	// delta is taken against, matching the state Machine.Reset leaves a
	// pooled machine's memory in.
	base := mem.New()
	img.LoadInto(base, pr.Data)

	// Interval jobs must never truncate: RunUntil drives the measured
	// region; the whole-program cap already shaped the scan.
	mcfg := j.Machine
	mcfg.MaxInsts = 0

	scanner := sample.NewScanner()
	measured := make(map[int]sample.IntervalResult)
	var retained []*sample.Checkpoint
	defer func() {
		// Keep exactly this job's buffers, reversed so the next job takes
		// them in the same order; extras a larger earlier job left go to
		// the garbage collector.
		clear(e.checkpoints)
		e.checkpoints = e.checkpoints[:0]
		for i := len(retained) - 1; i >= 0; i-- {
			e.checkpoints = append(e.checkpoints, retained[i])
		}
	}()

	var (
		est     sample.Estimate
		scan    sample.ScanResult
		ordered []sample.IntervalResult
	)
	period := opt.Period
	for round := 0; ; round++ {
		_, sspan := obs.StartSpan(ctx, "scan")
		em := e.getEmu(pr, img, mcfg.Emu)
		scan = scanner.Scan(em, base, mcfg, opt, func(idx int) bool {
			if _, done := measured[idx]; done {
				return false
			}
			return sample.Selected(idx, period, opt.Seed)
		}, e.getCheckpoint)
		e.putEmu(em)
		if sspan != nil {
			sspan.SetAttr("round", round)
			sspan.SetAttr("checkpoints", len(scan.Checkpoints))
			sspan.End()
		}
		retained = append(retained, scan.Checkpoints...)

		var ivJobs []Job
		for _, ck := range scan.Checkpoints {
			if ck.MeasureLen == 0 {
				continue
			}
			ivJobs = append(ivJobs, Job{
				Label:    fmt.Sprintf("%s interval %d", label, ck.Index),
				Workload: j.Workload,
				Scale:    j.Scale,
				Build:    j.Build,
				Kind:     SampledInterval,
				Machine:  mcfg,
				Sample:   ck,
			})
		}
		out, err := e.Run(ctx, ivJobs)
		if err != nil {
			return sample.Estimate{}, err
		}
		for _, r := range out {
			measured[r.Interval.Index] = r.Interval
		}

		// Aggregate in interval order — a deterministic fold at any
		// worker count.
		keys := make([]int, 0, len(measured))
		for idx := range measured {
			keys = append(keys, idx)
		}
		slices.Sort(keys)
		ordered = make([]sample.IntervalResult, len(keys))
		for i, idx := range keys {
			ordered[i] = measured[idx]
		}
		_, aspan := obs.StartSpan(ctx, "aggregate")
		est, err = sample.Aggregate(scan, ordered, opt)
		aspan.End()
		if err != nil {
			return sample.Estimate{}, err
		}

		enough := est.Measured >= 2
		if opt.TargetCI > 0 {
			enough = est.RelCI <= opt.TargetCI
		}
		if enough || est.Measured >= scan.Intervals || period <= 1 || round >= maxSampleRounds {
			break
		}
		period /= 2
	}

	if planOK {
		if payload, err := encodeSampledRecord(scan, ordered); err == nil {
			// Best-effort durability; the store counts its own errors.
			_ = st.Put(store.SampledKind, planKey, payload)
		}
	}
	return est, nil
}
