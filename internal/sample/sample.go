// Package sample implements SMARTS/SimPoint-style statistical sampling of
// the cycle-accurate simulator: the fast functional emulator executes the
// whole program once (the "scan"), warming a cache hierarchy and branch
// predictor along the way and capturing lightweight checkpoints at
// selected interval boundaries; pooled ooo.Machine instances then simulate
// only those intervals in detail — independent jobs that parallelize
// across the engine's workers — and an aggregator combines the
// per-interval measurements into a whole-program estimate with a CLT
// confidence interval.
//
// The split of exact versus estimated is deliberate: every architectural
// count — instruction mix, save/restore eliminations, faults, the
// checksum — comes from the functional pass and is exact (the emulator is
// the reference implementation the timing core is validated against).
// Only the cycle count, and therefore IPC, is estimated from the sampled
// intervals, and it carries the reported confidence interval.
//
// Determinism: interval selection is a pure function of (interval size,
// period, seed), the scan is single-threaded, and aggregation folds
// per-interval results in interval order — so a fixed plan yields
// bit-identical estimates at any worker count.
package sample

import (
	"fmt"
	"math"

	"dvi/internal/bpred"
	"dvi/internal/cache"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/mem"
	"dvi/internal/ooo"
)

// Options configures a sampled run.
type Options struct {
	// Interval is the measured-interval length in original instructions
	// (0 = DefaultInterval).
	Interval uint64
	// Warmup is the detailed-warmup length replayed before each measured
	// interval to absorb the pipeline-fill transient (0 = Interval/5).
	Warmup uint64
	// Period selects every Period-th interval for detailed simulation
	// (<=0 = DefaultPeriod). Period 1 measures every interval.
	Period int
	// Seed offsets the systematic selection (offset = Seed mod Period);
	// the same seed always selects the same intervals.
	Seed uint64
	// TargetCI, when positive, is the target relative confidence-interval
	// half-width: the sampler keeps densifying the selection (halving the
	// period, round by round) until the estimate's RelCI reaches the
	// target or every interval has been measured.
	TargetCI float64
	// MaxInsts truncates the program after this many original
	// instructions (0 = run to completion); the estimate then describes
	// the truncated run, matching an exact run under the same budget.
	MaxInsts uint64
}

// Defaults for zero-valued Options fields.
const (
	DefaultInterval = 10_000
	DefaultPeriod   = 8
	// Confidence is the two-sided confidence level of every reported
	// interval.
	Confidence = 0.95
)

// nonSamplingBias is the relative error margin added to every confidence
// interval for the biases sampling theory cannot see: the measured
// intervals replay from an empty pipeline behind a detailed warmup, and
// functional cache/predictor warming carries no wrong-path pollution.
// EXPERIMENTS.md documents the calibration.
const nonSamplingBias = 0.04

// WithDefaults resolves zero fields to their defaults.
func (o Options) WithDefaults() Options {
	if o.Interval == 0 {
		o.Interval = DefaultInterval
	}
	if o.Warmup == 0 {
		o.Warmup = o.Interval / 5
	}
	if o.Period <= 0 {
		o.Period = DefaultPeriod
	}
	return o
}

// Selected reports whether interval idx is measured under (period, seed):
// systematic sampling, every period-th interval starting at seed mod
// period.
func Selected(idx, period int, seed uint64) bool {
	if period <= 1 {
		return true
	}
	return idx%period == int(seed%uint64(period))
}

// Checkpoint is the state needed to simulate one interval in detail,
// captured during the functional scan Warmup instructions before the
// interval begins. Buffers inside are reused across captures; the engine
// pools whole checkpoints across sampled jobs.
type Checkpoint struct {
	// Index is the interval this checkpoint serves.
	Index int
	// WarmupGap is the original-instruction distance from the capture
	// point to the interval start, re-simulated in detail and discarded.
	WarmupGap uint64
	// MeasureLen is the interval's length in original instructions
	// (short for the program's final interval; 0 marks a checkpoint whose
	// interval turned out to be empty — not simulated).
	MeasureLen uint64

	Arch emu.Snapshot
	Warm ooo.WarmState
}

// IntervalResult is the detailed measurement of one interval.
type IntervalResult struct {
	Index       int
	Insts       uint64 // committed original instructions measured
	Cycles      uint64 // cycles spent on them
	WarmInsts   uint64 // warmup instructions simulated and discarded
	Mispredicts uint64
	MaxPhys     int
}

// CPI returns the interval's cycles per original instruction.
func (r IntervalResult) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Insts)
}

// RunInterval simulates one checkpointed interval on a freshly Reset
// machine: boot from the checkpoint, replay the warmup gap, measure the
// interval, and return the stat deltas between the two boundaries.
// Boundaries are cycle-granular — the machine retires up to IssueWidth
// instructions per cycle and an interval ends with the cycle that crosses
// its target — so a measured window can shift or stretch by a few
// instructions. The result's Insts is the count actually measured, which
// keeps the per-interval CPI internally consistent.
func RunInterval(m *ooo.Machine, ck *Checkpoint) (IntervalResult, error) {
	if ck.MeasureLen == 0 {
		return IntervalResult{}, fmt.Errorf("sample: interval %d checkpoint has no measured region", ck.Index)
	}
	m.Boot(&ck.Arch, &ck.Warm)
	warm, err := m.RunUntil(ck.WarmupGap)
	if err != nil {
		return IntervalResult{}, err
	}
	full, err := m.RunUntil(ck.WarmupGap + ck.MeasureLen)
	if err != nil {
		return IntervalResult{}, err
	}
	return IntervalResult{
		Index:       ck.Index,
		Insts:       full.Committed - warm.Committed,
		Cycles:      full.Cycles - warm.Cycles,
		WarmInsts:   warm.Committed,
		Mispredicts: full.Mispredicts - warm.Mispredicts,
		MaxPhys:     full.MaxPhysInUse,
	}, nil
}

// ScanResult is what one functional pass yields.
type ScanResult struct {
	// TotalInsts is the program's original-instruction count (after any
	// MaxInsts truncation) — exact.
	TotalInsts uint64
	// Intervals is the interval count ceil(TotalInsts/Interval).
	Intervals int
	// Exact is the whole-program architectural statistics — exact.
	Exact emu.Stats
	// Checkpoints are the captures, in interval order. Entries with
	// MeasureLen 0 fell past the program's end and must not be simulated
	// (the caller still releases their buffers).
	Checkpoints []*Checkpoint
}

// Scanner drives functional fast-forward passes. It owns the warming
// structures (cache hierarchy, predictor, BTB, RAS) and reuses them
// across scans of the same machine configuration; it is not safe for
// concurrent use.
type Scanner struct {
	hier *cache.Hierarchy
	pred *bpred.Predictor
	btb  *bpred.BTB
	ras  *bpred.RAS
	hcfg cache.HierarchyConfig
	pcfg bpred.Config
}

// NewScanner returns an empty scanner; warming structures are built on
// first use.
func NewScanner() *Scanner { return &Scanner{} }

func (s *Scanner) ensure(mcfg ooo.Config) {
	if s.hier == nil || s.hcfg != mcfg.Hierarchy {
		s.hier = cache.NewHierarchy(mcfg.Hierarchy)
		s.hcfg = mcfg.Hierarchy
	} else {
		s.hier.Reset()
	}
	if s.pred == nil || s.pcfg != mcfg.Pred {
		s.pred = bpred.New(mcfg.Pred)
		s.btb = bpred.NewBTB(mcfg.Pred.BTBSets, mcfg.Pred.BTBAssoc)
		s.ras = bpred.NewRAS(mcfg.Pred.RASDepth)
		s.pcfg = mcfg.Pred
	} else {
		s.pred.Reset()
		s.btb.Reset()
		s.ras.Reset()
	}
}

// warm drives the warming structures with one architecturally executed
// instruction, mirroring what the detailed pipeline does on the correct
// path: an I-side access per instruction, a D-side access for executed
// (non-eliminated) memory operations, predictor train-and-correct for
// conditional branches, BTB updates for indirect transfers, RAS pushes
// and pops at calls and returns. Wrong-path pollution is the one effect
// functional warming cannot reproduce; the confidence interval's
// non-sampling margin covers it.
func (s *Scanner) warm(st emu.Step) {
	s.hier.L1I.Access(st.PC, false)
	if st.IsMem {
		var write bool
		switch st.Inst.Op {
		case isa.ST, isa.SB, isa.LVST, isa.LVMS:
			write = true
		}
		s.hier.L1D.Access(st.Addr, write)
	}
	switch st.Inst.Op {
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		_, info := s.pred.Predict(st.PC)
		s.pred.Resolve(st.PC, st.Taken, info)
		if info.Pred != st.Taken {
			s.pred.RestoreHistory(info.Hist, st.Taken)
		}
	case isa.JAL:
		s.ras.Push(st.PC + isa.InstBytes)
	case isa.JALR:
		s.ras.Push(st.PC + isa.InstBytes)
		s.btb.Lookup(st.PC)
		s.btb.Update(st.PC, st.NextPC)
	case isa.JR:
		if st.Inst.IsReturn {
			s.ras.Pop()
		} else {
			s.btb.Lookup(st.PC)
			s.btb.Update(st.PC, st.NextPC)
		}
	}
}

// Scan runs the functional pass: e (freshly reset at program start, with
// the machine's emulator configuration) executes to completion or the
// MaxInsts cap, the warming structures track the architectural stream,
// and a checkpoint is captured Warmup instructions ahead of every
// interval selected by want and not skipped via skip (already-measured
// intervals on adaptive re-scans). base is the pristine loaded image
// memory snapshots are deltas against; acquire supplies (pooled)
// checkpoint buffers.
func (s *Scanner) Scan(e *emu.Emulator, base *mem.Memory, mcfg ooo.Config, opt Options,
	want func(idx int) bool, acquire func() *Checkpoint) ScanResult {

	opt = opt.WithDefaults()
	s.ensure(mcfg)
	L, W := opt.Interval, opt.Warmup

	// capturePos returns the scan position at which idx's checkpoint is
	// captured: Warmup instructions early, clamped at program start.
	capturePos := func(idx int) uint64 {
		start := uint64(idx) * L
		if W > start {
			return 0
		}
		return start - W
	}
	nextSelected := func(from int) int {
		for idx := from; ; idx++ {
			if want(idx) {
				return idx
			}
		}
	}

	var res ScanResult
	captureIdx := nextSelected(0)
	orig := uint64(0)
	for !e.Halted && (opt.MaxInsts == 0 || orig < opt.MaxInsts) {
		if orig == capturePos(captureIdx) {
			ck := acquire()
			ck.Index = captureIdx
			ck.WarmupGap = uint64(captureIdx)*L - orig
			ck.MeasureLen = 0 // fixed up after the scan knows TotalInsts
			e.CaptureSnapshot(&ck.Arch, base)
			s.hier.Capture(&ck.Warm.Hier)
			s.pred.Capture(&ck.Warm.Pred)
			s.btb.Capture(&ck.Warm.BTB)
			ck.Warm.RAS = s.ras.Snapshot()
			res.Checkpoints = append(res.Checkpoints, ck)
			captureIdx = nextSelected(captureIdx + 1)
		}
		st := e.Step()
		if st.Halted {
			break
		}
		s.warm(st)
		if st.Inst.Op != isa.KILL {
			orig++
		}
	}

	res.TotalInsts = orig
	res.Intervals = int((orig + L - 1) / L)
	res.Exact = e.Stats
	for _, ck := range res.Checkpoints {
		start := uint64(ck.Index) * L
		if start < orig {
			ck.MeasureLen = min(L, orig-start)
		}
	}
	return res
}

// Estimate is the whole-program result of a sampled run.
type Estimate struct {
	// Plan echo.
	Interval uint64
	Warmup   uint64
	Seed     uint64

	// Coverage.
	Intervals     int    // intervals in the program
	Measured      int    // intervals simulated in detail
	TotalInsts    uint64 // original instructions (exact)
	SampledInsts  uint64 // original instructions inside measured intervals
	SampledCycles uint64
	DetailedInsts uint64 // detailed instructions simulated, warmup included

	// The estimate.
	Cycles      uint64  // estimated whole-program cycles
	IPC         float64 // estimated committed original instructions per cycle
	CPI         float64
	CIHalfWidth float64 // absolute half-width on IPC at Confidence
	RelCI       float64 // CIHalfWidth / IPC
	Confidence  float64

	// Exact architectural statistics from the functional pass.
	Exact emu.Stats

	// Stats is the estimate rendered in the timing simulator's stat
	// shape, so exact-mode consumers (figure renderers, wire formats)
	// work unchanged: estimated Cycles, exact Committed/eliminations/
	// faults/Emu block, sampled-and-scaled Mispredicts. Pipeline
	// micro-counters that were not measured are zero.
	Stats ooo.Stats
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom; beyond that the normal quantile is close enough.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCrit(df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.960
}

// Aggregate folds per-interval measurements into the whole-program
// estimate. results must be in interval order (callers iterate the
// measured set sorted by index) so the floating-point folds are
// deterministic at any worker count. The point estimate is the ratio
// estimator (total sampled cycles over total sampled instructions); the
// confidence interval comes from the per-interval CPI variance via the
// CLT with a finite-population correction, a Student-t quantile at small
// sample counts, and a fixed non-sampling margin for warmup bias.
func Aggregate(scan ScanResult, results []IntervalResult, opt Options) (Estimate, error) {
	opt = opt.WithDefaults()
	est := Estimate{
		Interval:   opt.Interval,
		Warmup:     opt.Warmup,
		Seed:       opt.Seed,
		Intervals:  scan.Intervals,
		TotalInsts: scan.TotalInsts,
		Confidence: Confidence,
		Exact:      scan.Exact,
	}
	var (
		mispredicts uint64
		maxPhys     int
	)
	for _, r := range results {
		if r.Insts == 0 {
			continue
		}
		est.Measured++
		est.SampledInsts += r.Insts
		est.SampledCycles += r.Cycles
		est.DetailedInsts += r.Insts + r.WarmInsts
		mispredicts += r.Mispredicts
		if r.MaxPhys > maxPhys {
			maxPhys = r.MaxPhys
		}
	}
	if est.Measured == 0 || est.SampledInsts == 0 {
		return est, fmt.Errorf("sample: no measured intervals (program of %d instructions)", scan.TotalInsts)
	}

	cpi := float64(est.SampledCycles) / float64(est.SampledInsts)
	est.CPI = cpi
	est.Cycles = uint64(math.Round(cpi * float64(est.TotalInsts)))
	if est.Cycles == 0 {
		est.Cycles = 1
	}
	est.IPC = float64(est.TotalInsts) / float64(est.Cycles)

	// Relative CI half-width: CLT over per-interval CPIs. The relative
	// width of the CPI interval transfers to IPC = 1/CPI to first order.
	n, N := est.Measured, est.Intervals
	rel := nonSamplingBias
	if n >= 2 {
		mean := 0.0
		for _, r := range results {
			if r.Insts != 0 {
				mean += r.CPI()
			}
		}
		mean /= float64(n)
		varSum := 0.0
		for _, r := range results {
			if r.Insts != 0 {
				d := r.CPI() - mean
				varSum += d * d
			}
		}
		sd := math.Sqrt(varSum / float64(n-1))
		se := sd / math.Sqrt(float64(n))
		if N > 1 && n < N {
			se *= math.Sqrt(float64(N-n) / float64(N-1))
		} else if n >= N {
			se = 0 // every interval measured: no sampling error remains
		}
		rel += tCrit(n-1) * se / mean
	} else {
		// A single measured interval has no variance estimate; report a
		// deliberately wide interval instead of a falsely tight one.
		rel += 0.25
	}
	est.RelCI = rel
	est.CIHalfWidth = rel * est.IPC

	scale := float64(est.TotalInsts) / float64(est.SampledInsts)
	est.Stats = ooo.Stats{
		Cycles:       est.Cycles,
		Committed:    est.TotalInsts,
		KillsSeen:    scan.Exact.Kills,
		ElimSaves:    scan.Exact.SavesElim,
		ElimRests:    scan.Exact.RestoresElim,
		Mispredicts:  uint64(math.Round(float64(mispredicts) * scale)),
		MaxPhysInUse: maxPhys,
		Faults:       scan.Exact.Faults,
		Emu:          scan.Exact,
	}
	return est, nil
}
