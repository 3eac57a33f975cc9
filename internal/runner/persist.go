package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/sample"
)

// Sampled runs persist their measured interval-result sets, not their
// checkpoints: a checkpoint pins warmed microarchitectural snapshots
// (cache lines, predictor tables, memory deltas) that are neither
// serializable nor needed again, while the interval results plus the
// scan's exact totals are a few flat numbers per interval from which
// sample.Aggregate — a deterministic fold — reproduces the estimate
// bit-identically. A store hit therefore skips the functional scan AND
// every detailed interval simulation.

// sampledRecordVersion guards the persisted encoding; bump it whenever
// the record shape or the aggregation inputs change so stale records
// read as misses instead of wrong answers.
const sampledRecordVersion = 1

// sampledRecord is the persisted outcome of one sampling plan.
type sampledRecord struct {
	Version    int                     `json:"version"`
	TotalInsts uint64                  `json:"total_insts"`
	Intervals  int                     `json:"intervals"`
	Exact      emu.Stats               `json:"exact"`
	Results    []sample.IntervalResult `json:"results"`
}

// samplePlanKey derives the store key for a sampled run: the build key
// plus a hash over everything else that shapes the estimate — the
// machine configuration (minus its trace sink, which never affects
// results) and the fully resolved sampling options (interval, warmup,
// period, seed, target CI, instruction budget). Two plans with the
// same key are guaranteed the same estimate by the sampler's
// determinism contract. ok is false when the configuration cannot be
// hashed (an exotic non-marshalable config) — callers then skip
// persistence rather than risk a collision.
func samplePlanKey(j Job, opt sample.Options) (string, bool) {
	mcfg := j.Machine
	mcfg.Trace = nil // obs.PipeSink: not marshalable, never result-relevant
	blob, err := json.Marshal(struct {
		Machine ooo.Config     `json:"machine"`
		Opt     sample.Options `json:"opt"`
	}{mcfg, opt})
	if err != nil {
		return "", false
	}
	key := j.Workload.Key(j.Scale, j.Build).String()
	sum := sha256.Sum256(append([]byte(key+"\x00"), blob...))
	return key + "@" + hex.EncodeToString(sum[:12]), true
}

// encodeSampledRecord serializes the final measured set.
func encodeSampledRecord(scan sample.ScanResult, results []sample.IntervalResult) ([]byte, error) {
	return json.Marshal(sampledRecord{
		Version:    sampledRecordVersion,
		TotalInsts: scan.TotalInsts,
		Intervals:  scan.Intervals,
		Exact:      scan.Exact,
		Results:    results,
	})
}

// decodeSampledRecord re-aggregates a persisted measured set into the
// estimate the original run produced.
func decodeSampledRecord(payload []byte, opt sample.Options) (sample.Estimate, error) {
	var rec sampledRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return sample.Estimate{}, fmt.Errorf("runner: decode sampled record: %w", err)
	}
	if rec.Version != sampledRecordVersion {
		return sample.Estimate{}, fmt.Errorf("runner: sampled record version %d, want %d", rec.Version, sampledRecordVersion)
	}
	scan := sample.ScanResult{
		TotalInsts: rec.TotalInsts,
		Intervals:  rec.Intervals,
		Exact:      rec.Exact,
	}
	return sample.Aggregate(scan, rec.Results, opt)
}
