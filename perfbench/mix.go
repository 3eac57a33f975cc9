package main

import (
	"fmt"
	"math/rand"

	"dvi/internal/prog"
	"dvi/internal/service"
	"dvi/internal/workload"
)

// Fleet job mixes. Every batch is a pure function of (seed, client,
// batch number), so the same seed sends the same requests whatever the
// timing, and the verifier can regenerate any batch instead of storing it.

// coldBatchSize is the number of cold jobs in one fleet batch, next to
// the len(warmSlots) warm ones: 12 jobs in all, few enough that backend
// queue waits stay under the gateway's 150 ms hedging delay.
const coldBatchSize = 4

// Instruction budgets of the fleet jobs: small, so request handling is a
// large share of each job's time.
const (
	warmInsts     = 20_000
	sampledInsts  = 60_000
	sampledIval   = 5_000
	ctxSwitchInst = 50_000
	coldInsts     = 20_000
)

var dviLevels = []string{"none", "idvi", "full"}

// warmSlots is the kind of each warm job in a fleet batch: mostly exact
// simulate at the three DVI levels, some SMT, sampled simulate,
// ctxswitch and annotate.
var warmSlots = []string{
	"simulate", "smt", "simulate", "ctxswitch", "simulate", "sampled", "simulate", "annotate",
}

// warmPool lists every distinct job a warm batch can draw for each slot
// kind, over the catalogue workloads.
func warmPool() map[string][]service.JobRequest {
	pool := map[string][]service.JobRequest{}
	for _, w := range workload.Names() {
		for _, level := range dviLevels {
			pool["simulate"] = append(pool["simulate"], service.JobRequest{Kind: "simulate",
				Simulate: &service.SimulateRequest{Workload: w, MaxInsts: warmInsts, DVILevel: level}})
		}
		pool["smt"] = append(pool["smt"], service.JobRequest{Kind: "simulate",
			Simulate: &service.SimulateRequest{Workload: w, MaxInsts: warmInsts, Contexts: 2}})
		pool["sampled"] = append(pool["sampled"], service.JobRequest{Kind: "simulate",
			Simulate: &service.SimulateRequest{Workload: w, MaxInsts: sampledInsts,
				Sampling: &service.SamplingSpec{Interval: sampledIval}}})
		pool["ctxswitch"] = append(pool["ctxswitch"], service.JobRequest{Kind: "ctxswitch",
			CtxSwitch: &service.CtxSwitchRequest{Workload: w, MaxInsts: ctxSwitchInst}})
		pool["annotate"] = append(pool["annotate"], service.JobRequest{Kind: "annotate",
			Annotate: &service.AnnotateRequest{Workload: w}})
	}
	return pool
}

// warmPoolJobs is the pool flattened in a fixed order: the set-up primes
// the fleet with it.
func warmPoolJobs(pool map[string][]service.JobRequest) []service.JobRequest {
	var all []service.JobRequest
	for _, k := range sortedKeys(pool) {
		all = append(all, pool[k]...)
	}
	return all
}

// rng returns the generator for one batch.
func rng(seed uint64, client, batch int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed, uint64(client), uint64(batch)))))
}

// mix64 folds its arguments into one well-spread value (splitmix64).
func mix64(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// cycle picks the n-th element of a seeded cycle over size choices: a
// stride coprime to size, from a per-client offset, visits every choice
// once per size steps. Over consecutive batches every choice comes up
// equally often, so a run's cost does not hinge on which choices a seed
// favours.
func cycle(seed uint64, client, n, size int) int {
	stride := 1 + int(mix64(seed, uint64(size))%uint64(size))
	for gcd(stride, size) != 1 {
		stride++
	}
	offset := int(mix64(seed, uint64(client+2)) % uint64(size))
	return (n*stride + offset) % size
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// warmBatch draws one batch's warm jobs: each slot takes the next job of
// its kind from the client's cycle over that kind's pool, in shuffled
// order.
func warmBatch(pool map[string][]service.JobRequest, seed uint64, client, batch int) []service.JobRequest {
	perBatch := map[string]int{}
	for _, kind := range warmSlots {
		perBatch[kind]++
	}
	seen := map[string]int{}
	jobs := make([]service.JobRequest, len(warmSlots))
	for i, kind := range warmSlots {
		choices := pool[kind]
		jobs[i] = choices[cycle(seed, client, batch*perBatch[kind]+seen[kind], len(choices))]
		seen[kind]++
	}
	r := rng(seed, client, batch)
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// coldBases are the catalogue programs in the assembly grammar, the
// raw material of the cold corpus.
func coldBases() ([]string, error) {
	var bases []string
	for _, w := range workload.All() {
		pr, _, err := workload.CompileSpec(w, 1, workload.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("cold corpus: %s: %w", w.Name, err)
		}
		bases = append(bases, prog.FormatAsm(pr))
	}
	return bases, nil
}

// coldAsm derives one unique program: a catalogue program with a
// seed-named procedure appended. The procedure is never called, so the
// simulated run is the catalogue program's, but the text (and with it
// the build key) is new for every (seed, client, batch, slot).
func coldAsm(bases []string, seed uint64, client, batch, slot int, r *rand.Rand) string {
	base := bases[cycle(seed, client, batch*coldBatchSize+slot, len(bases))]
	return fmt.Sprintf("%s\n.proc pb_%x_%d_%d_%d\n  addi t0, t0, %d\n  ret\n",
		base, seed, client+1, batch, slot, 1+r.Intn(1000))
}

// coldBatch draws one batch's cold jobs: three in four simulate inferred
// annotations of a unique program, the rest annotate one by inference.
func coldBatch(bases []string, seed uint64, client, batch int) []service.JobRequest {
	r := rng(seed, client, batch)
	jobs := make([]service.JobRequest, coldBatchSize)
	for i := range jobs {
		asm := coldAsm(bases, seed, client, batch, i, r)
		if i%4 == 3 {
			jobs[i] = service.JobRequest{Kind: "annotate",
				Annotate: &service.AnnotateRequest{Asm: asm, Mode: "infer"}}
			continue
		}
		jobs[i] = service.JobRequest{Kind: "simulate",
			Simulate: &service.SimulateRequest{Asm: asm, Infer: true, MaxInsts: coldInsts}}
	}
	return jobs
}

// fleetBatch draws one fleet batch: the warm and the cold jobs of
// the same (seed, client, batch), in seeded order.
func fleetBatch(pool map[string][]service.JobRequest, bases []string, seed uint64, client, batch int) []service.JobRequest {
	jobs := append(warmBatch(pool, seed, client, batch), coldBatch(bases, seed, client, batch)...)
	r := rng(mix64(seed), client, batch)
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// jobAsm is the program a cold job carries.
func jobAsm(jr service.JobRequest) string {
	if jr.Simulate != nil {
		return jr.Simulate.Asm
	}
	return jr.Annotate.Asm
}
