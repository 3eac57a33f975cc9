package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"dvi/internal/service"
)

// setupResult is what a fleet set-up leaves for the measured run.
type setupResult struct {
	records  []batchRecord
	counters map[string]uint64
	// restartMS is the first batch after the warm restart.
	restartMS float64
}

// runOne sends each job as its own one-job batch, one after another:
// set-up passes that must do the same work every time (no queueing, so
// no hedged duplicates).
func runOne(ctx context.Context, c *client, jobs []service.JobRequest, out *outcome) []batchRecord {
	var recs []batchRecord
	for i, jr := range jobs {
		one := []service.JobRequest{jr}
		if rec, ok := account(out, -1, i, 1, c.run(ctx, one)); ok {
			rec.jobs = one
			recs = append(recs, rec)
		}
	}
	return recs
}

// setupFleet primes the fleet with every job of the warm pool, restarts
// the backends on their stores, and times the first batch's warm jobs
// after the restart, sent job by job like the priming, which must
// compile nothing.
func setupFleet(ctx context.Context, f *fleet, pool map[string][]service.JobRequest, out *outcome) (*setupResult, error) {
	c := newClient(f.gatewayURL())
	defer c.close()
	res := &setupResult{records: runOne(ctx, c, warmPoolJobs(pool), out)}
	res.counters = map[string]uint64{"build.compiles": uint64(f.compiles()), "store.puts": uint64(f.storePuts())}
	if err := f.checkServed(ctx, out, "priming"); err != nil {
		return nil, err
	}
	if err := f.restart(); err != nil {
		return nil, err
	}
	compiles0 := f.compiles()
	t0 := time.Now()
	res.records = append(res.records, runOne(ctx, c, warmBatch(pool, f.rc.seed, -1, 0), out)...)
	res.restartMS = since(t0) * 1000
	res.counters["store.restart_compiles"] = uint64(f.compiles() - compiles0)
	return res, f.checkServed(ctx, out, "warm restart")
}

// runFleet sets the fleet up (see moreSetups; the last one stays up),
// then runs the closed loop for the run time in windows, each verified
// before the next (windowedFleet). Traced runs measure interleaved
// untraced and traced windows instead, verify their lines at the end,
// and add the per-layer measurements.
func runFleet(ctx context.Context, rc *runConfig) (*outcome, error) {
	pool := warmPool()
	bases, err := coldBases()
	if err != nil {
		return nil, err
	}
	gen := func(c, k int) []service.JobRequest { return fleetBatch(pool, bases, rc.seed, c, k) }
	out := newOutcome()
	var (
		f       *fleet
		setups  []float64
		records []batchRecord
		restart []float64
	)
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	// Set-up lines are verified after each set-up, by a verifier of
	// their own, so that neither their records nor the verifier's
	// reference server stay on the heap through the measured run.
	setupCheck := newVerifier(rc.workers)
	for i := 0; moreSetups(setups); i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(rc, filepath.Join(rc.tmp, fmt.Sprintf("fleet-%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sr, err := setupFleet(ctx, f, pool, out)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, since(t0))
		if err := setupCheck.verify(ctx, sr.records, gen, rc.workers, out); err != nil {
			return nil, err
		}
		restart = append(restart, sr.restartMS)
		out.repeatCounters(fmt.Sprintf("set-up %d", i), sr.counters)
	}
	n := out.counters["store.restart_compiles"]
	out.check(n == 0, "warm restart compiled %d binaries", n)
	out.e2e["setup_s"] = median(setups)

	clients := make([]*client, fleetClients)
	for i := range clients {
		clients[i] = newClient(f.gatewayURL())
		defer clients[i].close()
	}
	compiles0 := f.compiles()
	if rc.trace {
		recs, err := tracedFleet(ctx, f, clients, gen, out)
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)
		out.layer["store.restart_first_batch_ms"] = median(restart)
		if err := ladder(ctx, f, out); err != nil {
			return nil, err
		}
		if err := probeAll(ctx, rc, out); err != nil {
			return nil, err
		}
	} else if err := windowedFleet(ctx, f, clients, gen, out); err != nil {
		return nil, err
	}
	// A hedged or retried job can build on a replica that does not own
	// its key, so the loop's compiles are reported, not checked.
	out.layer["build.loop_compiles"] = float64(f.compiles() - compiles0)

	v := newVerifier(rc.workers)
	if err := v.verify(ctx, records, gen, rc.workers, out); err != nil {
		return nil, err
	}
	return out, nil
}

// fleetClients is how many closed-loop clients send batches at once.
// One: its batch fans out over both backends, whose queues then hold
// at most one batch, so job waits stay far below the gateway's hedging
// delay and no hedged duplicate adds work the host's speed decides.
const fleetClients = 1

// fleetWindows is how many windows an untraced fleet run splits its
// time into.
const fleetWindows = 5

// windowedFleet runs the closed loop in fleetWindows windows and
// verifies each window's lines before the next window starts, so the
// measured time is spread over the whole run instead of coming in one
// stretch before the verification. Throughput and batch latencies are
// medians of the windows' values; the heap peak is the largest window's.
func windowedFleet(ctx context.Context, f *fleet, clients []*client, gen func(client, batch int) []service.JobRequest, out *outcome) error {
	var rates, p50s, p95s, firsts, heaps []float64
	batches := 0
	for w := 0; w < fleetWindows; w++ {
		heap := startHeapPeak()
		st := loop(ctx, clients, w*windowBatches, gen, f.rc.seconds/fleetWindows, nil, out)
		heaps = append(heaps, heap.stopMB())
		if err := f.checkServed(ctx, out, fmt.Sprintf("window %d", w)); err != nil {
			return err
		}
		// A verifier per window: its reference results must not stay on
		// the heap through the next window.
		if err := newVerifier(f.rc.workers).verify(ctx, st.records, gen, f.rc.workers, out); err != nil {
			return err
		}
		rates = append(rates, st.jobsPerSecond())
		p50s = append(p50s, median(st.walls)*1000)
		p95s = append(p95s, quantile(st.walls, 0.95)*1000)
		firsts = append(firsts, median(st.firsts)*1000)
		batches += len(st.walls)
	}
	out.e2e["peak_heap_mb"] = slices.Max(heaps)
	out.e2e["jobs_per_s"] = median(rates)
	out.e2e["latency_p50_ms"] = median(p50s)
	out.e2e["latency_p95_ms"] = median(p95s)
	out.aliases["batch_p50_ms"] = out.e2e["latency_p50_ms"]
	out.aliases["batch_p95_ms"] = out.e2e["latency_p95_ms"]
	out.aliases["first_line_p50_ms"] = median(firsts)
	out.aliases["batches"] = float64(batches)
	return nil
}

// tracedPairs is how many untraced and traced windows a traced fleet
// run alternates, after one warm-up window.
const tracedPairs = 2

// windowBatches numbers each window's batches apart from the others',
// so no two windows send the same batch.
const windowBatches = 1 << 20

// tracedFleet splits the run time into a warm-up window and alternating
// untraced and traced windows, ending on a traced one, so that the
// tracing overhead compares medians taken over the same stretch of the
// run. Per-layer metrics are medians over the traced windows. It
// returns every delivered batch for verification.
func tracedFleet(ctx context.Context, f *fleet, clients []*client, gen func(client, batch int) []service.JobRequest, out *outcome) ([]batchRecord, error) {
	window := f.rc.seconds / (1 + 2*tracedPairs)
	var (
		records       []batchRecord
		firsts        []float64
		plain, traced []float64 // jobs per second
		layers        []map[string]float64
	)
	for w := 0; w <= 2*tracedPairs; w++ {
		var st loopStats
		if w > 0 && w%2 == 0 {
			var L map[string]float64
			var err error
			if st, L, err = tracedWindow(ctx, f, clients, gen, w*windowBatches, window, out); err != nil {
				return nil, err
			}
			layers = append(layers, L)
			traced = append(traced, st.jobsPerSecond())
		} else {
			st = loop(ctx, clients, w*windowBatches, gen, window, nil, out)
			if w > 0 {
				plain = append(plain, st.jobsPerSecond())
				firsts = append(firsts, st.firsts...)
			}
		}
		records = append(records, st.records...)
		if err := f.checkServed(ctx, out, fmt.Sprintf("window %d", w)); err != nil {
			return nil, err
		}
	}
	for _, k := range sortedKeys(layers[0]) {
		var xs []float64
		for _, L := range layers {
			xs = append(xs, L[k])
		}
		out.layer[k] = median(xs)
	}
	out.layer["client.first_line_p50_ms"] = median(firsts) * 1000
	out.layer["trace.overhead_pct"] = 100 * (ratio(median(plain), median(traced)) - 1)
	return records, nil
}

// tracedWindow runs one traced window: the closed loop with the
// benchmark's batch spans recorded and the backends' queues polled,
// bracketed by scrapes of every /metrics endpoint and reads of the
// engines' own counters, from which it derives the per-layer metrics.
func tracedWindow(ctx context.Context, f *fleet, clients []*client, gen func(client, batch int) []service.JobRequest, first int, window float64, out *outcome) (loopStats, map[string]float64, error) {
	hc := &http.Client{Transport: f.route}
	before, err := scrapeFleet(ctx, f, hc)
	if err != nil {
		return loopStats{}, nil, err
	}
	snap0 := snapshotFleet(f)

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	var depthMax int64
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				for _, b := range f.backends {
					depthMax = max(depthMax, b.srv.QueueDepth())
				}
			}
		}
	}()
	fold := newSpanFold()
	st := loop(ctx, clients, first, gen, window, fold, out)
	close(stopPoll)
	pollWG.Wait()

	after, err := scrapeFleet(ctx, f, hc)
	if err != nil {
		return loopStats{}, nil, err
	}
	snap1 := snapshotFleet(f)

	L := map[string]float64{}
	d := func(name string, labels ...string) float64 {
		return series(after.backends, name, labels...) - series(before.backends, name, labels...)
	}
	phase := func(p string) float64 { return d("dvid_phase_duration_seconds_sum", `phase="`+p+`"`) }
	gw := func(name string) float64 { return series(after.gateway, name) - series(before.gateway, name) }

	workers := 0
	for i := range f.backends {
		workers += f.backendWorkers(i)
	}
	job, timing, interval := phase("job"), phase("timing"), phase("interval")
	L["runner.busy_s"] = job
	L["runner.utilization"] = ratio(job, st.elapsed*float64(workers))
	reuse := float64(snap1.machineReuse - snap0.machineReuse)
	fresh := float64(snap1.machineFresh - snap0.machineFresh)
	L["runner.machine_reuse_ratio"] = ratio(reuse, reuse+fresh)
	ckReuse := float64(snap1.ckReuse - snap0.ckReuse)
	ckFresh := float64(snap1.ckFresh - snap0.ckFresh)
	L["checkpoint.reuse_ratio"] = ratio(ckReuse, ckReuse+ckFresh)
	L["service.queue_wait_s"] = phase("queue-wait")
	L["scan.busy_s"] = phase("scan")
	L["interval.busy_s"] = interval
	L["ooo.cycles"] = d("dvid_sim_cycles_total")
	L["ooo.committed"] = d("dvid_sim_instructions_total")
	L["ooo.minst_per_s"] = ratio(L["ooo.committed"], timing+interval) / 1e6
	L["build.hit_ratio"] = ratio(float64(snap1.hits-snap0.hits), float64(snap1.hits-snap0.hits+snap1.misses-snap0.misses))
	L["build.evictions"] = float64(snap1.evictions - snap0.evictions)
	L["store.bytes"] = float64(snap1.storeBytes)
	L["service.rejected"] = d("dvid_admission_rejected_total")
	L["service.queue_depth_max"] = float64(depthMax)
	L["http.bytes_per_job"] = ratio(float64(st.bytes), float64(st.jobs))
	hedges := gw("dvid_hedges_total")
	L["gateway.hedges"] = hedges
	L["gateway.hedge_win_ratio"] = ratio(gw("dvid_hedge_wins_total"), hedges)
	L["gateway.retries"] = gw("dvid_retries_total")
	L["gateway.fallback_local"] = gw("dvid_gateway_fallback_local_total")
	var total, most float64
	for i := range f.backends {
		n := series(after.each[i], "dvid_requests_total", `endpoint="jobs"`) - series(before.each[i], "dvid_requests_total", `endpoint="jobs"`)
		total += n
		most = max(most, n)
	}
	L["gateway.backend_share_max"] = ratio(most, total)

	build, sample := phase("build"), phase("sample")
	L["self.build_s"] = build
	L["self.ooo_s"] = timing + interval
	L["self.emu_s"] = phase("functional") + phase("ctxswitch")
	L["self.sample_s"] = phase("scan") + phase("aggregate")
	L["self.runner_s"] = job - build - timing - interval - L["self.emu_s"]
	L["self.service_s"] = phase("execute") - job - phase("render") - (sample - interval)
	L["client.batch_busy_s"] = fold.totalSeconds("batch")
	return st, L, nil
}

// fleetScrape is one reading of every /metrics endpoint.
type fleetScrape struct {
	gateway  map[string]float64
	each     []map[string]float64
	backends map[string]float64 // summed over backends
}

func scrapeFleet(ctx context.Context, f *fleet, hc *http.Client) (fleetScrape, error) {
	var s fleetScrape
	var err error
	if s.gateway, err = scrape(ctx, http.DefaultClient, f.gatewayURL()); err != nil {
		return s, err
	}
	s.backends = map[string]float64{}
	for _, h := range backendHosts {
		m, err := scrape(ctx, hc, "http://"+h)
		if err != nil {
			return s, err
		}
		s.each = append(s.each, m)
		for k, v := range m {
			s.backends[k] += v
		}
	}
	return s, nil
}

// fleetSnapshot is the backends' engine and store counters, read through
// their public accessors.
type fleetSnapshot struct {
	hits, misses, evictions    int64
	machineReuse, machineFresh int64
	ckReuse, ckFresh           int64
	storeBytes                 int64
}

func snapshotFleet(f *fleet) fleetSnapshot {
	var s fleetSnapshot
	for _, b := range f.backends {
		eng := b.srv.Engine()
		h, m := eng.Cache().Stats()
		s.hits += h
		s.misses += m
		s.evictions += eng.Cache().Evictions()
		p := eng.PoolStats()
		s.machineReuse += p.MachineReuse
		s.machineFresh += p.MachineFresh
		s.ckReuse += p.CheckpointReuse
		s.ckFresh += p.CheckpointFresh
		s.storeBytes += b.st.Stats().Bytes
	}
	return s
}
