// Package gateway fronts a fleet of dvid backends: it consistent-hashes
// build keys across N daemons (so the fleet-wide build cache stays
// single-flight per key), health-checks them, and wraps every dispatch
// in per-request deadlines, capped exponential backoff + jitter
// retries, tail-latency hedging to the next replica, and per-backend
// circuit breakers. Every job the daemon serves is a pure deterministic
// computation — retrying or hedging one is always safe, and any replica
// answers byte-identically — which is what makes this layer possible
// without any coordination between backends.
//
// There is one job path and one backend send function (sendJob): every
// job travels to a backend as a single-job /v2 batch. A /v2 batch fans
// out into such jobs; a /v1 request is one, decoded strictly into the
// same service.JobRequest a batch entry carries, and answered with the
// payload of its result line — the bytes a single node's /v1 endpoint
// writes.
//
// Degradation is graceful by construction: the gateway embeds a local
// service.Server, used to validate every request up front with exactly
// the errors a single-node daemon would produce (an invalid request
// never reaches a backend), to answer the workload catalogue, and to
// execute jobs locally when every backend for a key is down. A /v2
// batch therefore survives backend death mid-stream: the affected jobs
// retry on other replicas or run locally, and their lines arrive in
// order like any other — clients cannot tell a degraded answer from a
// healthy one except by the X-Dvid-Degraded header and the gateway's
// /metrics.
package gateway

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/obs"
	"dvi/internal/service"
)

// DegradedHeader marks responses (or response streams) that the local
// fallback session served in whole or in part because no backend was
// available; its value names the mode ("local").
const DegradedHeader = "X-Dvid-Degraded"

// Defaults applied by New for zero Config fields.
const (
	DefaultRequestTimeout  = 60 * time.Second
	DefaultHedgeAfter      = 150 * time.Millisecond
	DefaultRetries         = 3
	DefaultBackoffBase     = 25 * time.Millisecond
	DefaultBackoffCap      = 1 * time.Second
	DefaultBreakerFailures = 3
	DefaultBreakerCooldown = 2 * time.Second
	DefaultHealthInterval  = 2 * time.Second
	DefaultVirtualNodes    = 64
	DefaultMaxInflight     = 16
	// DefaultMaxResponseBytes is deliberately far above the request
	// limit: simulate responses carrying a full trace routinely dwarf
	// the request that asked for them.
	DefaultMaxResponseBytes = 256 << 20
)

// Config parameterizes a Gateway.
type Config struct {
	// Backends are the dvid base URLs to route across. At least one is
	// required.
	Backends []string
	// Local is the embedded fallback service. Required: it provides
	// validation parity with single-node daemons, the workload
	// catalogue, and the degradation path when every backend is down.
	Local *service.Server
	// RequestTimeout bounds each dispatch attempt to one backend
	// (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// HedgeAfter launches a duplicate request on the next replica when
	// the primary has not answered within this budget; first success
	// wins (0 = DefaultHedgeAfter, negative = hedging off).
	HedgeAfter time.Duration
	// Retries is how many additional attempts a failed dispatch gets
	// across replicas (0 = DefaultRetries, negative = none).
	Retries int
	// BackoffBase/BackoffCap shape the capped exponential backoff with
	// jitter between attempts (0 = defaults).
	BackoffBase, BackoffCap time.Duration
	// BreakerFailures consecutive failures open a backend's circuit
	// breaker for BreakerCooldown (0 = defaults).
	BreakerFailures int
	BreakerCooldown time.Duration
	// HealthInterval is the active health-check period
	// (0 = DefaultHealthInterval).
	HealthInterval time.Duration
	// VirtualNodes is the consistent-hash ring's points per backend
	// (0 = DefaultVirtualNodes).
	VirtualNodes int
	// MaxInflight bounds concurrently dispatched jobs per /v2 batch
	// (0 = DefaultMaxInflight).
	MaxInflight int
	// MaxRequestBytes bounds request bodies
	// (0 = service.DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// MaxResponseBytes bounds buffered backend response bodies
	// (0 = DefaultMaxResponseBytes). A larger answer is an error —
	// retried elsewhere or served by the local fallback — never
	// silently truncated: a clipped body forwarded as a 200 would break
	// the byte-identical-to-single-node contract.
	MaxResponseBytes int64
	// MaxJobs caps jobs per /v2 batch (0 = service.DefaultMaxJobs).
	MaxJobs int
	// Seed seeds the backoff jitter; fault-injection tests pin it for
	// reproducible schedules.
	Seed int64
	// Transport overrides the backend HTTP transport (tests inject
	// faults here); nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Logger receives structured logs (nil = discard).
	Logger *slog.Logger
	// TraceRing is how many recent request span trees
	// /debug/trace/recent retains (0 = service default, negative =
	// disabled).
	TraceRing int
}

// backend is one dvid replica and its recovery state.
type backend struct {
	url     string
	healthy atomic.Bool // last active-probe verdict (optimistic start)
	br      *breaker
	fails   atomic.Int64 // dispatch failures, for /metrics
}

// Gateway routes dvid traffic across a fleet. Construct with New; it is
// an http.Handler serving the same endpoints as a dvid backend.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *ring
	hc       *http.Client
	local    *service.Server
	mux      *http.ServeMux
	log      *slog.Logger
	rec      *obs.Recorder
	met      gwMetrics
	start    time.Time

	jmu sync.Mutex // jitter PRNG
	jrn *rand.Rand

	stop     context.CancelFunc
	checkerD chan struct{} // closed when the health loop exits
}

// New builds a Gateway. It does not probe backends; call Start to run
// the active health checker (backends are assumed healthy until a probe
// says otherwise, so startup order does not matter).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	if cfg.Local == nil {
		return nil, errors.New("gateway: a local fallback service is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = DefaultBreakerFailures
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = service.DefaultMaxRequestBytes
	}
	if cfg.MaxResponseBytes <= 0 {
		cfg.MaxResponseBytes = DefaultMaxResponseBytes
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = service.DefaultMaxJobs
	}

	g := &Gateway{
		cfg:   cfg,
		ring:  newRing(cfg.Backends, cfg.VirtualNodes),
		local: cfg.Local,
		log:   cfg.Logger,
		start: time.Now(),
		jrn:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if g.log == nil {
		g.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TraceRing >= 0 {
		ring := cfg.TraceRing
		if ring == 0 {
			ring = service.DefaultTraceRing
		}
		g.rec = obs.NewRecorder(ring)
	}
	for _, u := range cfg.Backends {
		b := &backend{url: u, br: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)}
		b.healthy.Store(true)
		g.backends = append(g.backends, b)
	}
	g.hc = &http.Client{Transport: cfg.Transport}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", g.front("jobs", g.handleJobs))
	for _, kind := range []string{"annotate", "simulate", "ctxswitch"} {
		mux.HandleFunc("POST /v1/"+kind, g.front(kind, g.handleV1(kind)))
	}
	// The catalogue every request is validated against answers locally.
	mux.Handle("GET /v1/workloads", g.local)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /debug/trace/recent", g.handleTraceRecent)
	g.mux = mux
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// --- routing keys ---

// routeKey derives the consistent-hash key from a request's source: the
// workload name and scale (every flavour of one workload shares a
// backend, so its builds coalesce fleet-wide), or a digest of submitted
// assembly (identical submissions share a backend the same way).
func routeKey(workload, asm string, scale int) string {
	if asm != "" {
		sum := sha256.Sum256([]byte(asm))
		return "asm:" + hex.EncodeToString(sum[:12]) + "/x1"
	}
	if scale < 1 {
		scale = 1
	}
	return workload + "/x" + strconv.Itoa(scale)
}

// routeKeyJob extracts the routing key from a /v2 batch entry.
func routeKeyJob(jr service.JobRequest) string {
	switch {
	case jr.Simulate != nil:
		return routeKey(jr.Simulate.Workload, jr.Simulate.Asm, jr.Simulate.Scale)
	case jr.CtxSwitch != nil:
		return routeKey(jr.CtxSwitch.Workload, jr.CtxSwitch.Asm, jr.CtxSwitch.Scale)
	case jr.Annotate != nil:
		return routeKey(jr.Annotate.Workload, jr.Annotate.Asm, jr.Annotate.Scale)
	}
	return ""
}

// --- dispatch with recovery ---

// pick selects the attempt-th available backend in the key's ring
// order (consuming its breaker's admission), plus a hedge candidate: a
// distinct healthy backend whose breaker is fully closed, so a hedge
// never burns a half-open probe slot. Either may be nil.
func (g *Gateway) pick(key string, attempt int) (primary, hedge *backend) {
	now := time.Now()
	var avail []*backend
	for _, idx := range g.ring.ordered(key) {
		b := g.backends[idx]
		if b.healthy.Load() {
			avail = append(avail, b)
		}
	}
	if len(avail) == 0 {
		return nil, nil
	}
	for i := 0; i < len(avail); i++ {
		b := avail[(attempt+i)%len(avail)]
		if primary == nil && b.br.allow(now) {
			primary = b
			continue
		}
		if primary != nil && hedge == nil && b.br.closed() {
			hedge = b
		}
	}
	return primary, hedge
}

// available counts backends currently considered routable: actively
// healthy with a fully closed breaker. Half-open does not count — at
// most one probe passes through it, so with every breaker open or
// half-open nearly all traffic runs on the local fallback, and /healthz
// plus the degraded header must say so rather than report a healthy
// fleet.
func (g *Gateway) available() int {
	n := 0
	for _, b := range g.backends {
		if b.healthy.Load() && b.br.closed() {
			n++
		}
	}
	return n
}

// errNoBackends reports that no backend was available for a dispatch.
var errNoBackends = errors.New("gateway: no backend available")

// readBody buffers a backend response body in full, erroring — so the
// dispatch ladder retries elsewhere or falls back locally — when it
// exceeds the response budget, instead of silently truncating it.
func (g *Gateway) readBody(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, g.cfg.MaxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > g.cfg.MaxResponseBytes {
		return nil, fmt.Errorf("gateway: backend response exceeds %d bytes", g.cfg.MaxResponseBytes)
	}
	return data, nil
}

// backoff returns the jittered delay before retry number attempt
// (capped exponential, uniform jitter in [50%, 100%]).
func (g *Gateway) backoff(attempt int) time.Duration {
	d := g.cfg.BackoffBase << attempt
	if d > g.cfg.BackoffCap || d <= 0 {
		d = g.cfg.BackoffCap
	}
	g.jmu.Lock()
	f := 0.5 + 0.5*g.jrn.Float64()
	g.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// dispatch runs send against the fleet with the full recovery ladder:
// ring-ordered backend selection, per-attempt deadline (inside send),
// hedging, breaker accounting, and capped backoff retries. send must be
// idempotent — every dvid job is a pure deterministic computation, so
// it is. A nil error means send succeeded on the returned backend; the
// caller falls back locally on error.
func dispatch[T any](g *Gateway, ctx context.Context, key string, send func(context.Context, *backend) (T, error)) (T, *backend, error) {
	var zero T
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, nil, err
		}
		primary, hedge := g.pick(key, attempt)
		if primary == nil {
			if lastErr != nil {
				return zero, nil, lastErr
			}
			return zero, nil, errNoBackends
		}
		v, b, err := hedged(g, ctx, primary, hedge, send)
		if err == nil {
			return v, b, nil
		}
		lastErr = err
		if attempt >= g.cfg.Retries {
			return zero, nil, lastErr
		}
		g.met.retries.Add(1)
		select {
		case <-time.After(g.backoff(attempt)):
		case <-ctx.Done():
			return zero, nil, ctx.Err()
		}
	}
}

// hedged runs send on primary and, if it has not answered within
// HedgeAfter, duplicates it on hedge; the first success wins and the
// loser is cancelled.
func hedged[T any](g *Gateway, ctx context.Context, primary, hedge *backend, send func(context.Context, *backend) (T, error)) (T, *backend, error) {
	type outcome struct {
		v   T
		b   *backend
		err error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	// Breaker and failure accounting happen inside the send goroutine,
	// not the select loop below: when the other attempt wins the race
	// (or the caller abandons both), hedged returns without draining ch,
	// and the loser must still settle its breaker — in particular a
	// half-open probe slot consumed by pick, which would otherwise wedge
	// the breaker half-open and eject the backend from rotation forever.
	// A send that failed only because hctx was cancelled is abandoned
	// rather than counted: losing the race is not the backend's fault.
	launch := func(b *backend) {
		go func() {
			v, err := send(hctx, b)
			switch {
			case err == nil:
				b.br.success()
			case hctx.Err() != nil:
				b.br.abandon()
			default:
				b.br.failure(time.Now())
				b.fails.Add(1)
			}
			ch <- outcome{v, b, err}
		}()
	}
	launch(primary)
	inflight := 1
	var hedgeC <-chan time.Time
	if hedge != nil && g.cfg.HedgeAfter > 0 {
		t := time.NewTimer(g.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var zero T
	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				if o.b == hedge {
					g.met.hedgeWins.Add(1)
				}
				return o.v, o.b, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inflight == 0 {
				return zero, nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			g.met.hedges.Add(1)
			launch(hedge)
			inflight++
		case <-hctx.Done():
			// Abandoned from above; in-flight sends resolve into the
			// buffered channel.
			return zero, nil, hctx.Err()
		}
	}
}

// --- /v2/jobs ---

// rawLine is one NDJSON line with payloads kept as raw bytes: the
// gateway re-frames backend lines (rewriting the index from the
// single-job sub-batch back to the client's batch position) without
// decoding and re-encoding payloads, so reassembled responses stay
// byte-identical to a single-node daemon's. Field order mirrors
// service.JobResult — the wire contract.
type rawLine struct {
	Index     int             `json:"index"`
	Kind      string          `json:"kind"`
	Simulate  json.RawMessage `json:"simulate,omitempty"`
	CtxSwitch json.RawMessage `json:"ctxswitch,omitempty"`
	Annotate  json.RawMessage `json:"annotate,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// payload is the line's job result object: the bytes a single node's
// /v1 endpoint answers for the same job, less the trailing newline.
func (l *rawLine) payload() json.RawMessage {
	switch l.Kind {
	case "simulate":
		return l.Simulate
	case "ctxswitch":
		return l.CtxSwitch
	}
	return l.Annotate
}

// frame encodes the line at batch position idx, newline-terminated.
func (l *rawLine) frame(idx int) []byte {
	l.Index = idx
	out, err := json.Marshal(l)
	if err != nil {
		out = []byte(fmt.Sprintf(`{"index":%d,"kind":%q,"error":"gateway: encode result line"}`, idx, l.Kind))
	}
	return append(out, '\n')
}

// toRawLine converts a locally executed result into the wire framing.
// Decoding a payload into a json.RawMessage keeps its bytes as
// encoded, so they match a backend's line for the same job.
func toRawLine(res service.JobResult) (rawLine, error) {
	var rl rawLine
	b, err := json.Marshal(res)
	if err == nil {
		err = json.Unmarshal(b, &rl)
	}
	return rl, err
}

// sendJob dispatches one job to one backend as a single-job /v2 batch
// and returns its (single) result line. Any transport failure, non-OK
// status, or truncated/malformed stream — a backend killed mid-write —
// is an error, which dispatch retries elsewhere: per-job error
// isolation survives backend death because only deterministic per-job
// failures travel inside a successfully parsed line. A non-empty reqID
// travels as the backend request's X-Request-Id, so the backend's span
// tree and logs correlate with the gateway's.
func (g *Gateway) sendJob(ctx context.Context, b *backend, body []byte, reqID string) (rawLine, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v2/jobs", bytes.NewReader(body))
	if err != nil {
		return rawLine{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	res, err := g.hc.Do(req)
	if err != nil {
		return rawLine{}, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(res.Body, 4096))
		return rawLine{}, fmt.Errorf("gateway: backend %s: status %d", b.url, res.StatusCode)
	}
	data, err := g.readBody(res.Body)
	if err != nil {
		return rawLine{}, err
	}
	var line rawLine
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&line); err != nil {
		return rawLine{}, fmt.Errorf("gateway: backend %s: bad result line: %w", b.url, err)
	}
	if dec.More() {
		return rawLine{}, fmt.Errorf("gateway: backend %s: more than one result line", b.url)
	}
	if line.Kind == "" {
		return rawLine{}, fmt.Errorf("gateway: backend %s: result line without kind", b.url)
	}
	return line, nil
}

// runJob resolves one job to its result line: backend dispatch with the
// full recovery ladder, then local execution when the fleet cannot
// answer, which local reports. A nil line means the client is gone and
// nobody reads it.
func (g *Gateway) runJob(ctx context.Context, idx int, jr service.JobRequest, body []byte, reqID string) (line *rawLine, local bool) {
	ctx, span := obs.StartSpan(ctx, "gateway-job")
	key := routeKeyJob(jr)
	if span != nil {
		span.SetAttr("index", idx)
		span.SetAttr("key", key)
		defer span.End()
	}
	rl, b, err := dispatch(g, ctx, key, func(ctx context.Context, b *backend) (rawLine, error) {
		return g.sendJob(ctx, b, body, reqID)
	})
	switch {
	case err == nil:
		if span != nil {
			span.SetAttr("backend", b.url)
		}
		return &rl, false
	case ctx.Err() != nil:
		return nil, false
	}
	// Every replica for this key is down or exhausted its retry budget:
	// run the job on the embedded session instead of failing it.
	g.met.fallbackLocal.Add(1)
	if span != nil {
		span.SetAttr("fallback", "local")
	}
	g.log.Warn("gateway: local fallback", "index", idx, "key", key, "err", err)
	rl, err = toRawLine(g.local.ExecuteJob(ctx, jr))
	if err != nil {
		rl = rawLine{Kind: jr.Kind, Error: fmt.Sprintf("gateway: encode local result: %v", err)}
	}
	return &rl, true
}

// front wraps a POST endpoint with what every gateway request shares: a
// root span carrying the inbound X-Request-Id, per-endpoint metrics, and
// the bounded body read. h answers the request and returns its status.
func (g *Gateway) front(name string, h func(http.ResponseWriter, *http.Request, []byte) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		if g.rec != nil {
			ctx = obs.WithRecorder(ctx, g.rec)
		}
		ctx, span := obs.StartSpan(ctx, "gateway-"+name)
		if id := r.Header.Get("X-Request-Id"); id != "" && span != nil {
			span.SetAttr("request_id", id)
		}
		var code int
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxRequestBytes))
		if err != nil {
			code = http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			g.writeError(w, code, "read request body: %v", err)
		} else {
			code = h(w, r.WithContext(ctx), body)
		}
		if span != nil {
			span.SetAttr("code", code)
			span.End()
		}
		g.met.observe(name, code, time.Since(start))
	}
}

// handleJobs is the gateway's POST /v2/jobs: the batch is validated up
// front through the embedded service (same errors, same 400s as a
// single-node daemon), then every job dispatches independently across
// the fleet and lines stream back in submission order — line i flushes
// as soon as jobs 0..i are done, wherever each one ran.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request, body []byte) int {
	var req service.JobsRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return g.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	if len(req.Jobs) == 0 {
		return g.writeError(w, http.StatusBadRequest, "at least one job is required")
	}
	if len(req.Jobs) > g.cfg.MaxJobs {
		return g.writeError(w, http.StatusBadRequest, "batch of %d jobs exceeds the %d-job limit", len(req.Jobs), g.cfg.MaxJobs)
	}
	// Whole-batch validation before the first response byte, exactly
	// like a single-node daemon: an invalid job rejects the batch.
	for i, jr := range req.Jobs {
		if err := g.local.ValidateJob(jr); err != nil {
			return g.writeError(w, http.StatusBadRequest, "jobs[%d]: %v", i, err)
		}
	}

	// Pre-encode each single-job sub-batch once; retries and hedges
	// reuse the bytes.
	bodies := make([][]byte, len(req.Jobs))
	for i, jr := range req.Jobs {
		bb, err := oneJobBody(jr)
		if err != nil {
			return g.writeError(w, http.StatusBadRequest, "jobs[%d]: encode: %v", i, err)
		}
		bodies[i] = bb
	}

	if g.available() == 0 {
		// Headers must precede the stream; per-job fallback later in
		// the batch is visible on /metrics instead.
		w.Header().Set(DegradedHeader, "local")
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	jctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	reqID := r.Header.Get("X-Request-Id")
	n := len(req.Jobs)
	results := make([][]byte, n)
	readyCh := make(chan int, n)
	sem := make(chan struct{}, g.cfg.MaxInflight)
	for i := range req.Jobs {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			if line, _ := g.runJob(jctx, i, req.Jobs[i], bodies[i], reqID); line != nil {
				results[i] = line.frame(i)
			}
			readyCh <- i
		}(i)
	}

	// Ordered prefix delivery: flush line i once jobs 0..i are done.
	ready := make([]bool, n)
	next := 0
	for received := 0; received < n && next < n; received++ {
		ready[<-readyCh] = true
		for next < n && ready[next] {
			if results[next] == nil {
				// The client went away mid-batch; stop delivering.
				return http.StatusOK
			}
			if _, err := w.Write(results[next]); err != nil {
				return http.StatusOK
			}
			if flusher != nil {
				flusher.Flush()
			}
			next++
		}
	}
	return http.StatusOK
}

// oneJobBody encodes jr as the single-job /v2 batch sent to backends.
func oneJobBody(jr service.JobRequest) ([]byte, error) {
	return json.Marshal(service.JobsRequest{Jobs: []service.JobRequest{jr}})
}

// --- /v1 ---

// handleV1 serves the /v1 POST endpoint for kind as a one-job /v2
// dispatch. The body decodes strictly into the kind's request and
// validates through the embedded service, so a bad request answers the
// single node's 400 here and never reaches a backend; the job then
// resolves through runJob like any batch entry. A successful line
// answers with its raw payload plus a newline, the exact bytes a single
// node's /v1 endpoint writes; a failed line answers the single node's
// 400 with the line's error.
func (g *Gateway) handleV1(kind string) func(http.ResponseWriter, *http.Request, []byte) int {
	return func(w http.ResponseWriter, r *http.Request, body []byte) int {
		jr, err := service.DecodeV1(kind, bytes.NewReader(body))
		if err != nil {
			return g.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		if err := g.local.ValidateJob(jr); err != nil {
			return g.writeError(w, http.StatusBadRequest, "%v", err)
		}
		sub, err := oneJobBody(jr)
		if err != nil {
			return g.writeError(w, http.StatusBadRequest, "encode: %v", err)
		}
		line, local := g.runJob(r.Context(), 0, jr, sub, r.Header.Get("X-Request-Id"))
		if err := r.Context().Err(); err != nil {
			return g.writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
		}
		if local {
			w.Header().Set(DegradedHeader, "local")
		}
		if line.Error != "" {
			return g.writeError(w, http.StatusBadRequest, "%s", line.Error)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(append(line.payload(), '\n'))
		return http.StatusOK
	}
}

// --- helpers ---

// writeError answers a JSON error body, the same bytes a single node
// writes, and returns code.
func (g *Gateway) writeError(w http.ResponseWriter, code int, format string, args ...any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(service.Error{Message: fmt.Sprintf(format, args...)})
	return code
}

// handleTraceRecent mirrors the backend endpoint for the gateway's own
// span trees.
func (g *Gateway) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if g.rec == nil {
		g.writeError(w, http.StatusNotFound, "trace recorder disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(service.TraceRecent{Traces: g.rec.Recent()})
}
