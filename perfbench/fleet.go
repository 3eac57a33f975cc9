package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/gateway"
	"dvi/internal/obs"
	"dvi/internal/service"
	"dvi/internal/store"
)

// The fleet: a gateway.Gateway over two service.Server backends, each on
// its own artifact store, all served over real loopback HTTP in this
// process. Backends have fixed logical URLs (http://b0, http://b1) that a
// pinned transport routes to the listeners, so the gateway's
// consistent-hash ring, and with it every key's placement, is the same
// on every run.

var backendHosts = []string{"b0", "b1"}

// pinnedTransport routes the backends' logical hosts to their current
// loopback listeners.
type pinnedTransport struct {
	mu    sync.RWMutex
	addrs map[string]string
	base  *http.Transport
}

func newPinnedTransport() *pinnedTransport {
	return &pinnedTransport{addrs: map[string]string{}, base: &http.Transport{MaxIdleConnsPerHost: 64}}
}

func (t *pinnedTransport) set(host, addr string) {
	t.mu.Lock()
	t.addrs[host] = addr
	t.mu.Unlock()
}

func (t *pinnedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.RLock()
	addr, ok := t.addrs[req.URL.Host]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("perfbench: no route to backend %q", req.URL.Host)
	}
	r := req.Clone(req.Context())
	r.URL.Host = addr
	return t.base.RoundTrip(r)
}

// listener is one loopback HTTP server.
type listener struct {
	hs   *http.Server
	addr string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return l, nil
}

// stop shuts the server down gracefully and waits for it to exit.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// backend is one dvid replica.
type backend struct {
	srv *service.Server
	st  *store.Store
	l   *listener
}

// fleet is the gateway, its backends and their stores.
type fleet struct {
	rc       *runConfig
	dir      string
	route    *pinnedTransport
	backends []*backend
	local    *service.Server // the gateway's in-process fallback
	gwL      *listener       // the gateway's
	// fallbacks and rejections are the last readings checkServed saw.
	fallbacks, rejections float64
}

// startFleet starts the backends on fresh stores under dir and the
// gateway in front of them. The backends' worker pools sum to the
// machine's CPUs.
func startFleet(rc *runConfig, dir string) (*fleet, error) {
	f := &fleet{rc: rc, dir: dir, route: newPinnedTransport()}
	f.backends = make([]*backend, len(backendHosts))
	for i := range backendHosts {
		if err := f.startBackend(i); err != nil {
			f.close()
			return nil, err
		}
	}
	var urls []string
	for _, h := range backendHosts {
		urls = append(urls, "http://"+h)
	}
	f.local = service.New(service.Config{Workers: rc.workers})
	gw, err := gateway.New(gateway.Config{
		Backends:  urls,
		Local:     f.local,
		Transport: f.route,
		Seed:      int64(rc.seed),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.gwL, err = serve(gw); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// backendWorkers splits the machine's CPUs over the backends.
func (f *fleet) backendWorkers(i int) int {
	n := len(backendHosts)
	w := f.rc.workers / n
	if i < f.rc.workers%n {
		w++
	}
	return max(w, 1)
}

// startBackend (re)starts backend i on its store directory.
func (f *fleet) startBackend(i int) error {
	st, err := store.Open(store.Options{Dir: filepath.Join(f.dir, backendHosts[i])})
	if err != nil {
		return err
	}
	srv := service.New(service.Config{Workers: f.backendWorkers(i), Store: st})
	l, err := serve(srv)
	if err != nil {
		return err
	}
	f.backends[i] = &backend{srv: srv, st: st, l: l}
	f.route.set(backendHosts[i], l.addr)
	return nil
}

// restart stops every backend and starts it again on the same store: a
// warm restart.
func (f *fleet) restart() error {
	for _, b := range f.backends {
		b.l.stop()
	}
	for i := range f.backends {
		if err := f.startBackend(i); err != nil {
			return fmt.Errorf("restart %s: %w", backendHosts[i], err)
		}
	}
	f.rejections = 0 // the new backends count from zero
	return nil
}

func (f *fleet) close() {
	if f.gwL != nil {
		f.gwL.stop()
	}
	for _, b := range f.backends {
		if b != nil {
			b.l.stop()
		}
	}
	f.route.base.CloseIdleConnections()
}

func (f *fleet) gatewayURL() string { return "http://" + f.gwL.addr }

// compiles sums the build-cache compiles of the backends and of the
// gateway's local fallback.
func (f *fleet) compiles() int64 {
	n := f.local.Engine().Cache().Compiles()
	for _, b := range f.backends {
		n += b.srv.Engine().Cache().Compiles()
	}
	return n
}

// checkServed fails the outcome when, since the last call, the gateway
// ran jobs on its local fallback or a backend's admission control
// turned a request away: the lines would still verify, but the fleet
// would not have served them as configured.
func (f *fleet) checkServed(ctx context.Context, out *outcome, what string) error {
	gw, err := scrape(ctx, http.DefaultClient, f.gatewayURL())
	if err != nil {
		return err
	}
	hc := &http.Client{Transport: f.route}
	var rejections float64
	for _, h := range backendHosts {
		m, err := scrape(ctx, hc, "http://"+h)
		if err != nil {
			return err
		}
		rejections += series(m, "dvid_admission_rejected_total")
	}
	fallbacks := series(gw, "dvid_gateway_fallback_local_total")
	out.check(fallbacks == f.fallbacks, "%s: the gateway served %g jobs on its local fallback", what, fallbacks-f.fallbacks)
	out.check(rejections == f.rejections, "%s: the backends rejected %g requests", what, rejections-f.rejections)
	f.fallbacks, f.rejections = fallbacks, rejections
	return nil
}

// storePuts sums the backends' artifact-store writes.
func (f *fleet) storePuts() int64 {
	var n int64
	for _, b := range f.backends {
		n += b.st.Stats().Puts
	}
	return n
}

// --- clients ---

// teeTransport keeps a copy of the response bytes of the one request a
// closed-loop client has in flight, and counts bytes both ways.
type teeTransport struct {
	base     *http.Transport
	buf      bytes.Buffer
	sent     int64
	received int64
}

func (t *teeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.sent += req.ContentLength
	}
	res, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	res.Body = &teeBody{ReadCloser: res.Body, t: t}
	return res, nil
}

type teeBody struct {
	io.ReadCloser
	t *teeTransport
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.buf.Write(p[:n])
	b.t.received += int64(n)
	return n, err
}

// client is one closed-loop caller: a service.Client on its own
// connection.
type client struct {
	cl  *service.Client
	tee *teeTransport
}

func newClient(base string) *client {
	tee := &teeTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}}
	return &client{cl: service.NewClient(base, &http.Client{Transport: tee}), tee: tee}
}

func (c *client) close() { c.tee.base.CloseIdleConnections() }

// batchOut is one batch as the client saw it.
type batchOut struct {
	wall, first time.Duration
	lines       [][32]byte // sha256 of each NDJSON line, newline included
	failedLines int
	lineErr     string
	err         error
}

// run sends one /v2 batch and waits for its last line.
func (c *client) run(ctx context.Context, jobs []service.JobRequest) batchOut {
	var out batchOut
	c.tee.buf.Reset()
	start := time.Now()
	out.err = c.cl.RunJobs(ctx, jobs, func(jr service.JobResult) error {
		if out.first == 0 {
			out.first = time.Since(start)
		}
		if jr.Error != "" {
			out.failedLines++
			out.lineErr = jr.Error
		}
		return nil
	})
	out.wall = time.Since(start)
	sc := bufio.NewScanner(bytes.NewReader(c.tee.buf.Bytes()))
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		out.lines = append(out.lines, sha256.Sum256(append(sc.Bytes(), '\n')))
	}
	return out
}

// batchRecord identifies a delivered batch for later verification.
// Loop batches are regenerated from (client, batch); set-up batches
// carry their jobs.
type batchRecord struct {
	client, batch int
	jobs          []service.JobRequest
	lines         [][32]byte
}

// account folds one batch into the outcome and, when it was delivered,
// returns its record for verification.
func account(out *outcome, client, batch int, jobs int, b batchOut) (batchRecord, bool) {
	out.attempted += int64(jobs)
	switch {
	case b.err != nil:
		out.failed += int64(jobs) - 1
		out.fail("client %d batch %d: %v", client, batch, b.err)
		return batchRecord{}, false
	case b.failedLines > 0:
		out.failed += int64(b.failedLines) - 1
		out.fail("client %d batch %d: %d failed lines, e.g. %s", client, batch, b.failedLines, b.lineErr)
	}
	return batchRecord{client: client, batch: batch, lines: b.lines}, true
}

// loopStats is what one closed-loop window measured.
type loopStats struct {
	jobs          int
	elapsed       float64
	walls, firsts []float64
	bytes         int64
	records       []batchRecord
}

// jobsPerSecond is the window's throughput.
func (st loopStats) jobsPerSecond() float64 { return ratio(float64(st.jobs), st.elapsed) }

// loop runs one closed-loop window: every client sends its next batch
// as soon as the previous one's last line arrived, until seconds have
// passed; the window ends when the last batch in flight completes.
// Batches are numbered from first per client, so consecutive windows
// send fresh batches.
func loop(ctx context.Context, clients []*client, first int, gen func(client, batch int) []service.JobRequest, seconds float64, fold *spanFold, out *outcome) loopStats {
	if fold != nil {
		ctx = obs.WithRecorder(ctx, fold.recorder())
	}
	type clientLog struct {
		outs  []batchOut
		sizes []int
	}
	logs := make([]clientLog, len(clients))
	var bytes0 int64
	for _, c := range clients {
		bytes0 += c.tee.sent + c.tee.received
	}
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for k := first; since(start) < seconds; k++ {
				jobs := gen(ci, k)
				bctx, span := obs.StartSpan(ctx, "batch")
				logs[ci].outs = append(logs[ci].outs, c.run(bctx, jobs))
				span.End()
				logs[ci].sizes = append(logs[ci].sizes, len(jobs))
			}
		}(ci, c)
	}
	wg.Wait()
	st := loopStats{elapsed: since(start)}
	for ci, lg := range logs {
		for i, b := range lg.outs {
			st.jobs += lg.sizes[i]
			st.walls = append(st.walls, b.wall.Seconds())
			if b.first > 0 {
				st.firsts = append(st.firsts, b.first.Seconds())
			}
			if rec, ok := account(out, ci, first+i, lg.sizes[i], b); ok {
				st.records = append(st.records, rec)
			}
		}
	}
	for _, c := range clients {
		st.bytes += c.tee.sent + c.tee.received
	}
	st.bytes -= bytes0
	return st
}

// --- verification ---

// verifier checks delivered lines against Server.ExecuteJob of the same
// request on an in-process server with no fleet in front of it. A
// request seen before reuses its reference result.
type verifier struct {
	ref  *service.Server
	mu   sync.Mutex
	memo map[string]service.JobResult // by request JSON
}

func newVerifier(workers int) *verifier {
	return &verifier{ref: service.New(service.Config{Workers: workers}), memo: map[string]service.JobResult{}}
}

// want returns the sha256 of the line the fleet must deliver for jr at
// position idx of its batch.
func (v *verifier) want(ctx context.Context, jr service.JobRequest, idx int) ([32]byte, error) {
	b, err := json.Marshal(jr)
	if err != nil {
		return [32]byte{}, err
	}
	key := string(b)
	v.mu.Lock()
	res, ok := v.memo[key]
	v.mu.Unlock()
	if !ok {
		res = v.ref.ExecuteJob(ctx, jr)
		v.mu.Lock()
		v.memo[key] = res
		v.mu.Unlock()
	}
	res.Index = idx
	if b, err = json.Marshal(res); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append(b, '\n')), nil
}

// verify checks every recorded batch, regenerating its jobs from the
// seed, on workers goroutines.
func (v *verifier) verify(ctx context.Context, recs []batchRecord, gen func(client, batch int) []service.JobRequest, workers int, out *outcome) error {
	type mismatch struct {
		rec     batchRecord
		idx     int
		missing bool
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		bad      []mismatch
		firstErr error
		checked  atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				rec := recs[i]
				jobs := rec.jobs
				if jobs == nil {
					jobs = gen(rec.client, rec.batch)
				}
				for j, jr := range jobs {
					checked.Add(1)
					if j >= len(rec.lines) {
						mu.Lock()
						bad = append(bad, mismatch{rec, j, true})
						mu.Unlock()
						continue
					}
					want, err := v.want(ctx, jr, j)
					mu.Lock()
					switch {
					case err != nil && firstErr == nil:
						firstErr = err
					case err == nil && want != rec.lines[j]:
						bad = append(bad, mismatch{rec, j, false})
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("verify: %w", firstErr)
	}
	out.attempted += checked.Load()
	for _, m := range bad {
		if m.missing {
			out.fail("client %d batch %d line %d: missing", m.rec.client, m.rec.batch, m.idx)
		} else {
			out.fail("client %d batch %d line %d: differs from Server.ExecuteJob", m.rec.client, m.rec.batch, m.idx)
		}
	}
	return nil
}

// --- /metrics ---

// scrape reads a Prometheus text exposition into series → value.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	res, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, res.StatusCode)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// series sums every series of metric name whose labels contain all of
// the given label pairs (e.g. `phase="job"`).
func series(m map[string]float64, name string, labels ...string) float64 {
	var sum float64
	for k, v := range m {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if ok {
			sum += v
		}
	}
	return sum
}
