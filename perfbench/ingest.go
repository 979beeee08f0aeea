package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/ingest"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/rng"
)

const (
	// ingestScale sizes the dataset the detector is trained on and the
	// labelled window pool is drawn from.
	ingestScale = 0.02
	// ingest_http's fleet is `hpcmal fleetgen`'s default, the repository's
	// ingest load-test harness: 4 tenants x 8 endpoints, 64-window JSON
	// batches, a fresh sampled traceparent on every request.
	httpTenants  = 4
	numEndpoints = 8
	httpBatch    = 64
	// ingest_inproc bursts one batch into each of 8 tenants per round; a
	// batch is the shards' drain chunk, so each Enqueue fills one.
	inprocTenants = 8
	inprocBatch   = 512
	maxTenants    = max(httpTenants, inprocTenants)
	// numBatches distinct batches are built in set-up and cycled; batch b
	// always comes from endpoint b / tenants % numEndpoints of tenant
	// b % tenants, as each fleetgen endpoint posts its own windows.
	numBatches   = 64
	setupRepeats = 3
	// warmup runs the closed loop untimed first, so connections, tenant
	// state and the heap are in their steady state when timing starts.
	warmup = time.Second
	// Latencies are cut into blocks of latencyBlock consecutive samples.
	// latency_p50_ms is the mean over blocks of each block's median: the
	// request latency is bimodal, and the share of each mode follows the
	// host's speed phases, so the pooled median jumps between modes from
	// run to run while the mean of block medians moves smoothly.
	// latency_tail_ms is the median over blocks of each block's
	// tailPercentile, so a burst of steal moves it by one block's share.
	// It is p90, not p99: on a 2-vCPU VM whose hypervisor steals 0-35% of
	// the CPU time, p99 moved up to 4x between runs of the same code,
	// tracking the steal, while p90 stayed within the bound. p99 and p99.9
	// are still printed.
	latencyBlock   = 1000
	tailPercentile = 90
	// datasetSeed is `hpcmal serve`'s default -seed: the detector and the
	// window pool are the same for every run, and --seed only decides
	// the order the pool is sent in.
	datasetSeed = 1
	// serveHeadRatio is the request tracer's head-sampling ratio in
	// `hpcmal serve`'s defaults.
	serveHeadRatio = 0.05
)

// traffic is what one ingest workload sends: batches of batch windows
// spread over tenants tenants, JSON-encoded when encode is set.
type traffic struct {
	batch, tenants int
	encode         bool
}

var (
	httpTraffic   = traffic{batch: httpBatch, tenants: httpTenants, encode: true}
	inprocTraffic = traffic{batch: inprocBatch, tenants: inprocTenants}
)

// tenantIDs are built once, so the measured loops do not allocate them.
var tenantIDs = func() (ids [maxTenants]string) {
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return ids
}()

// fixture is one set-up: a trained detector, a started service built
// the way `hpcmal serve` builds it, and the batches the run sends.
type fixture struct {
	clf    ml.Classifier
	events []string
	base   *quality.Baseline
	// prog is the compiled program the traced run replays chunks through.
	prog *infer.Program

	svc  *ingest.Service
	stop context.CancelFunc

	tenants int // batch b goes to tenant b % tenants
	batches [][]ingest.Window
	bodies  [][]byte // JSON ingest.Batch bodies of batches (HTTP only)
	// malware is the uncompiled classifier's malware verdict count per
	// batch: the reference the service's compiled program must match.
	malware []int64
}

// newFixture generates the fixed-seed dataset, trains J48 on it, arms
// the drift baseline, starts the service and builds numBatches batches
// of tr's size from the labelled rows, taken in an order drawn from seed
// and encoded as JSON when tr says so.
func newFixture(seed uint64, tr traffic) (*fixture, error) {
	tbl, err := core.GenerateDataset(core.DatasetConfig{Seed: datasetSeed, Scale: ingestScale})
	if err != nil {
		return nil, err
	}
	rows, labels := rowsOf(tbl), tbl.BinaryLabels()
	clf, err := core.NewClassifier("J48", datasetSeed)
	if err != nil {
		return nil, err
	}
	if err := clf.Train(rows, labels, 2); err != nil {
		return nil, err
	}
	base, err := quality.CaptureBaseline(tbl.Attributes, rows, 16)
	if err != nil {
		return nil, err
	}
	prog, err := core.CompileProgram(clf)
	if err != nil {
		return nil, err
	}
	f := &fixture{clf: clf, events: tbl.Attributes, base: base, prog: prog, tenants: tr.tenants}
	if f.svc, f.stop, err = f.newService(serveTracer()); err != nil {
		return nil, err
	}
	order := rng.New(seed).Perm(len(rows))
	next := 0
	for b := 0; b < numBatches; b++ {
		ws := make([]ingest.Window, tr.batch)
		endpoint := fmt.Sprintf("ep-%02d", b/tr.tenants%numEndpoints)
		var malware int64
		for j := range ws {
			i := order[next%len(rows)]
			next++
			label := labels[i]
			ws[j] = ingest.Window{Endpoint: endpoint, Label: &label, Values: rows[i]}
			if clf.Predict(rows[i]) == 1 {
				malware++
			}
		}
		f.batches = append(f.batches, ws)
		f.malware = append(f.malware, malware)
		if tr.encode {
			body, err := json.Marshal(ingest.Batch{Windows: ws})
			if err != nil {
				f.stop()
				return nil, err
			}
			f.bodies = append(f.bodies, body)
		}
	}
	return f, nil
}

// serveTracer is the request tracer `hpcmal serve` builds by default.
func serveTracer() *obs.ReqTracer {
	return obs.NewReqTracer(obs.ReqTracerConfig{
		HeadRatio: serveHeadRatio, SlowThreshold: 100 * time.Millisecond, MaxBytes: 4 << 20,
		Registry: obs.NewRegistry(),
	})
}

// newService starts another service on the fixture's detector.
func (f *fixture) newService(tracer *obs.ReqTracer) (*ingest.Service, context.CancelFunc, error) {
	svc, err := ingest.New(ingest.Config{
		Classifier: f.clf, Events: f.events, Baseline: f.base, Tracer: tracer,
		Registry: obs.NewRegistry(), Bus: obs.NewBus(),
	})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	svc.Start(ctx)
	return svc, cancel, nil
}

// setupRepeated builds the fixture setupRepeats times, keeping the last
// and returning every set-up's duration.
func setupRepeated(seed uint64, tr traffic) (*fixture, []float64, error) {
	var f *fixture
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.stop()
			f = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = newFixture(seed, tr); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return f, times, nil
}

// tally is the client side's account of what a service accepted.
type tally struct {
	start    time.Time
	mu       sync.Mutex
	requests int64
	failed   int64 // non-202 responses and transport errors
	attempts int64 // windows sent
	windows  int64 // windows accepted
	malware  [maxTenants]int64
	accepted [maxTenants]int64
	lat      []float64 // ms, in completion order
}

func newTally() *tally { return &tally{start: time.Now()} }

// record accounts one request for batch b.
func (t *tally) record(f *fixture, b int, ok bool) {
	n := int64(len(f.batches[b]))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	t.attempts += n
	if !ok {
		t.failed++
		return
	}
	t.windows += n
	t.malware[b%f.tenants] += f.malware[b]
	t.accepted[b%f.tenants] += n
}

// latency adds one latency sample, whether or not the request succeeded.
func (t *tally) latency(d time.Duration) {
	t.mu.Lock()
	t.lat = append(t.lat, float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// merge adds o's service-side expectations to t (o's timing stays).
func (t *tally) merge(o *tally) {
	for i := range t.malware {
		t.malware[i] += o.malware[i]
		t.accepted[i] += o.accepted[i]
	}
}

// verifyTenants checks every tenant's verdict count against the count the
// uncompiled classifier gives for the windows the service accepted.
func verifyTenants(res *result, what string, svc *ingest.Service, t *tally) {
	byID := map[string]ingest.TenantSummary{}
	for _, s := range svc.Tenants() {
		byID[s.ID] = s
	}
	for i := 0; i < maxTenants; i++ {
		s := byID[tenantIDs[i]]
		if s.MalwareWindows != t.malware[i] || s.WindowsProcessed != t.accepted[i] {
			res.mismatch("%s: tenant %s has %d malware verdicts over %d windows, want %d over %d",
				what, tenantIDs[i], s.MalwareWindows, s.WindowsProcessed, t.malware[i], t.accepted[i])
		}
	}
}

// serviceAccuracy is the share of labelled windows, over every tenant's
// scoreboard, whose verdict matched the label.
func serviceAccuracy(svc *ingest.Service) float64 {
	var correct, total int
	for i := 0; i < maxTenants; i++ {
		snap, _ := svc.TenantQuality(tenantIDs[i])
		for a, row := range snap.Confusion {
			for p, n := range row {
				total += n
				if a == p {
					correct += n
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(correct) / float64(total)
}

// waitDrained spins until the service has a verdict for every queued
// window. It yields between polls so shard goroutines get the CPU; a
// sleep would round up to the scheduler's millisecond timer on an idle
// machine and add that to every measured drain.
func waitDrained(svc *ingest.Service) (time.Time, error) {
	deadline := time.Now().Add(time.Minute)
	for !svc.Drained() {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("service did not drain: %+v", svc.Stats())
		}
		runtime.Gosched()
	}
	return time.Now(), nil
}

// closedLoop runs clients goroutines that each send request i = 0, 1,
// 2, ... (shared, in order) and wait for its reply before taking the
// next, until stop(i) reports true. It returns once all have finished.
func closedLoop(clients int, stop func(i int64) bool, send func(i int64)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if stop(i) {
					return
				}
				send(i)
			}
		}()
	}
	wg.Wait()
}

// numClients is the closed loop's concurrency: one client per CPU, at
// most two.
func numClients() int { return min(2, runtime.NumCPU()) }

// server is a loopback HTTP server for one handler.
type server struct {
	url    string
	srv    *http.Server
	done   chan struct{}
	client *http.Client
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url:  "http://" + ln.Addr().String() + "/api/v1/ingest",
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: numClients(), MaxConnsPerHost: numClients(), DisableCompression: true,
		}},
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *server) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

// spanHeader carries the client's request span id to the traced handler.
const spanHeader = "X-Perfbench-Span"

// post sends one batch body, stamped with a fresh sampled traceparent as
// fleetgen stamps it, and reports whether the service accepted it.
func (s *server) post(tenant string, body []byte, span int64) (bool, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ingest.TenantHeader, tenant)
	req.Header.Set(ingest.TraceparentHeader, obs.NewTraceContext().Traceparent())
	if span != 0 {
		req.Header.Set(spanHeader, fmt.Sprint(span))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusAccepted, nil
}

// httpPhase drives s in a closed loop until deadline (or, when n > 0,
// for n requests), then waits for the service to drain. It returns the
// tally and the time from the first send to the drain.
func httpPhase(s *server, svc *ingest.Service, f *fixture, deadline time.Time, n int64, tracedSend func(b int) (bool, time.Duration, error)) (*tally, time.Duration, error) {
	t := newTally()
	var errMu sync.Mutex
	var firstErr error
	closedLoop(numClients(),
		func(i int64) bool { return (n > 0 && i >= n) || (n == 0 && time.Now().After(deadline)) },
		func(i int64) {
			b := int(i % numBatches)
			var ok bool
			var lat time.Duration
			var err error
			if tracedSend != nil {
				ok, lat, err = tracedSend(b)
			} else {
				t0 := time.Now()
				ok, err = s.post(tenantIDs[b%f.tenants], f.bodies[b], 0)
				lat = time.Since(t0)
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
			t.record(f, b, ok)
			t.latency(lat)
		})
	end, err := waitDrained(svc)
	if err == nil {
		err = firstErr
	}
	return t, end.Sub(t.start), err
}

// runIngestHTTP measures the service's capacity over HTTP: numClients
// keep-alive connections POST 64-window batches back to back.
func runIngestHTTP(opt options, w io.Writer) (*result, error) {
	f, setups, err := setupRepeated(opt.seed, httpTraffic)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	s, err := startServer(f.svc.Handler())
	if err != nil {
		return nil, err
	}
	defer s.close()
	warm, _, err := httpPhase(s, f.svc, f, time.Now().Add(warmup), 0, nil)
	if err != nil {
		return nil, err
	}
	t, elapsed, err := httpPhase(s, f.svc, f, time.Now().Add(time.Duration(opt.seconds*float64(time.Second))), 0, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: t.requests, Failed: t.failed}
	t.merge(warm)
	verifyTenants(res, "ingest_http", f.svc, t)
	return ingestMetrics(res, w, "ingest_http", setups, t, elapsed, f.svc)
}

// ingestMetrics fills the end-to-end metrics both ingest workloads share.
func ingestMetrics(res *result, w io.Writer, name string, setups []float64, t *tally, elapsed time.Duration, svc *ingest.Service) (*result, error) {
	p50s, err := blockPercentiles(t.lat, 50, latencyBlock)
	if err != nil {
		return nil, fmt.Errorf("%s latency: %w", name, err)
	}
	tails, err := blockPercentiles(t.lat, tailPercentile, latencyBlock)
	if err != nil {
		return nil, fmt.Errorf("%s latency: %w", name, err)
	}
	infof(w, "%s: %d requests (%d failed), %d windows in %.3fs, setups %v",
		name, t.requests, t.failed, t.windows, elapsed.Seconds(), setups)
	infof(w, "%s: %d latency samples (ms): %s", name, len(t.lat), latencySummary(t.lat))
	res.set("setup_s", median(setups))
	res.set("windows_per_s", float64(t.windows)/elapsed.Seconds())
	res.set("latency_p50_ms", mean(p50s))
	res.set("latency_tail_ms", median(tails))
	res.set("served_ratio", float64(t.windows)/float64(t.attempts))
	res.set("accuracy_pct", serviceAccuracy(svc))
	res.set("peak_rss_mb", peakRSSMB())
	return res, nil
}

// inprocRounds runs rounds until deadline (or, when n > 0, n rounds):
// each enqueues one batch into every tenant through Service.Enqueue and
// then waits until the service has drained. With rec set, each round,
// Enqueue and drain gets a span. It returns the tally, with one latency
// per round, and the time from the first enqueue to the last drain. The
// loop allocates nothing of its own, so the garbage collector runs on
// the service's allocations alone.
func inprocRounds(f *fixture, deadline time.Time, n int, rec *recorder) (*tally, time.Duration, error) {
	t := newTally()
	oks := make([]bool, f.tenants)
	for r := 0; (n > 0 && r < n) || (n == 0 && time.Now().Before(deadline)); r++ {
		t0 := time.Now()
		var root *open
		if rec != nil {
			root = rec.start("ingest.round", 0)
		}
		for tn := range oks {
			b := (r*f.tenants + tn) % numBatches
			var sp *open
			if rec != nil {
				sp = rec.start("ingest.enqueue", root.id)
			}
			_, err := f.svc.Enqueue(tenantIDs[tn], "", f.batches[b])
			if sp != nil {
				sp.end()
			}
			oks[tn] = err == nil
		}
		var drain *open
		if rec != nil {
			drain = rec.start("ingest.drain", root.id)
		}
		_, err := waitDrained(f.svc)
		if rec != nil {
			drain.end()
			root.end()
		}
		if err != nil {
			return nil, 0, err
		}
		t.latency(time.Since(t0))
		for tn, ok := range oks {
			t.record(f, (r*f.tenants+tn)%numBatches, ok)
		}
	}
	return t, time.Since(t.start), nil
}

// runIngestInproc measures the service with decode bypassed: one client
// goroutine enqueues a 512-window batch into each tenant per round.
func runIngestInproc(opt options, w io.Writer) (*result, error) {
	f, setups, err := setupRepeated(opt.seed, inprocTraffic)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	warm, _, err := inprocRounds(f, time.Now().Add(warmup), 0, nil)
	if err != nil {
		return nil, err
	}
	t, elapsed, err := inprocRounds(f, time.Now().Add(time.Duration(opt.seconds*float64(time.Second))), 0, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: t.requests, Failed: t.failed}
	t.merge(warm)
	verifyTenants(res, "ingest_inproc", f.svc, t)
	return ingestMetrics(res, w, "ingest_inproc", setups, t, elapsed, f.svc)
}

// latencySummary lists the pooled percentiles that have at least ten
// samples beyond them, and the maximum.
func latencySummary(lat []float64) string {
	var parts []string
	for _, p := range []float64{50, 90, 99, 99.9} {
		if v, err := percentile(lat, p); err == nil {
			parts = append(parts, fmt.Sprintf("p%v %.3f", p, v))
		}
	}
	if len(lat) > 0 {
		parts = append(parts, fmt.Sprintf("max %.3f", sortedCopy(lat)[len(lat)-1]))
	}
	return strings.Join(parts, ", ")
}
