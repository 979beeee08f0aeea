package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/quality"
)

const (
	// tracedRequests and tracedRounds fix the traced ingest passes' work,
	// so their counts repeat from run to run.
	tracedRequests = 3000
	tracedRounds   = 1000
	// overheadPhase is one phase of the obs.trace_overhead_pct comparison.
	overheadPhase = 500 * time.Millisecond
)

// tracedRun is the one traced run. It walks the paths of all three
// workloads, the named one first, with spans around the calls into each
// layer, so every per-layer metric is measured whichever workload is
// named. Each pass records into its own recorder; all spans are written
// to one file at the end.
func tracedRun(opt options, host hostInfo, w io.Writer) (*result, error) {
	res := &result{}
	recs := map[string]*recorder{}
	passes := map[string]func(*recorder) error{
		"repro":         func(rec *recorder) error { return tracedRepro(rec, res, w) },
		"ingest_http":   func(rec *recorder) error { return tracedHTTP(rec, res, opt, w) },
		"ingest_inproc": func(rec *recorder) error { return tracedInproc(rec, res, opt, w) },
	}
	order := []string{opt.workload}
	for _, name := range workloads {
		if name != opt.workload {
			order = append(order, name)
		}
	}
	for _, name := range order {
		runtime.GC()
		recs[name] = newRecorder()
		if err := passes[name](recs[name]); err != nil {
			return nil, fmt.Errorf("traced %s: %w", name, err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(filepath.Dir(self), fmt.Sprintf("spans-%s-seed%d.json", opt.workload, opt.seed))
	if err := writeSpans(path, host, recs); err != nil {
		return nil, err
	}
	infof(w, "spans written to %s", path)
	return res, nil
}

// writeSpans stores every pass's spans, with the host, as JSON.
func writeSpans(path string, host hostInfo, recs map[string]*recorder) error {
	passes := map[string][]span{}
	for name, rec := range recs {
		passes[name] = rec.snapshot()
	}
	raw, err := json.Marshal(struct {
		Host   hostInfo          `json:"host"`
		Passes map[string][]span `json:"passes"`
	}{host, passes})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedHandler is a copy of the service's JSON ingest handler
// (handleIngest in internal/ingest/http.go) rebuilt from the service's
// public calls, so decode and enqueue can each get a span: it decodes and
// validates the body as the handler does, makes the tracer's
// head-sampling decision, and enqueues through Service.EnqueueTraced.
// TestTracedHandlerMatchesService keeps its answers in step with the
// service's handler.
type tracedHandler struct {
	rec     *recorder
	svc     *ingest.Service
	dim     int
	bytes   atomic.Int64
	windows atomic.Int64
}

const (
	// maxBodyBytes and maxBatchWindows are the service handler's body
	// limit and ingest.Config's default batch limit.
	maxBodyBytes    = 64 << 20
	maxBatchWindows = 8192
)

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	startNS := time.Now().UnixNano()
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	tc, _ := obs.ParseTraceparent(r.Header.Get(ingest.TraceparentHeader))

	var batch ingest.Batch
	var tenant string
	if err := h.rec.timed("ingest.decode", parent, func(int64) (err error) {
		tenant, err = decodeBatch(w, r, &batch, h.dim)
		if err == nil {
			h.bytes.Add(r.ContentLength)
			h.windows.Add(int64(len(batch.Windows)))
		}
		return err
	}); err != nil {
		httpapi.Error(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}

	at := h.svc.Tracer().Sample(tc, "ingest", tenant, startNS)
	if at != nil {
		at.AddSpan("ingest.accept", startNS, time.Now().UnixNano(),
			obs.ReqAttr{Key: "windows", Value: float64(len(batch.Windows))})
	}
	var res ingest.Accepted
	err := h.rec.timed("ingest.enqueue", parent, func(int64) (err error) {
		res, err = h.svc.EnqueueTraced(tenant, batch.Overflow, batch.Windows, at)
		return err
	})
	if err != nil {
		var full *ingest.QueueFullError
		var limit *ingest.TenantLimitError
		switch {
		case errors.As(err, &full):
			w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(full.RetryAfter.Seconds())))))
			httpapi.Error(w, http.StatusTooManyRequests, httpapi.CodeQueueFull, err.Error())
		case errors.As(err, &limit):
			httpapi.Error(w, http.StatusTooManyRequests, httpapi.CodeTenantLimit, err.Error())
		default:
			httpapi.Error(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable, err.Error())
		}
		at.SetError(err.Error())
		at.End(time.Now().UnixNano())
		return
	}
	if at != nil {
		res.TraceID = at.TraceID()
		w.Header().Set(ingest.TraceparentHeader, at.Context().Traceparent())
	}
	w.WriteHeader(http.StatusAccepted)
	httpapi.WriteJSON(w, res)
	at.End(time.Now().UnixNano())
}

// decodeBatch reads a JSON ingest.Batch body and applies the service
// handler's checks, in its order: the tenant id from the header, the
// query or the body, the overflow policy, the batch size and each
// window's schema. It returns the tenant id. The benchmark sends JSON
// batches only, so the handler's NDJSON path is not copied.
func decodeBatch(w http.ResponseWriter, r *http.Request, batch *ingest.Batch, dim int) (string, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	tenant, query := r.Header.Get(ingest.TenantHeader), r.URL.Query().Get("tenant")
	if tenant != "" && query != "" && tenant != query {
		return "", fmt.Errorf("conflicting tenant ids: header %q vs query %q", tenant, query)
	}
	if tenant == "" {
		tenant = query
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(batch); err != nil {
		return "", fmt.Errorf("decoding batch: %w", err)
	}
	if dec.More() {
		return "", fmt.Errorf("trailing data after batch object")
	}
	if batch.Tenant != "" {
		if tenant != "" && batch.Tenant != tenant {
			return "", fmt.Errorf("conflicting tenant ids: request %q vs body %q", tenant, batch.Tenant)
		}
		tenant = batch.Tenant
	}
	io.Copy(io.Discard, body)
	if !validTenantID(tenant) {
		return "", fmt.Errorf("missing or invalid tenant id %q", tenant)
	}
	switch batch.Overflow {
	case "", ingest.OverflowReject, ingest.OverflowDropOldest:
	default:
		return "", fmt.Errorf("unknown overflow policy %q", batch.Overflow)
	}
	if len(batch.Windows) == 0 {
		return "", fmt.Errorf("batch has no windows")
	}
	if len(batch.Windows) > maxBatchWindows {
		return "", fmt.Errorf("batch exceeds %d windows", maxBatchWindows)
	}
	for i, w := range batch.Windows {
		if len(w.Values) != dim {
			return "", fmt.Errorf("window %d: %d features, want %d", i, len(w.Values), dim)
		}
		for _, v := range w.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("window %d: value not finite", i)
			}
		}
		if w.Label != nil && *w.Label != 0 && *w.Label != 1 {
			return "", fmt.Errorf("window %d: label %d outside {0,1}", i, *w.Label)
		}
		if len(w.Endpoint) > 128 {
			return "", fmt.Errorf("window %d: endpoint id too long", i)
		}
	}
	return tenant, nil
}

// validTenantID is the service's tenant id rule: [A-Za-z0-9._-]{1,64}.
func validTenantID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range []byte(id) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// tracedHTTP times a fixed number of POSTs through the rebuilt handler,
// with a client span per request and server spans for decode and
// enqueue, then measures what the default request tracer costs the real
// handler in windows/s.
func tracedHTTP(rec *recorder, res *result, opt options, w io.Writer) error {
	f, err := newFixture(opt.seed, httpTraffic)
	if err != nil {
		return err
	}
	defer f.stop()
	h := &tracedHandler{rec: rec, svc: f.svc, dim: len(f.events)}
	s, err := startServer(h)
	if err != nil {
		return err
	}
	defer s.close()

	alloc0, gc0 := memCounters()
	t, elapsed, err := httpPhase(s, f.svc, f, time.Time{}, tracedRequests, func(b int) (bool, time.Duration, error) {
		sp := rec.start("http.request", 0)
		ok, err := s.post(tenantIDs[b%f.tenants], f.bodies[b], sp.id)
		return ok, sp.end(), err
	})
	if err != nil {
		return err
	}
	alloc1, gc1 := memCounters()
	verifyTenants(res, "traced ingest_http", f.svc, t)
	res.Attempted += t.requests
	res.Failed += t.failed

	self := selfTimes(rec.snapshot())
	decode := self["ingest.decode"].Seconds()
	res.set("ingest.decode_s", decode)
	res.set("ingest.decode_bytes", float64(h.bytes.Load()))
	res.set("ingest.decode_windows_per_s", float64(h.windows.Load())/decode)
	res.set("http.transport_s", self["http.request"].Seconds())
	res.set("ingest_http.ingest.enqueue_s", self["ingest.enqueue"].Seconds())
	res.set("ingest_http.ingest.requests", float64(t.requests))
	res.set("ingest_http.ingest.windows", float64(t.windows))
	res.set("ingest_http.ingest.rejected", float64(t.failed))
	res.set("ingest_http.go.alloc_bytes_per_window", float64(alloc1-alloc0)/float64(t.windows))
	res.set("ingest_http.go.gc_cycles", float64(gc1-gc0))

	overhead, iqr, err := traceOverhead(res, f, opt.seconds)
	if err != nil {
		return err
	}
	res.set("obs.trace_overhead_pct", overhead)
	infof(w, "traced ingest_http: %d requests in %.3fs; tracer overhead %.2f%% (interquartile range over phase pairs %.2f points)",
		t.requests, elapsed.Seconds(), overhead, iqr)
	return nil
}

// traceOverhead runs the real handlers of a service with no tracer and of
// one with serve's default tracer in pairs of overheadPhase-long phases,
// for seconds in all, the order swapped every other pair so drift over
// the pass cancels. Each pair gives how much lower the traced service's
// windows/s is, in percent of the untraced one's; it returns the median
// over the pairs and their interquartile range.
func traceOverhead(res *result, f *fixture, seconds float64) (float64, float64, error) {
	var svcs [2]*ingest.Service
	var servers [2]*server
	for k, tracer := range []*obs.ReqTracer{nil, serveTracer()} {
		svc, stop, err := f.newService(tracer)
		if err != nil {
			return 0, 0, err
		}
		defer stop()
		s, err := startServer(svc.Handler())
		if err != nil {
			return 0, 0, err
		}
		defer s.close()
		svcs[k], servers[k] = svc, s
	}
	tallies := [2]*tally{newTally(), newTally()}
	pairs := max(1, int(seconds/(2*overheadPhase.Seconds())))
	var diffs []float64
	for i := 0; i < pairs; i++ {
		var rate [2]float64
		for j := 0; j < 2; j++ {
			k := j ^ i%2
			t, elapsed, err := httpPhase(servers[k], svcs[k], f, time.Now().Add(overheadPhase), 0, nil)
			if err != nil {
				return 0, 0, err
			}
			rate[k] = float64(t.windows) / elapsed.Seconds()
			tallies[k].merge(t)
			res.Attempted += t.requests
			res.Failed += t.failed
		}
		diffs = append(diffs, (rate[0]-rate[1])/rate[0]*100)
	}
	verifyTenants(res, "untraced service", svcs[0], tallies[0])
	verifyTenants(res, "traced service", svcs[1], tallies[1])
	q1, q3 := quartiles(diffs)
	return median(diffs), q3 - q1, nil
}

// tracedInproc times a fixed number of rounds with spans around each
// Enqueue and around the wait for the drain, then replays the same
// 512-window chunks through the calls a shard makes per chunk: the
// compiled program, the scoreboard, the drift detector and the alarm
// smoother.
func tracedInproc(rec *recorder, res *result, opt options, w io.Writer) error {
	f, err := newFixture(opt.seed, inprocTraffic)
	if err != nil {
		return err
	}
	defer f.stop()
	alloc0, gc0 := memCounters()
	t, elapsed, err := inprocRounds(f, time.Time{}, tracedRounds, rec)
	if err != nil {
		return err
	}
	alloc1, gc1 := memCounters()
	verifyTenants(res, "traced ingest_inproc", f.svc, t)
	res.Attempted += t.requests
	res.Failed += t.failed

	windows, err := replayChunks(rec, res, f)
	if err != nil {
		return err
	}
	self := selfTimes(rec.snapshot())
	infer := self["infer.predict"].Seconds()
	res.set("ingest.drain_s", self["ingest.drain"].Seconds())
	res.set("infer.predict_s", infer)
	res.set("infer.windows_per_s", float64(windows)/infer)
	res.set("quality.board_s", self["quality.board"].Seconds())
	res.set("quality.drift_s", self["quality.drift"].Seconds())
	res.set("online.smoother_s", self["online.smoother"].Seconds())
	res.set("ingest_inproc.ingest.enqueue_s", self["ingest.enqueue"].Seconds())
	res.set("ingest_inproc.ingest.requests", float64(t.requests))
	res.set("ingest_inproc.ingest.windows", float64(t.windows))
	res.set("ingest_inproc.ingest.rejected", float64(t.failed))
	res.set("ingest_inproc.go.alloc_bytes_per_window", float64(alloc1-alloc0)/float64(t.windows))
	res.set("ingest_inproc.go.gc_cycles", float64(gc1-gc0))
	infof(w, "traced ingest_inproc: %d rounds in %.3fs, %d windows replayed", tracedRounds, elapsed.Seconds(), windows)
	return nil
}

// tenantState is the per-tenant detection state a shard keeps.
type tenantState struct {
	board       *quality.Scoreboard
	drift       *quality.DriftDetector
	voters      map[string]*online.MajorityVoter
	sinceRotate int
}

// rotateEvery is the service's default quality and drift epoch length.
const rotateEvery = 4096

// replayChunks pushes every chunk the traced rounds enqueued through the
// per-chunk calls of a shard, one span per call, checks the verdicts
// against the set-up's counts, and returns the windows replayed.
func replayChunks(rec *recorder, res *result, f *fixture) (int, error) {
	tenants := make([]*tenantState, f.tenants)
	for i := range tenants {
		reg := obs.NewRegistry()
		d, err := quality.NewDriftDetector(f.base, quality.DriftConfig{Registry: reg, Bus: obs.NewBus()})
		if err != nil {
			return 0, err
		}
		tenants[i] = &tenantState{board: quality.NewScoreboard(quality.Config{Registry: reg}),
			drift: d, voters: map[string]*online.MajorityVoter{}}
	}
	dst := make([]int, inprocBatch)
	x := make([][]float64, inprocBatch)
	proba := make([][]float64, inprocBatch)
	for i := range proba {
		proba[i] = make([]float64, f.prog.NumClasses())
	}
	windows := 0
	for r := 0; r < tracedRounds; r++ {
		for tn := 0; tn < f.tenants; tn++ {
			b := (r*f.tenants + tn) % numBatches
			ws, ts := f.batches[b], tenants[tn]
			chunk := rec.start("shard.chunk", 0)
			for i := range ws {
				x[i] = ws[i].Values
			}
			if err := rec.timed("infer.predict", chunk.id, func(int64) error {
				if err := f.prog.Predict(dst, x); err != nil {
					return err
				}
				if f.prog.HasProba() {
					return f.prog.Proba(proba, x)
				}
				return nil
			}); err != nil {
				chunk.end()
				return 0, err
			}
			rec.timed("quality.board", chunk.id, func(int64) error {
				for i := range ws {
					score := float64(dst[i])
					if f.prog.HasProba() {
						score = proba[i][1]
					}
					ts.board.Observe(*ws[i].Label, dst[i], score)
				}
				return nil
			})
			rec.timed("quality.drift", chunk.id, func(int64) error {
				for i := range ws {
					ts.drift.Observe(ws[i].Values)
				}
				return nil
			})
			rec.timed("online.smoother", chunk.id, func(int64) error {
				for i := range ws {
					v := ts.voters[ws[i].Endpoint]
					if v == nil {
						v = &online.MajorityVoter{Window: 8, Threshold: 0.5}
						v.Reset()
						ts.voters[ws[i].Endpoint] = v
					}
					v.Observe(dst[i])
				}
				return nil
			})
			if ts.sinceRotate += len(ws); ts.sinceRotate >= rotateEvery {
				ts.board.Advance()
				ts.drift.Advance()
				ts.sinceRotate = 0
			}
			chunk.end()
			var malware int64
			for _, p := range dst[:len(ws)] {
				if p == 1 {
					malware++
				}
			}
			if malware != f.malware[b] {
				res.mismatch("replayed chunk %d: %d malware verdicts, want %d", b, malware, f.malware[b])
			}
			windows += len(ws)
		}
	}
	return windows, nil
}
