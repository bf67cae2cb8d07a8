package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mfdl/internal/fabric"
	"mfdl/internal/obs"
)

// The fabric's wire paths and the cell-time header, as the coordinator
// serves them. The wrappers below classify requests by these.
const (
	pathJob       = "/v1/job"
	pathLease     = "/v1/lease"
	pathRenew     = "/v1/renew"
	pathComplete  = "/v1/complete"
	pathTelemetry = "/v1/telemetry"

	headerCellSeconds = "X-Fabric-Cell-Seconds"
)

// ops counts the operations of one iteration and how many failed. It is
// always on: two atomic adds per operation, next to an HTTP round trip.
type ops struct {
	attempted, failed atomic.Int64
}

// clientTransport wraps one worker's HTTP transport. Untraced it only
// counts requests and failures (non-2xx, or a transport error the
// benchmark did not cause by cancelling the worker). Traced, it also
// spans each round trip under the worker's span and records the
// client-side layer samples.
type clientTransport struct {
	base   http.RoundTripper
	ops    *ops
	tr     *tracer
	parent int64

	mu         sync.Mutex
	computeS   float64   // sum of X-Fabric-Cell-Seconds this worker reported
	blockingS  float64   // job, lease and complete round trips (the work loop waits on these)
	lastCommit time.Time // last 2xx complete
}

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	sp := c.tr.start("client "+path, c.parent)
	t0 := time.Now()
	resp, err := c.base.RoundTrip(req)
	rtt := time.Since(t0)
	sp.end()
	c.ops.attempted.Add(1)
	ok := err == nil && resp.StatusCode < 300
	if !ok && (err == nil || req.Context().Err() == nil) {
		c.ops.failed.Add(1)
	}
	if c.tr == nil {
		return resp, err
	}
	ms := rtt.Seconds() * 1000
	switch path {
	case pathLease:
		c.tr.observe("fabric.lease_rtt_ms", ms)
	case pathComplete:
		c.tr.observe("fabric.complete_rtt_ms", ms)
	case pathTelemetry:
		c.tr.observe("fabric.telemetry_rtt_ms", ms)
	case pathRenew:
		c.tr.observe("fabric.renew_rtt_ms", ms)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch path {
	case pathJob, pathLease:
		c.blockingS += rtt.Seconds()
	case pathComplete:
		c.blockingS += rtt.Seconds()
		if ok {
			c.lastCommit = time.Now()
			if sec, err := strconv.ParseFloat(req.Header.Get(headerCellSeconds), 64); err == nil {
				c.computeS += sec
			}
		}
	}
	return resp, err
}

// middleware wraps the coordinator's handler in traced runs: it spans
// every request under the coordinator span and records handler times,
// completion body sizes and the cell compute times workers report.
func middleware(next http.Handler, tr *tracer, parent int64) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		if path == pathComplete {
			if r.ContentLength > 0 {
				tr.add("fabric.complete_bytes", float64(r.ContentLength))
			}
			if sec, err := strconv.ParseFloat(r.Header.Get(headerCellSeconds), 64); err == nil {
				tr.observe("fabric.cell_compute_ms", sec*1000)
			}
		}
		sp := tr.start("handle "+path, parent)
		next.ServeHTTP(w, r)
		ms := sp.end().Seconds() * 1000
		switch path {
		case pathLease:
			tr.observe("fabric.lease_handler_ms", ms)
		case pathComplete:
			tr.observe("fabric.complete_handler_ms", ms)
		case pathTelemetry:
			tr.observe("fabric.telemetry_handler_ms", ms)
		}
	})
}

// host serves the current coordinator behind one address, so the rounds
// of a campaign swap coordinators under the same URL, as `sweepd serve`
// does.
type host struct {
	mu sync.Mutex
	h  http.Handler
	tr *tracer
	sp int64

	srv  *http.Server
	url  string
	done chan struct{}
}

// listen starts a loopback server with no coordinator installed yet.
func listen() (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &host{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

func (h *host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	next := h.h
	h.mu.Unlock()
	if next == nil {
		http.Error(w, "no job yet", http.StatusServiceUnavailable)
		return
	}
	next.ServeHTTP(w, r)
}

// swap installs a coordinator, wrapped in the traced middleware when the
// host has a tracer.
func (h *host) swap(c *fabric.Coordinator) {
	next := middleware(c.Handler(), h.tr, h.sp)
	h.mu.Lock()
	h.h = next
	h.mu.Unlock()
}

// close stops the server and waits for its accept loop to return.
func (h *host) close() {
	h.srv.Close()
	<-h.done
}

// fleet is the set of in-process workers of one iteration, each wired
// like a `sweepd work` process with default flags: a private registry
// whose spans are buffered for the heartbeat, a 1s heartbeat,
// Parallelism 1 and its own HTTP transport.
type fleet struct {
	cancels []context.CancelFunc
	wg      sync.WaitGroup
	workers []*fleetWorker
}

type fleetWorker struct {
	name string
	reg  *obs.Registry
	ct   *clientTransport
	sp   span

	leased, evaluated atomic.Int64

	start, exit time.Time
	err         error
}

// start launches n more fabric.Work workers against url.
func (f *fleet) start(ctx context.Context, url string, n int, o *ops, tr *tracer, parent int64) {
	ctx, cancel := context.WithCancel(ctx)
	f.cancels = append(f.cancels, cancel)
	for i := 0; i < n; i++ {
		w := &fleetWorker{name: fmt.Sprintf("worker-%d", i), reg: obs.New()}
		w.reg.SetSpanIdentity(os.Getpid(), obs.L("worker", w.name))
		col := obs.NewSpanCollector(0)
		w.reg.SetSpanSink(obs.Tee(w.reg.SpanSink(), col))
		w.sp = tr.start("worker "+w.name, parent)
		w.ct = &clientTransport{
			base: http.DefaultTransport.(*http.Transport).Clone(),
			ops:  o, tr: tr, parent: w.sp.id,
		}
		opts := fabric.WorkerOptions{
			Name: w.name, Obs: w.reg, Spans: col,
			Client:  &http.Client{Transport: w.ct},
			OnLease: func(_ string, cells []int) { w.leased.Add(int64(len(cells))) },
			OnCell:  func(int) { w.evaluated.Add(1) },
		}
		f.workers = append(f.workers, w)
		f.wg.Add(1)
		w.start = time.Now()
		go func() {
			defer f.wg.Done()
			w.err = fabric.Work(ctx, url, opts)
			w.exit = time.Now()
			w.sp.end()
			w.ct.base.(*http.Transport).CloseIdleConnections()
		}()
	}
}

// stop cancels the workers and waits for them.
func (f *fleet) stop() {
	for _, cancel := range f.cancels {
		cancel()
	}
	f.wg.Wait()
}

// errors counts workers that exited with an error of their own — not the
// cancellation the benchmark uses to shut them down. Call after stop.
func (f *fleet) errors() (n int, msgs []string) {
	for _, w := range f.workers {
		if w.err != nil && !errors.Is(w.err, context.Canceled) {
			n++
			msgs = append(msgs, w.name+": "+w.err.Error())
		}
	}
	return n, msgs
}

func (f *fleet) leased() (n int64) {
	for _, w := range f.workers {
		n += w.leased.Load()
	}
	return n
}

func (f *fleet) evaluated() (n int64) {
	for _, w := range f.workers {
		n += w.evaluated.Load()
	}
	return n
}

// layerMetrics derives the client-side per-layer metrics once every
// worker has exited: idle time (lifetime minus reported compute and the
// round trips the work loop blocks on, summed over workers) and the tail
// from the last commit to the last worker exit.
func (f *fleet) layerMetrics(tr *tracer) {
	var idle float64
	var lastCommit, lastExit time.Time
	for _, w := range f.workers {
		w.ct.mu.Lock()
		idle += w.exit.Sub(w.start).Seconds() - w.ct.computeS - w.ct.blockingS
		if w.ct.lastCommit.After(lastCommit) {
			lastCommit = w.ct.lastCommit
		}
		w.ct.mu.Unlock()
		if w.exit.After(lastExit) {
			lastExit = w.exit
		}
	}
	tr.add("fabric.worker_idle_s", idle)
	if !lastCommit.IsZero() {
		tr.add("fabric.tail_s", lastExit.Sub(lastCommit).Seconds())
	}
	var simBounds []float64
	var simCounts []uint64
	for _, w := range f.workers {
		h := w.reg.Histogram("replica_simulate_seconds", obs.LatencyBuckets)
		if simBounds == nil {
			simBounds, simCounts = h.Bounds(), make([]uint64, len(h.Bounds())+1)
		}
		for i, c := range h.BucketCounts() {
			simCounts[i] += c
		}
	}
	tr.addDist("replica.simulate_ms", bucketDist(simBounds, simCounts), 1000)
}

// fabricOutcome adds a fabric iteration's operations to out — requests,
// leased cells, failed requests, cells evaluated but never committed and
// workers that exited with an error — and, traced, records the fleet's
// and the coordinator's layer metrics.
func fabricOutcome(out *outcome, tr *tracer, fl *fleet, o *ops, committed int, reg *obs.Registry) {
	werrs, msgs := fl.errors()
	wasted := fl.evaluated() - int64(committed)
	if wasted < 0 {
		wasted = 0
	}
	if out != nil {
		out.attempted += o.attempted.Load() + fl.leased()
		out.failed += o.failed.Load() + wasted + int64(werrs)
		if werrs > 0 {
			out.detail += fmt.Sprintf("worker errors: %s; ", firstLines(msgs, 2))
		}
	}
	if tr == nil {
		return
	}
	fl.layerMetrics(tr)
	coordinatorCounts(tr, reg)
	tr.add("fabric.worker_errors", float64(werrs))
	tr.add("fabric.requests", float64(o.attempted.Load()))
	tr.add("fabric.cells_committed", float64(committed))
}

// coordinatorCounts copies the coordinator-side counters the program
// keeps in its registry into the tracer.
func coordinatorCounts(tr *tracer, reg *obs.Registry) {
	for name, metric := range map[string]string{
		"fabric_leases_granted_total":  "fabric.leases_granted",
		"fabric_leases_expired_total":  "fabric.leases_expired",
		"fabric_cells_duplicate_total": "fabric.cells_duplicate",
		"fabric_cells_foreign_total":   "fabric.cells_foreign",
		"fabric_cells_resumed_total":   "fabric.cells_resumed",
		"checkpoint_stores_total":      "checkpoint.stores",
		"samplestore_hits_total":       "samplestore.hits",
		"samplestore_misses_total":     "samplestore.misses",
		"samplestore_stores_total":     "samplestore.stores",
	} {
		tr.add(metric, float64(reg.Counter(name).Value()))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// firstLines keeps error listings short in the human-readable report.
func firstLines(msgs []string, n int) string {
	if len(msgs) > n {
		msgs = append(msgs[:n:n], fmt.Sprintf("... %d more", len(msgs)-n))
	}
	return strings.Join(msgs, "; ")
}
