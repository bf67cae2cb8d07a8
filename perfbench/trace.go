package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records what the benchmark's own wrappers see while a traced
// iteration runs: spans (name, start, end, parent, all sharing one run id)
// and the raw samples and counts the per-layer metrics are computed from.
// It is kept in memory and written out as a Chrome trace when the process
// ends. A nil *tracer is the untraced mode: every method is a no-op, so the
// workloads call it unconditionally.
type tracer struct {
	run  string
	next atomic.Int64

	mu      sync.Mutex
	spans   []spanRecord
	samples map[string][]float64
	counts  map[string]float64
}

type spanRecord struct {
	id, parent int64
	name       string
	start, end time.Time
}

// span is an open span; end it exactly once.
type span struct {
	t     *tracer
	id    int64
	name  string
	par   int64
	start time.Time
}

func newTracer(run string) *tracer {
	return &tracer{run: run, samples: map[string][]float64{}, counts: map[string]float64{}}
}

// start opens a span under parent (0 for a root span).
func (t *tracer) start(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), name: name, par: parent, start: time.Now()}
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spanRecord{id: s.id, parent: s.par, name: s.name, start: s.start, end: now})
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// observe appends one sample of a distribution metric.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// add accumulates a count or a sum.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// writeChrome writes every recorded span as a Chrome trace ("ph":"X"
// complete events, microseconds from the first span), one event per line.
// The span's id, parent and the run id travel in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var base time.Time
	if len(spans) > 0 {
		base = spans[0].start
	}
	// A root span and each of its children get a lane (a Chrome thread)
	// of their own; deeper spans draw in their ancestor's lane, so a
	// worker's requests nest under the worker.
	parentOf := map[int64]int64{}
	for _, s := range spans {
		parentOf[s.id] = s.parent
	}
	lane := func(id int64) int64 {
		for parentOf[id] != 0 && parentOf[parentOf[id]] != 0 {
			id = parentOf[id]
		}
		return id
	}
	w.WriteString("[\n")
	for i, s := range spans {
		ev := map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": lane(s.id),
			"ts":  s.start.Sub(base).Microseconds(),
			"dur": s.end.Sub(s.start).Microseconds(),
			"args": map[string]string{
				"run": t.run, "id": strconv.FormatInt(s.id, 10),
				"parent": strconv.FormatInt(s.parent, 10),
			},
		}
		line, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		if i < len(spans)-1 {
			w.WriteString(",")
		}
		w.WriteString("\n")
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dist summarizes a sample set the way every per-layer timing is
// reported: the median, the tail and the sample count.
type dist struct {
	p50, tail float64
	n         int
}

// summarize computes p50 and the tail of xs. The tail is the highest of
// p99.9, p99 and p90 that still has at least ten samples above it; with
// fewer than 100 samples no such percentile exists and the tail falls
// back to the maximum.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{p50: quantile(s, 0.5), n: len(s), tail: s[len(s)-1]}
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(s))*(1-q) >= 10 {
			d.tail = quantile(s, q)
			break
		}
	}
	return d
}

// quantile interpolates linearly between the closest ranks of a sorted
// slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of an unsorted slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// bucketDist summarizes an obs histogram from its bucket counts (the
// registries keep buckets, not samples): quantiles interpolate within the
// containing bucket, the same estimate the registry itself reports.
func bucketDist(bounds []float64, counts []uint64) dist {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return dist{}
	}
	at := func(q float64) float64 {
		rank := q * float64(n)
		var cum float64
		for i, c := range counts {
			if c == 0 {
				continue
			}
			if cum+float64(c) >= rank {
				if i >= len(bounds) {
					return bounds[len(bounds)-1]
				}
				lo := 0.0
				if i > 0 {
					lo = bounds[i-1]
				}
				return lo + (bounds[i]-lo)*(rank-cum)/float64(c)
			}
			cum += float64(c)
		}
		return bounds[len(bounds)-1]
	}
	d := dist{p50: at(0.5), n: int(n), tail: at(1)}
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(n)*(1-q) >= 10 {
			d.tail = at(q)
			break
		}
	}
	return d
}

// addDist records a dist as <name>.p50, <name>.tail and <name>.n, scaling
// the two timings by scale (e.g. 1000 for seconds to milliseconds).
func (t *tracer) addDist(name string, d dist, scale float64) {
	t.add(name+".p50", d.p50*scale)
	t.add(name+".tail", d.tail*scale)
	t.add(name+".n", float64(d.n))
}
