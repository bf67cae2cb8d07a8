// Command perfbench is the repository's benchmark: three workloads run
// in-process against the internal packages, each measured end to end and,
// in a separate traced run, layer by layer. Every layer is timed from the
// outside — an http.RoundTripper on each fabric worker's client,
// middleware around the coordinator's handler, timed calls into
// experiments.*, eventsim.Run, experiments.PlanSimValidate and
// sim.ReduceJob, and the obs registries the program already accepts — so
// the benchmark needs no change to the code it measures.
//
// Usage, from the root of the checkout (perfbench/run.sh builds first):
//
//	perfbench --workload paper|campaign|crowd --seed N --seconds S --trace 0|1
//
// Each run repeats the workload's timed iteration until --seconds have
// been measured (at least once) and reports medians. run_s runs from the
// workload's first call until its result is in hand and verified; setup_s
// is process start-up (the median over several fresh processes of this
// binary) plus everything before the first timed call except computing
// the reference outputs, with the workload's own set-up taken as the
// median of several; cpu_s, alloc_mb and peak_rss_mb come from getrusage
// and runtime.MemStats. error_rate (failed over attempted operations:
// artifact calls, HTTP requests, leased cells, simulator runs) is a
// per-layer metric, because it is 0 on every workload; the counts behind
// it are in every result.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run makes one untraced and one traced iteration and
// reports the per-layer metrics, the difference in run_s between the two
// as trace.overhead_s, and a Chrome trace of the traced iteration under
// the work directory. A line before it stamps the machine, commit and
// seed.
//
// Why these workloads:
//
//   - paper: the 12 `mfdl all` artifacts at the paper's parameters, cold
//     solve cache, runner pool at GOMAXPROCS. Its time is ODE steady-state
//     solves; it bypasses the fabric and the simulators.
//   - campaign: the two-round sequential-stopping simvalidate campaign of
//     `sweepd serve -job simvalidate -local-workers 2`. Cells are flow
//     simulations served over the fabric; round 2 resumes round 1's
//     samples from the sample store.
//   - crowd: one flow-level CMFSD flash crowd of 10^4 peers; eventsim's
//     per-event passes over every peer dominate.
//
// Two workloads were left out. A large closed-form fluid sweep over the
// fabric spent its time creating checkpoint files, and the kernel's cost
// of those creates drifted from run to run by more than any bound the
// benchmark could hold. Loop workers carried across the campaign's round
// boundary fail an operation by design (a worker asleep across the
// coordinator swap leases a next-round cell with the old spec and exits
// with an error), so the campaign stops each round's workers instead.
//
// The seed picks crowd's simulator seed; paper and campaign run fixed
// inputs (see campaignSeed). Each output is checked: paper against the
// pinned digest of `mfdl all`, campaign against the pinned digest of the
// local runner.RunJobPayloads and crowd against pinned result digests. Two
// per-layer readings need context: fabric.leases_expired also counts
// completed leases, which stay in the lease table until LeaseTTL and are
// then reaped as expired, and runner.queue_wait_s reads 0 because the
// experiments hand the runner pool no registry (runner.utilization is
// taken from getrusage instead).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. The lists below are the program's
// side of BENCHMARK.json; the self-test keeps the two identical.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"error_rate", "ratio", "lower"},
	{"trace.run_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"experiments.fig4a_s", "s", "lower"},
	{"experiments.fig4b_s", "s", "lower"},
	{"experiments.stability_s", "s", "lower"},
	{"experiments.cheating_s", "s", "lower"},
	{"experiments.kscaling_s", "s", "lower"},
	{"experiments.rest_s", "s", "lower"},
	{"solvecache.solves", "count", "lower"},
	{"solvecache.hits", "count", "higher"},
	{"solvecache.solve_s", "s", "lower"},
	{"solvecache.solve_ms.p50", "ms", "lower"},
	{"solvecache.solve_ms.tail", "ms", "lower"},
	{"solvecache.solve_ms.n", "count", "lower"},
	{"runner.queue_wait_s", "s", "lower"},
	{"runner.utilization", "ratio", "higher"},
	{"fabric.lease_rtt_ms.p50", "ms", "lower"},
	{"fabric.lease_rtt_ms.tail", "ms", "lower"},
	{"fabric.lease_rtt_ms.n", "count", "lower"},
	{"fabric.complete_rtt_ms.p50", "ms", "lower"},
	{"fabric.complete_rtt_ms.tail", "ms", "lower"},
	{"fabric.complete_rtt_ms.n", "count", "lower"},
	{"fabric.telemetry_rtt_ms.p50", "ms", "lower"},
	{"fabric.telemetry_rtt_ms.tail", "ms", "lower"},
	{"fabric.telemetry_rtt_ms.n", "count", "lower"},
	{"fabric.renew_rtt_ms.n", "count", "lower"},
	{"fabric.worker_idle_s", "s", "lower"},
	{"fabric.tail_s", "s", "lower"},
	{"fabric.requests_per_cell", "ratio", "lower"},
	{"fabric.requests", "count", "lower"},
	{"fabric.cells_committed", "count", "higher"},
	{"fabric.lease_handler_ms.p50", "ms", "lower"},
	{"fabric.lease_handler_ms.tail", "ms", "lower"},
	{"fabric.lease_handler_ms.n", "count", "lower"},
	{"fabric.complete_handler_ms.p50", "ms", "lower"},
	{"fabric.complete_handler_ms.tail", "ms", "lower"},
	{"fabric.complete_handler_ms.n", "count", "lower"},
	{"fabric.telemetry_handler_ms.p50", "ms", "lower"},
	{"fabric.cell_compute_ms.p50", "ms", "lower"},
	{"fabric.cell_compute_ms.tail", "ms", "lower"},
	{"fabric.cell_compute_ms.n", "count", "lower"},
	{"fabric.complete_bytes", "bytes", "lower"},
	{"fabric.leases_granted", "count", "lower"},
	{"fabric.leases_expired", "count", "lower"},
	{"fabric.cells_duplicate", "count", "lower"},
	{"fabric.cells_foreign", "count", "lower"},
	{"fabric.cells_resumed", "count", "higher"},
	{"fabric.worker_errors", "count", "lower"},
	{"checkpoint.stores", "count", "lower"},
	{"checkpoint.dir_bytes", "bytes", "lower"},
	{"samplestore.hits", "count", "higher"},
	{"samplestore.misses", "count", "lower"},
	{"samplestore.stores", "count", "lower"},
	{"replica.simulate_ms.p50", "ms", "lower"},
	{"replica.simulate_ms.tail", "ms", "lower"},
	{"replica.simulate_ms.n", "count", "lower"},
	{"sim.reduce_s", "s", "lower"},
	{"experiments.plan_s", "s", "lower"},
	{"campaign.round1_s", "s", "lower"},
	{"campaign.round2_s", "s", "lower"},
	{"eventsim.run_s", "s", "lower"},
	{"eventsim.sim_time_per_s", "1/s", "higher"},
	{"eventsim.arrived", "count", "higher"},
	{"eventsim.mean_population", "count", "lower"},
}

// outcome is what one timed iteration reports about its own work.
type outcome struct {
	attempted, failed int64
	// correct is false when the output did not match its reference; that
	// mismatch is also counted in failed.
	correct bool
	detail  string
}

// corrupted returns a copy of b with one byte flipped (or one byte, for
// empty b): what the self-test feeds the correctness checks.
func corrupted(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) == 0 {
		return []byte{1}
	}
	out[len(out)/2] ^= 0x20
	return out
}

// iteration is one prepared run of a workload. run is the timed window,
// from the workload's first call until its result is in hand and
// verified; finish, outside the window, shuts down what run started, adds
// the operations counted until then to out, copies registry readings into
// the tracer and removes temp state. finish must also work on an iteration
// that never ran, with a nil out.
type iteration interface {
	run(ctx context.Context) outcome
	finish(out *outcome)
}

// workload builds iterations. prepare computes the reference outputs the
// correctness checks compare against; it runs once per process, outside
// both setup_s and the timed window.
type workload interface {
	prepare(ctx context.Context) error
	setup(tr *tracer) (iteration, error)
}

// scale shrinks every workload for the self-test.
type scale int

const (
	fullScale scale = iota
	smokeScale
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	commit   string
	workDir  string
	scale    scale
	// corrupt flips a byte of every output before its check, so the
	// self-test can prove a mismatch is caught.
	corrupt bool
}

func newWorkload(c config) (workload, error) {
	tmp := filepath.Join(c.workDir, "tmp")
	switch c.workload {
	case "paper":
		return newPaper(c), nil
	case "campaign":
		return newCampaign(c, tmp), nil
	case "crowd":
		return newCrowd(c)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, campaign or crowd)", c.workload)
}

// setupReps is how many times a run sets a workload up before its first
// timed iteration; setup_s reports the median, so one slow mkdir or
// listener start does not decide the figure.
const setupReps = 5

// startReps is how many fresh processes time start-up. A start costs a few
// milliseconds and its spread is wide, so it takes more samples than the
// workload's set-up.
const startReps = 21

// deadline bounds a whole run, so a stalled workload fails within the
// 180s a run may take instead of hanging.
const deadline = 170 * time.Second

// report is a finished run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// startProbe is the argument that makes the binary print the time main
// was entered and exit at once; startSeconds runs it to time process
// start-up (exec, runtime and package initialisation).
const startProbe = "--start-probe"

func main() {
	if len(os.Args) == 2 && os.Args[1] == startProbe {
		fmt.Print(time.Now().UnixNano())
		return
	}
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(c, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta, err := json.Marshal(map[string]any{"meta": metadata(c)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", meta, out)
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.workload, "workload", "", "paper, campaign or crowd")
	fs.Uint64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 10, "measure repeated iterations for at least this long (at least one)")
	traceN := fs.Int("trace", 0, "1: one untraced and one traced iteration, per-layer metrics")
	fs.StringVar(&c.commit, "commit", "unknown", "commit the benchmark was built from, for the result stamp")
	fs.StringVar(&c.workDir, "work-dir", ".bench_build", "directory for temp stores and traces")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() != 0 {
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *traceN != 0 && *traceN != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1, got %d", *traceN)
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive, got %v", c.seconds)
	}
	c.trace = *traceN == 1
	return c, nil
}

// measured is one timed iteration.
type measured struct {
	runS, cpuS, allocMB float64
	out                 outcome
}

// run executes one benchmark run and assembles its report; progress goes
// to log.
func run(c config, log io.Writer) (*report, error) {
	mainStart := time.Now()
	if err := os.MkdirAll(filepath.Join(c.workDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	w, err := newWorkload(c)
	if err != nil {
		return nil, err
	}

	// setup_s: process start-up, then main to the first setup, then the
	// median of setupReps setups (all but the last torn down unrun).
	// Start-up is timed on startReps fresh processes of this binary, so
	// package initialisation counts and one slow exec does not decide it.
	mainS := time.Since(mainStart).Seconds()
	startS, err := startSeconds()
	if err != nil {
		return nil, fmt.Errorf("start-up probe: %w", err)
	}
	var setups []float64
	var it iteration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		it, err = w.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			it.finish(nil)
		}
	}
	if err := w.prepare(ctx); err != nil {
		it.finish(nil)
		return nil, fmt.Errorf("reference: %w", err)
	}

	var runs []measured
	var tr *tracer
	var total float64
	for {
		m := timeIteration(ctx, it)
		runs = append(runs, m)
		total += m.runS
		fmt.Fprintf(log, "perfbench: %s seed %d iteration %d: run %.3fs cpu %.3fs alloc %.1fMB attempted %d failed %d %s\n",
			c.workload, c.seed, len(runs), m.runS, m.cpuS, m.allocMB, m.out.attempted, m.out.failed, m.out.detail)
		if ctx.Err() != nil {
			break
		}
		if c.trace {
			if tr != nil {
				break
			}
			tr = newTracer(fmt.Sprintf("%s-seed%d-%d", c.workload, c.seed, time.Now().UnixNano()))
		} else if total >= c.seconds {
			break
		}
		t0 := time.Now()
		if it, err = w.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	rep := &report{Correct: true, Metrics: map[string]metricValue{}}
	for _, m := range runs {
		rep.Attempted += m.out.attempted
		rep.Failed += m.out.failed
		rep.Correct = rep.Correct && m.out.correct
	}
	if !c.trace {
		var runS, cpuS, allocMB []float64
		for _, m := range runs {
			runS = append(runS, m.runS)
			cpuS = append(cpuS, m.cpuS)
			allocMB = append(allocMB, m.allocMB)
		}
		vals := map[string]float64{
			"run_s":       median(runS),
			"setup_s":     startS + mainS + median(setups),
			"cpu_s":       median(cpuS),
			"alloc_mb":    median(allocMB),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		return rep, nil
	}
	if len(runs) < 2 {
		return nil, fmt.Errorf("traced iteration did not run: %v", ctx.Err())
	}
	vals := layerValues(tr)
	vals["trace.run_s"] = runs[1].runS
	vals["trace.overhead_s"] = runs[1].runS - runs[0].runS
	if rep.Attempted > 0 {
		vals["error_rate"] = float64(rep.Failed) / float64(rep.Attempted)
	}
	for _, d := range perLayer {
		rep.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	dir := filepath.Join(c.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(log, "perfbench: trace written to %s\n", path)
	return rep, nil
}

// startSeconds is the median time from starting this binary to its main
// function, over startReps processes.
func startSeconds() (float64, error) {
	bin, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < startReps; i++ {
		t0 := time.Now()
		out, err := exec.Command(bin, startProbe).Output()
		if err != nil {
			return 0, err
		}
		ns, err := strconv.ParseInt(string(out), 10, 64)
		if err != nil {
			return 0, err
		}
		ds = append(ds, time.Unix(0, ns).Sub(t0).Seconds())
	}
	return median(ds), nil
}

// timeIteration runs one iteration inside the timed window and finishes
// it outside. The heap is collected first so one iteration's garbage is
// not charged to the next.
func timeIteration(ctx context.Context, it iteration) measured {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out := it.run(ctx)
	runS := time.Since(t0).Seconds()
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	it.finish(&out)
	return measured{
		runS: runS, cpuS: cpu1 - cpu0,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		out:     out,
	}
}

// layerValues flattens the tracer: sums and counts as recorded, sample
// sets as .p50/.tail/.n, and the request-per-cell ratio.
func layerValues(tr *tracer) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	vals := map[string]float64{}
	for k, v := range tr.counts {
		vals[k] = v
	}
	for name, xs := range tr.samples {
		d := summarize(xs)
		vals[name+".p50"], vals[name+".tail"], vals[name+".n"] = d.p50, d.tail, float64(d.n)
	}
	if cells := vals["fabric.cells_committed"]; cells > 0 {
		vals["fabric.requests_per_cell"] = vals["fabric.requests"] / cells
	}
	return vals
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metadata stamps a result with the machine, the code and the seed.
func metadata(c config) map[string]any {
	return map[string]any{
		"workload":      c.workload,
		"seed":          c.seed,
		"trace":         c.trace,
		"commit":        c.commit,
		"source_sha256": sourceDigest("."),
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root (skipping
// hidden and build directories), so a result names the code it measured
// even where no git commit is at hand.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	return digestFiles(files)
}

func digestFiles(files []string) string {
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
