package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"mfdl/internal/experiments"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/table"
)

// paperDigests pins the rendered artifact tables: at full scale this is
// sha256 of `mfdl all` standard output (10,528 bytes) at the commit the
// benchmark was written against; at smoke scale, of the same artifacts at
// steps 4.
var paperDigests = map[scale]string{
	fullScale:  "efc849383b2d64eb4ba95da931320152bcb98183f5cb3cf293f4abb44ba61a2f",
	smokeScale: "46d72d381a9bdd463086b49e42570d9c9fc6a6d428f0a0562715c2f407f04f31",
}

// paper renders the 12 `mfdl all` artifacts through experiments.* with
// PaperConfig, a cold in-memory solve cache and the runner pool at
// GOMAXPROCS. The inputs do not depend on the seed: the paper's
// parameters are the workload.
type paper struct {
	steps   int
	digest  string
	corrupt bool
}

func newPaper(c config) *paper {
	p := &paper{steps: 20, digest: paperDigests[c.scale], corrupt: c.corrupt}
	if c.scale == smokeScale {
		p.steps = 4
	}
	return p
}

func (p *paper) prepare(context.Context) error { return nil }

type paperIter struct {
	p   *paper
	tr  *tracer
	reg *obs.Registry
	cfg experiments.Config
}

func (p *paper) setup(tr *tracer) (iteration, error) {
	it := &paperIter{p: p, tr: tr, cfg: experiments.PaperConfig}
	if tr != nil {
		it.reg = obs.New()
	}
	it.cfg.Options.Cache = runner.NewCache().WithObs(it.reg)
	return it, nil
}

// artifact is one `mfdl all` subcommand: the tables it emits, in order.
type artifact struct {
	name   string
	metric string // per-layer metric its time is charged to
	pooled bool   // fans out over the runner pool
	tables func(ctx context.Context) ([]*table.Table, error)
}

func (it *paperIter) artifacts() []artifact {
	cfg, steps := it.cfg, it.p.steps
	one := func(tb *table.Table, err error) ([]*table.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*table.Table{tb}, nil
	}
	return []artifact{
		{"params", "experiments.rest_s", false, func(context.Context) ([]*table.Table, error) {
			tb := table.New("Table 1: parameters of the BitTorrent fluid model",
				"symbol", "meaning", "paper value")
			tb.MustAddRow("K", "number of files in the system", fmt.Sprintf("%d", cfg.K))
			tb.MustAddRow("λ₀", "web-server visiting rate", table.Fmt(cfg.Lambda0))
			tb.MustAddRow("p", "per-file request probability (file correlation)", "swept")
			tb.MustAddRow("μ", "peer upload bandwidth", table.Fmt(cfg.Mu))
			tb.MustAddRow("η", "downloader sharing efficiency", table.Fmt(cfg.Eta))
			tb.MustAddRow("γ", "seed departure rate", table.Fmt(cfg.Gamma))
			tb.MustAddRow("ρ", "CMFSD bandwidth allocation ratio", "swept")
			return []*table.Table{tb}, nil
		}},
		{"validate", "experiments.rest_s", false, func(context.Context) ([]*table.Table, error) {
			res, err := experiments.Validate(cfg)
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"fig2", "experiments.rest_s", false, func(context.Context) ([]*table.Table, error) {
			res, err := experiments.Fig2(cfg, experiments.PGrid(0, 1, steps))
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"fig3", "experiments.rest_s", false, func(context.Context) ([]*table.Table, error) {
			var out []*table.Table
			for _, p := range []float64{0.1, 1.0} {
				res, err := experiments.Fig3(cfg, p)
				if err != nil {
					return nil, err
				}
				out = append(out, res.Table())
			}
			return out, nil
		}},
		{"fig4a", "experiments.fig4a_s", true, func(ctx context.Context) ([]*table.Table, error) {
			res, err := experiments.Fig4A(ctx, cfg, experiments.PGrid(0.1, 1, steps/2), experiments.PGrid(0, 1, 10))
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"fig4b", "experiments.fig4b_s", false, func(context.Context) ([]*table.Table, error) {
			res, err := experiments.Fig4BC(cfg, 0.9, 0.1, 0.9)
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"fig4c", "experiments.rest_s", false, func(context.Context) ([]*table.Table, error) {
			res, err := experiments.Fig4BC(cfg, 0.1, 0.1, 0.9)
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"crossover", "experiments.rest_s", false, func(context.Context) ([]*table.Table, error) {
			res, err := experiments.Crossover(cfg)
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"stability", "experiments.stability_s", false, func(context.Context) ([]*table.Table, error) {
			_, tb, err := experiments.StabilityTable(cfg)
			return one(tb, err)
		}},
		{"eta", "experiments.rest_s", true, func(ctx context.Context) ([]*table.Table, error) {
			res, err := experiments.EtaAblation(ctx, cfg, []float64{0.25, 0.5, 0.75, 1.0}, experiments.PGrid(0, 1, steps))
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"cheating", "experiments.cheating_s", false, func(context.Context) ([]*table.Table, error) {
			res, err := experiments.CheatingSweep(cfg, 0.9, 0, []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1})
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
		{"kscaling", "experiments.kscaling_s", false, func(context.Context) ([]*table.Table, error) {
			res, err := experiments.KScaling(cfg, 0.9, []int{1, 2, 3, 5, 8, 10, 12, 15, 20})
			if err != nil {
				return nil, err
			}
			return one(res.Table(), nil)
		}},
	}
}

// run renders every artifact as `mfdl all` prints it (ASCII tables, each
// followed by a blank line) and checks the bytes against the pinned
// digest.
func (it *paperIter) run(ctx context.Context) outcome {
	var out outcome
	root := it.tr.start("paper", 0)
	defer root.end()
	var buf bytes.Buffer
	var poolWall, poolCPU float64
	for _, a := range it.artifacts() {
		out.attempted++
		sp := it.tr.start("experiments."+a.name, root.id)
		cpu0, t0 := cpuSeconds(), time.Now()
		tables, err := a.tables(ctx)
		wall := time.Since(t0).Seconds()
		sp.end()
		it.tr.add(a.metric, wall)
		if a.pooled {
			poolWall += wall
			poolCPU += cpuSeconds() - cpu0
		}
		if err != nil {
			out.failed++
			out.detail += fmt.Sprintf("%s: %v; ", a.name, err)
			continue
		}
		for _, tb := range tables {
			if err := tb.Write(&buf, "ascii"); err != nil {
				out.failed++
				out.detail += fmt.Sprintf("%s: %v; ", a.name, err)
			}
			buf.WriteString("\n")
		}
	}
	if poolWall > 0 {
		it.tr.add("runner.utilization", poolCPU/(poolWall*float64(runtime.GOMAXPROCS(0))))
	}
	got := buf.Bytes()
	if it.p.corrupt {
		got = corrupted(got)
	}
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != it.p.digest {
		out.failed++
		out.detail += fmt.Sprintf("tables: sha256 %x (%d bytes), want %s", sum, len(got), it.p.digest)
		return out
	}
	out.correct = out.failed == 0
	return out
}

// finish copies the solve cache's and the runner pool's registry
// readings into the tracer.
func (it *paperIter) finish(*outcome) {
	if it.tr == nil {
		return
	}
	h := it.reg.Histogram("solvecache_solve_seconds", obs.LatencyBuckets)
	it.tr.add("solvecache.solves", float64(it.reg.Counter("solvecache_solves_total").Value()))
	it.tr.add("solvecache.hits", float64(it.reg.Counter("solvecache_hits_total").Value()))
	it.tr.add("solvecache.solve_s", h.Sum())
	it.tr.addDist("solvecache.solve_ms", bucketDist(h.Bounds(), h.BucketCounts()), 1000)
	// The experiments hand the runner pool no registry, so this gauge
	// stays unset (0) until they do; it is read, not computed, so a
	// change that wires it in shows up here.
	it.tr.add("runner.queue_wait_s", it.reg.Gauge("runner_queue_wait_seconds").Value())
}
