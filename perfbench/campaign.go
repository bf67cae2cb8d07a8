package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mfdl/internal/experiments"
	"mfdl/internal/fabric"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/sim"
)

// fabricWorkers is the campaign's fleet size: one worker per CPU of the
// 2-CPU machine the benchmark was written on.
const fabricWorkers = 2

// campaignRounds are the replica counts of the sequential-stopping
// rounds: round 2 doubles R, so half of its cells resume from the sample
// store round 1 filled.
var campaignRounds = []int{4, 8}

// campaignSeed is the simulator seed of every campaign, whatever the
// benchmark seed: DefaultSimSettings' base seed. The CPU cost of the 96
// simulations is heavy-tailed in the replica seeds (the slowest replica
// costs about ten times the median), so across ten seeds cpu_s spread by a
// quarter of its median, which would swamp any change the campaign is
// there to show.
const campaignSeed = 1

// campaignDigest pins payloadDigest of the local runner's output — every
// round's runner.RunJobPayloads and the table reduced from the last — at
// full scale, as computed by the code the benchmark was written against.
// The smoke scale computes it live; TestCampaignPin recomputes the pin.
const campaignDigest = "c2df39b8a0767cfced71c81cc9fd5b3532430ced7ac9cc85b82e2579ab6b58e6"

// campaign is `sweepd serve -job simvalidate` growing R over two rounds,
// each round worked by fabricWorkers fresh `sweepd work` workers, as
// `-local-workers` starts them: one address whose coordinator is swapped
// per round, one checkpoint store and one sample store shared by both
// rounds. Cells are flow simulations, so the work is compute-bound, and
// the round boundary is where idle workers cost time. A round's workers
// are stopped before the next coordinator is installed: a worker asleep
// in its retry tail across the swap would lease a cell of the next round
// with the old spec and exit with an error, and a workload here may not
// fail an operation.
type campaign struct {
	set     experiments.SimSettings
	ps      []float64
	tmp     string
	want    string // payloadDigest the campaign must reproduce
	corrupt bool
}

func newCampaign(cf config, tmp string) *campaign {
	d := experiments.DefaultSimSettings
	c := &campaign{
		set: experiments.SimSettings{
			Params: d.Params, K: d.K, Lambda0: d.Lambda0,
			Horizon: d.Horizon, Warmup: d.Warmup,
			Options: experiments.Options{Seed: campaignSeed},
		},
		ps: []float64{0.5, 0.9}, tmp: tmp, want: campaignDigest, corrupt: cf.corrupt,
	}
	if cf.scale == smokeScale {
		c.set.Horizon, c.set.Warmup = 200, 40
		c.want = ""
	}
	return c
}

func (c *campaign) round(r int) experiments.SimSettings {
	set := c.set
	set.Options.Replicas = r
	return set
}

// prepare computes the local runner's digest when none is pinned.
func (c *campaign) prepare(ctx context.Context) error {
	if c.want != "" {
		return nil
	}
	var err error
	c.want, err = c.localDigest(ctx)
	return err
}

// localDigest runs the campaign's jobs with the local runner. The last
// round's job holds every replica of the earlier rounds (replica seeds do
// not depend on R), so one local run yields every round's payloads.
func (c *campaign) localDigest(ctx context.Context) (string, error) {
	last := campaignRounds[len(campaignRounds)-1]
	plan, err := experiments.PlanSimValidate(c.round(last), c.ps)
	if err != nil {
		return "", err
	}
	all, err := runner.RunJobPayloads(ctx, plan.Spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		return "", err
	}
	var rounds [][][]byte
	for _, r := range campaignRounds {
		var round [][]byte
		for i := 0; i < len(all)/last*r; i++ {
			round = append(round, all[i/r*last+i%r])
		}
		rounds = append(rounds, round)
	}
	aggs, err := sim.ReduceJob(plan.Spec, all)
	if err != nil {
		return "", err
	}
	res, err := plan.Result(aggs)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	if err := res.Table().Write(&b, "ascii"); err != nil {
		return "", err
	}
	return payloadDigest(rounds, b.Bytes()), nil
}

// payloadDigest hashes every round's payloads, in cell order, and the
// final table.
func payloadDigest(rounds [][][]byte, table []byte) string {
	h := sha256.New()
	for i, round := range rounds {
		for _, p := range round {
			fmt.Fprintf(h, "round %d payload %d\n", i+1, len(p))
			h.Write(p)
		}
	}
	fmt.Fprintf(h, "table %d\n", len(table))
	h.Write(table)
	return hex.EncodeToString(h.Sum(nil))
}

type campaignIter struct {
	c       *campaign
	tr      *tracer
	reg     *obs.Registry
	dir     string
	store   *diskcache.CheckpointStore
	samples *diskcache.SampleStore
	host    *host
	fl      *fleet
	ops     ops
	root    span
	csp     span
	// committed counts cells completed by workers (not resumed).
	committed int
}

func (c *campaign) setup(tr *tracer) (iteration, error) {
	it := &campaignIter{c: c, tr: tr, fl: &fleet{}}
	if tr != nil {
		it.reg = obs.New()
	}
	var err error
	if it.dir, err = os.MkdirTemp(c.tmp, "campaign-"); err != nil {
		return nil, err
	}
	if it.store, err = diskcache.OpenCheckpoint(filepath.Join(it.dir, "checkpoints")); err != nil {
		it.finish(nil)
		return nil, err
	}
	it.store.WithObs(it.reg)
	if it.samples, err = diskcache.OpenSamples(filepath.Join(it.dir, "samples")); err != nil {
		it.finish(nil)
		return nil, err
	}
	it.samples.WithObs(it.reg)
	if it.host, err = listen(); err != nil {
		it.finish(nil)
		return nil, err
	}
	it.host.tr = tr
	return it, nil
}

// run plans, serves and reduces each round in turn and renders the final
// table; the payloads of every round and the table must reproduce the
// local runner's digest.
func (it *campaignIter) run(ctx context.Context) outcome {
	var out outcome
	it.root = it.tr.start("campaign", 0)
	it.csp = it.tr.start("coordinator", it.root.id)
	it.host.sp = it.csp.id
	var plan *experiments.SimValidatePlan
	var aggs []replica.Agg
	var rounds [][][]byte
	for i, r := range campaignRounds {
		rsp := it.tr.start(fmt.Sprintf("round%d", i+1), it.root.id)
		t0 := time.Now()
		psp := it.tr.start("experiments.PlanSimValidate", rsp.id)
		var err error
		plan, err = experiments.PlanSimValidate(it.c.round(r), it.c.ps)
		it.tr.add("experiments.plan_s", psp.end().Seconds())
		if err != nil {
			out.failed, out.detail = 1, fmt.Sprintf("round %d plan: %v", i+1, err)
			return out
		}
		coord, err := fabric.NewCoordinator(plan.Spec, it.store, fabric.CoordinatorOptions{
			Obs: it.reg, Samples: it.samples,
		})
		if err != nil {
			out.failed, out.detail = 1, fmt.Sprintf("round %d coordinator: %v", i+1, err)
			return out
		}
		resumed := coord.Status().Done
		// The previous round's workers are gone before this coordinator is
		// installed, so no worker carries one round's spec into the next.
		it.fl.stop()
		it.host.swap(coord)
		it.fl.start(ctx, it.host.url, fabricWorkers, &it.ops, it.tr, rsp.id)
		if it.tr != nil {
			// Payloads clears the round's checkpoints, so their footprint
			// is read at completion.
			select {
			case <-coord.Done():
				it.tr.add("checkpoint.dir_bytes", float64(dirBytes(it.store.Dir())))
			case <-ctx.Done():
			}
		}
		payloads, err := coord.Payloads(ctx)
		if err != nil {
			out.failed, out.detail = 1, fmt.Sprintf("round %d payloads: %v", i+1, err)
			return out
		}
		it.committed += len(payloads) - resumed
		rounds = append(rounds, payloads)
		rdsp := it.tr.start("sim.ReduceJob", rsp.id)
		aggs, err = sim.ReduceJob(plan.Spec, payloads)
		it.tr.add("sim.reduce_s", rdsp.end().Seconds())
		if err != nil {
			out.failed, out.detail = 1, fmt.Sprintf("round %d reduce: %v", i+1, err)
			return out
		}
		rsp.end()
		it.tr.add(fmt.Sprintf("campaign.round%d_s", i+1), time.Since(t0).Seconds())
	}
	res, err := plan.Result(aggs)
	if err != nil {
		out.failed, out.detail = 1, "result: "+err.Error()
		return out
	}
	var b bytes.Buffer
	if err := res.Table().Write(&b, "ascii"); err != nil {
		out.failed, out.detail = 1, "table: "+err.Error()
		return out
	}
	table := b.Bytes()
	if it.c.corrupt {
		table = corrupted(table)
	}
	if got := payloadDigest(rounds, table); got != it.c.want {
		out.failed = 1
		out.detail = fmt.Sprintf("payload digest %s, local runner %s", got, it.c.want)
		return out
	}
	out.correct = true
	return out
}

// finish cancels the last round's workers (the campaign is over; a real
// serve process would exit here), then stops the server and removes the
// stores.
func (it *campaignIter) finish(out *outcome) {
	it.fl.stop()
	fabricOutcome(out, it.tr, it.fl, &it.ops, it.committed, it.reg)
	if it.host != nil {
		it.host.close()
	}
	it.csp.end()
	it.root.end()
	os.RemoveAll(it.dir)
}
