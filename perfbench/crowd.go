package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"mfdl/internal/eventsim"
	"mfdl/internal/experiments"
	"mfdl/internal/scheme"
)

// crowdSeeds is how many simulator seeds the crowd draws from: benchmark
// seed n runs simulator seed 1 + n mod crowdSeeds, so every input the
// benchmark can generate has a pinned result digest.
const crowdSeeds = 16

// crowdDigests pins sha256 of resultDigest for each simulator seed, per
// scale, as computed by the code the benchmark was written against.
var crowdDigests = map[scale]map[uint64]string{
	fullScale: {
		1:  "e4049a65be9d69dfb9eab7a4e84904b932308f199d5a600819ca5bbe5593eb8a",
		2:  "c5aa13886328da32490b6506f87d61e7548de958af59b5526bcf9edd3c88ca6c",
		3:  "c080651d53358eaca327cb2ef76aecc2d45728929591c546dfad65cf722417f3",
		4:  "8787689dea11c2a26ee3aac8b367113f87a0c1b382f85172e4772e963caa9ad2",
		5:  "e35f419ccb668516fa9d35e63a841fe3f3c27002c9479bd004732c1a52a06a63",
		6:  "ef1b251f78e72b6b6a60c9c0821e9452eb13dfd970f69bb8f8e4c640f6a865b0",
		7:  "9a9c168b823572e0587a33145a1b1aa0d8c6cbb4854578bc60086adc2f5a05ca",
		8:  "ce9248712be4cbec3dc6c6bfd5b90762eb84b3cdabaf2cb2dec96c96d0fcc21c",
		9:  "4b3e42421eccd4fd0b23d1d029bc73be4fe0ae419f4cce18024f50a65de96840",
		10: "93f9ad5d1adadddd6bba9c9c546570104a76a6ef8069390b713e5605a2ea4be6",
		11: "16e75661a1568224c2813ed807df218c6ba31d84d9f021ec4a021012e7f1c938",
		12: "d7218ee257b0ca2c63e23c954be64aab2243bb15a0fd02b9d6074b635188e269",
		13: "0e30a110418297a711fd1172913b14045142bad27c550b631538f9269e2f24ad",
		14: "ede915a68fda0d2e0b4a5af56e2cbf98b8e9496acaa3902eb5d41f05932d6ede",
		15: "c66943e2e29554d20df3a846e928eeaf8f77d2a4c340bb713ea60c8d82c181bf",
		16: "9ba7f5f452b4e767e2e47d30df34d7d6b3bb3488b9072ae000f94ae7a126adc8",
	},
	smokeScale: {2: "1066921168dafb500da28aa74d3fbb3b385a7882370e1722e5e062faaa43b569"},
}

// crowd runs one flow-level CMFSD flash crowd to a fixed horizon.
type crowd struct {
	cfg     eventsim.Config
	digest  string
	corrupt bool
}

func newCrowd(c config) (*crowd, error) {
	cfg := eventsim.Config{
		Params: experiments.DefaultSimSettings.Params, K: 10, Lambda0: 1,
		P: 0.9, Scheme: scheme.SimCMFSD, Rho: 0.3,
		FlashCrowd: 10000, Horizon: 20, Warmup: 0,
		Seed: 1 + c.seed%crowdSeeds,
	}
	if c.scale == smokeScale {
		cfg.FlashCrowd, cfg.Horizon = 300, 5
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &crowd{cfg: cfg, digest: crowdDigests[c.scale][cfg.Seed], corrupt: c.corrupt}, nil
}

func (c *crowd) prepare(context.Context) error { return nil }

type crowdIter struct {
	c  *crowd
	tr *tracer
}

func (c *crowd) setup(tr *tracer) (iteration, error) { return &crowdIter{c: c, tr: tr}, nil }

func (it *crowdIter) run(context.Context) outcome {
	out := outcome{attempted: 1}
	sp := it.tr.start("eventsim.Run", 0)
	t0 := time.Now()
	res, err := eventsim.Run(it.c.cfg)
	runS := time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		out.failed, out.detail = 1, err.Error()
		return out
	}
	it.tr.add("eventsim.run_s", runS)
	it.tr.add("eventsim.sim_time_per_s", it.c.cfg.Horizon/runS)
	it.tr.add("eventsim.arrived", float64(res.ArrivedUsers))
	it.tr.add("eventsim.mean_population", res.MeanDownloaders+res.MeanSeeds)
	got := resultDigest(res)
	if it.c.corrupt {
		got = string(corrupted([]byte(got)))
	}
	if got != it.c.digest {
		out.failed = 1
		out.detail = fmt.Sprintf("simulator seed %d: result digest %s, want %q", it.c.cfg.Seed, got, it.c.digest)
		return out
	}
	out.correct = true
	return out
}

func (it *crowdIter) finish(*outcome) {}

// resultDigest hashes every count and the exact bits of every statistic
// of a Result, so any change to the simulated trajectory changes it.
func resultDigest(r *eventsim.Result) string {
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var sb strings.Builder
	fmt.Fprintf(&sb, "arrived=%d completed=%d aborted=%d seedquits=%d online=%s dl=%s meandl=%s meansd=%s rho=%s/%d",
		r.ArrivedUsers, r.CompletedUsers, r.AbortedUsers, r.SeedQuits,
		bits(r.AvgOnlinePerFile), bits(r.AvgDownloadPerFile),
		bits(r.MeanDownloaders), bits(r.MeanSeeds), bits(r.FinalRho.Mean()), r.FinalRho.N())
	for _, cs := range r.Classes {
		fmt.Fprintf(&sb, " c%d=%d/%s/%s", cs.Class, cs.Completed,
			bits(cs.OnlineTime.Mean()), bits(cs.DownloadTime.Mean()))
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}
