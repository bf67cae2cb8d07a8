package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"
)

// TestMain answers the start-up probe the way main does, since run times
// process start-up on whatever binary is running it.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == startProbe {
		fmt.Print(time.Now().UnixNano())
		return
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json at the root of the checkout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step: same names, units and directions, in order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(config{workload: w.Name, workDir: t.TempDir()}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	if len(names) != 3 {
		t.Errorf("workloads %v, want paper, campaign and crowd", names)
	}
}

// checkMetrics asserts the report carries exactly the listed metrics,
// each with its unit.
func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("report has %d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload at reduced size: the output must verify,
// every end-to-end metric must be printed with its unit, and a corrupted
// output must trip the correctness check and count as a failure.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"paper", "campaign", "crowd"} {
		t.Run(name, func(t *testing.T) {
			c := config{workload: name, seed: 1, seconds: 0.001, workDir: t.TempDir(), scale: smokeScale}
			rep, err := run(c, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("report correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep, endToEnd)

			c.corrupt = true
			w, err := newWorkload(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(c.workDir+"/tmp", 0o755); err != nil {
				t.Fatal(err)
			}
			it, err := w.setup(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.prepare(context.Background()); err != nil {
				it.finish(nil)
				t.Fatal(err)
			}
			m := timeIteration(context.Background(), it)
			if m.out.correct || m.out.failed < 1 {
				t.Errorf("corrupted output passed: correct=%v failed=%d", m.out.correct, m.out.failed)
			}
		})
	}
}

// TestSmokeTraced checks the traced run prints every per-layer metric
// with its unit and writes its Chrome trace.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	dir := t.TempDir()
	c := config{workload: "crowd", seed: 1, seconds: 0.001, trace: true, workDir: dir, scale: smokeScale}
	rep, err := run(c, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, rep, perLayer)
	if rep.Metrics["eventsim.arrived"].Value <= 0 {
		t.Errorf("eventsim.arrived = %v, want > 0", rep.Metrics["eventsim.arrived"].Value)
	}
	var events []map[string]any
	data, err := os.ReadFile(dir + "/traces/crowd-seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace: %d events, %v", len(events), err)
	}
}

// TestCampaignPin recomputes the pinned campaign digest with the local
// runner, so the pin stays tied to runner.RunJobPayloads.
func TestCampaignPin(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full-scale campaign locally")
	}
	got, err := newCampaign(config{}, t.TempDir()).localDigest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != campaignDigest {
		t.Errorf("local runner digest %s, pinned %s", got, campaignDigest)
	}
}
