package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, workload string, trace bool) (*result, *details) {
	t.Helper()
	res, det, err := run(options{workload: workload, seed: 3, seconds: 0.6, trace: trace, tiny: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v", workload, trace, res.Correct, res.Attempted, res.Failed, det.Errors)
	}
	return res, det
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at tiny
// sizes in both modes and checks that exactly the declared metrics come
// out, each with its declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark defines %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, _ := tinyRun(t, wl.Name, trace)
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", wl.Name, trace, name)
				}
			}
		}
	}
}

// TestSpansNest checks the traced run's span file: every child span
// lies inside its parent and carries the parent's job ID.
func TestSpansNest(t *testing.T) {
	_, det := tinyRun(t, "serve-hot", true)
	data, err := os.ReadFile(det.SpanFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc spanFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	for _, s := range doc.Spans {
		byID[s.ID] = s
	}
	names := map[string]int{}
	for _, s := range doc.Spans {
		names[s.Name]++
		if s.EndUs < s.StartUs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
		}
		if s.Job != p.Job {
			t.Errorf("span %d %s: job %q, parent's %q", s.ID, s.Name, s.Job, p.Job)
		}
		if s.StartUs < p.StartUs || s.EndUs > p.EndUs {
			t.Errorf("span %d %s [%g,%g] outside parent %s [%g,%g]", s.ID, s.Name, s.StartUs, s.EndUs, p.Name, p.StartUs, p.EndUs)
		}
	}
	for _, n := range []string{"client.job", "cluster.submit", "cluster.wait", "serve.queue", "serve.run",
		"replay.plan", "sparse.build", "hpfexec.solve_warm", "comm.machine_run", "spmv.applydot", "mg.vcycle", "mfree.apply"} {
		if names[n] == 0 {
			t.Errorf("no %s span recorded", n)
		}
	}
	if len(doc.SelfTime) == 0 || len(doc.Layers) == 0 || doc.Overhead.Ratio <= 0 {
		t.Errorf("span file lacks the self-time table or the overhead figure")
	}
}

// TestSelfTime checks self time against hand-computed values: the
// children's union is subtracted once, and only inside the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a.root", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "b.x", StartUs: 10, EndUs: 40},
		{ID: 3, Parent: 1, Name: "b.y", StartUs: 30, EndUs: 60},  // overlaps b.x
		{ID: 4, Parent: 1, Name: "b.z", StartUs: 90, EndUs: 120}, // runs past the parent
	}
	got := map[string]float64{}
	for _, row := range selfTimes(spans) {
		got[row.Name] = row.SelfMs * 1e3
	}
	want := map[string]float64{"a.root": 100 - 50 - 10, "b.x": 30, "b.y": 30, "b.z": 30}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("self time of %s = %gµs, want %gµs", n, got[n], w)
		}
	}
}

// TestOpenLoopReportsLateness drives the open-loop generator directly
// and checks it reports one lateness sample per job sent, and that a
// serve-burst run carries the figures.
func TestOpenLoopReportsLateness(t *testing.T) {
	w := workloads["serve-burst"]
	col := newCollector(nil)
	env, js, warm, err := setUp(w, options{workload: w.name, seed: 5, tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	col.js = js
	col.recordAll(warm)
	var next atomic.Int64
	ph := runPhase(env, js, w, 200*time.Millisecond, &next, nil)
	col.recordAll(ph.outs)
	bursts := 0
	for b := 0; time.Duration(b)*time.Duration(float64(time.Second)/js.burstsPerS) < 200*time.Millisecond; b++ {
		bursts++
	}
	if len(ph.late) != bursts*w.burstSize {
		t.Fatalf("%d lateness samples for %d jobs sent", len(ph.late), bursts*w.burstSize)
	}
	for _, l := range ph.late {
		if l < 0 {
			t.Fatalf("negative lateness %g ms", l)
		}
	}
	if col.failed+col.refused+col.wrong != 0 {
		t.Fatalf("open-loop jobs failed: %v", col.errs)
	}

	res, det := tinyRun(t, "serve-burst", true)
	if det.LateMsMax < det.LateMsP50 || det.LateMsP50 <= 0 || det.RateJobsPerS <= 0 {
		t.Errorf("serve-burst details: late p50 %g max %g rate %g", det.LateMsP50, det.LateMsMax, det.RateJobsPerS)
	}
	if res.Metrics["loadgen.late_ms_max"].Value != det.LateMsMax {
		t.Errorf("loadgen.late_ms_max %g, details say %g", res.Metrics["loadgen.late_ms_max"].Value, det.LateMsMax)
	}
}

// TestRSSProbeReadsOnce checks that the peak resident set is read at
// the probe's job count and not again, and that a nil probe is inert.
func TestRSSProbeReadsOnce(t *testing.T) {
	var none *rssProbe
	none.served()
	p := &rssProbe{at: 3}
	for i := 0; i < 2; i++ {
		p.served()
	}
	if p.mib != 0 {
		t.Fatalf("peak read after 2 jobs, probe set at 3")
	}
	p.served()
	if p.err != nil || p.mib <= 0 {
		t.Fatalf("peak after 3 jobs: %g MiB, err %v", p.mib, p.err)
	}
	p.mib = -1
	p.served()
	if p.mib != -1 {
		t.Fatalf("peak read again after the probe's count")
	}
}
