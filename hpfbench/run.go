package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setUp starts the cluster, generates the job specs from the seed and
// makes every plan of a cyclic workload hot with one job each. It
// returns the warm-up outcomes ungated: the caller gates them after it
// has stopped the set-up clock.
func setUp(w *workload, o options) (*clusterEnv, *jobSet, []outcome, error) {
	js := w.jobs(o.seed, o.tiny)
	if err := js.marshalPool(); err != nil {
		return nil, nil, nil, err
	}
	env, err := startCluster(w.cacheBytes)
	if err != nil {
		return nil, nil, nil, err
	}
	var warm []outcome
	if js.fresh == nil {
		cli := newClient(1)
		defer cli.CloseIdleConnections()
		for k := 0; k < js.plans; k++ {
			warm = append(warm, closedJob(env, cli, js, k, false))
		}
	}
	return env, js, warm, nil
}

// closedJob runs job i to completion: submit, then wait for the result.
func closedJob(env *clusterEnv, cli *http.Client, js *jobSet, i int, timed bool) outcome {
	body, sp, key, err := js.body(i)
	o := outcome{key: key, spec: sp, timed: timed, t0: time.Now()}
	if err != nil {
		o.err = err
		return o
	}
	a, err := env.submit(cli, body)
	o.t1 = time.Now()
	if err != nil {
		o.err = err
		return o
	}
	o.id, o.shard = a.ID, a.Shard
	o.view, o.err = env.wait(cli, a.ID)
	o.t2 = time.Now()
	return o
}

// phase is one timed stretch of traffic.
type phase struct {
	jobs int
	wall time.Duration
	late []float64 // open loop: how late each send was, ms
	// outs are the phase's outcomes in submit order, not yet gated:
	// the caller gates them once the phase's counters are read.
	outs []outcome
}

// rssProbe reads the process's peak resident set once, when the timed
// phase has served a fixed number of jobs. The service keeps every
// job's result, so a peak read at the end of the phase would grow with
// throughput; read at a fixed count it measures the same work in every
// run.
type rssProbe struct {
	at  int64 // jobs served when the peak is read
	n   atomic.Int64
	mib float64
	err error
}

// served counts one served job and reads the peak on the at-th.
func (p *rssProbe) served() {
	if p != nil && p.n.Add(1) == p.at {
		p.mib, p.err = peakRSSMiB()
	}
}

// closedPhase runs the closed loop for dur: each client sends its
// next job only when the previous one has answered. The phase ends when
// the last job started before dur has answered. The outcomes are kept
// for gating after the phase, so the client-side checks stay out of its
// wall time.
func closedPhase(env *clusterEnv, js *jobSet, clients int, dur time.Duration, next *atomic.Int64, rss *rssProbe) phase {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var done atomic.Int64
	outs := make([][]outcome, clients)
	for c := 0; c < clients; c++ {
		// Several clients over a cyclic pool each draw their jobs from a
		// seeded random sequence: with a shared round-robin counter the
		// clients fall into long-lived patterns of landing on the same
		// shard or on different ones, and throughput drifts with them.
		pick := func() int { return int(next.Add(1) - 1) }
		if js.fresh == nil && clients > 1 {
			rng := rand.New(rand.NewSource(js.seed*1_000_003 + int64(c)))
			pick = func() int { return rng.Intn(len(js.pool)) }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := newClient(1)
			defer cli.CloseIdleConnections()
			for time.Now().Before(deadline) {
				o := closedJob(env, cli, js, pick(), true)
				if o.err == nil {
					done.Add(1)
					rss.served()
				}
				outs[c] = append(outs[c], o)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t0.Before(all[j].t0) })
	return phase{jobs: int(done.Load()), wall: wall, outs: all}
}

// openPhase sends bursts of w.burstSize same-plan jobs at js.burstsPerS
// for dur from one generator goroutine, whatever the service's state:
// each job is timed from its due time to its finished stamp. Results
// are collected after the last send.
func openPhase(env *clusterEnv, js *jobSet, w *workload, dur time.Duration, rss *rssProbe) phase {
	cli := newClient(2)
	defer cli.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / js.burstsPerS)
	rhsPerPlan := len(js.pool) / js.plans
	start := time.Now()
	var sent []outcome
	var late []float64
	for b := 0; ; b++ {
		due := start.Add(time.Duration(b) * interval)
		if !due.Before(start.Add(dur)) {
			break
		}
		time.Sleep(time.Until(due))
		for j := 0; j < w.burstSize; j++ {
			key := (j%rhsPerPlan)*js.plans + b%js.plans
			body, sp, _, err := js.body(key)
			o := outcome{key: key, spec: sp, timed: true, due: due, t0: time.Now()}
			late = append(late, ms(o.t0.Sub(due)))
			if err == nil {
				var a ack
				a, err = env.submit(cli, body)
				o.id, o.shard = a.ID, a.Shard
			}
			if err == nil {
				rss.served()
			}
			o.t1, o.err = time.Now(), err
			sent = append(sent, o)
		}
	}
	var last time.Time
	jobs := 0
	for i := range sent {
		o := &sent[i]
		if o.err == nil {
			o.view, o.err = env.wait(cli, o.id)
			o.t2 = time.Now()
		}
		if o.err == nil {
			jobs++
			if o.view.Finished.After(last) {
				last = o.view.Finished
			}
		}
	}
	// The phase lasts until the last job finished: a service that falls
	// behind the offered rate stretches it, and the achieved rate drops.
	return phase{jobs: jobs, wall: last.Sub(start), late: late, outs: sent}
}

func runPhase(env *clusterEnv, js *jobSet, w *workload, dur time.Duration, next *atomic.Int64, rss *rssProbe) phase {
	if w.loop == loopOpen {
		return openPhase(env, js, w, dur, rss)
	}
	return closedPhase(env, js, w.clients, dur, next, rss)
}

// procCounters snapshots the process-wide allocation and CPU counters.
type procCounters struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procCounters{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// run executes one workload invocation.
func run(o options) (*result, *details, error) {
	w := workloads[o.workload]
	col := newCollector(nil)
	repeats := w.setupRepeats
	if o.tiny {
		repeats = 1
	}
	var env *clusterEnv
	var js *jobSet
	var setupRuns []float64
	for r := 0; r < repeats; r++ {
		if env != nil {
			env.close()
		}
		// Each set-up starts from a collected heap, so one set-up's
		// garbage is not collected on the next one's clock.
		runtime.GC()
		t0 := time.Now()
		var warm []outcome
		var err error
		env, js, warm, err = setUp(w, o)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupRuns = append(setupRuns, time.Since(t0).Seconds())
		col.js = js
		col.recordAll(warm)
	}
	ev0 := env.evictions()

	dur := time.Duration(o.seconds * float64(time.Second))
	var next atomic.Int64
	if js.fresh == nil {
		next.Store(int64(js.plans)) // the warm-up ran the first request of each plan
	}
	m := map[string]metric{}
	det := &details{Workload: w.name, Seed: o.seed, Loop: w.loop, Clients: w.clients, SetupRuns: setupRuns}
	if w.loop == loopOpen {
		det.RateJobsPerS = js.burstsPerS * float64(w.burstSize)
	}

	var main phase
	var rec *spanRecorder
	rss := &rssProbe{at: w.rssAtJobs}
	if o.tiny {
		rss.at = 1
	}
	if !o.trace {
		main = runPhase(env, js, w, dur, &next, rss)
		col.recordAll(main.outs)
	} else {
		// Untraced half, then traced half: their throughput ratio is the
		// tracing overhead. Process counters cover the untraced half.
		p0 := readProc()
		untraced := runPhase(env, js, w, dur/2, &next, nil)
		p1 := readProc()
		col.recordAll(untraced.outs)
		m["proc.allocs_per_job"] = metric{float64(p1.mallocs-p0.mallocs) / float64(max(untraced.jobs, 1)), "count"}
		m["proc.gc_cpu_share"] = metric{(p1.gcCPU - p0.gcCPU) / math.Max(p1.allCPU-p0.allCPU, 1e-9), "ratio"}
		col.resetTimed()
		rec = newSpanRecorder()
		main = runPhase(env, js, w, dur/2, &next, nil)
		col.spans = rec
		col.recordAll(main.outs)
		col.spans = nil
		uj := float64(untraced.jobs) / untraced.wall.Seconds()
		tj := float64(main.jobs) / main.wall.Seconds()
		m["trace.overhead_ratio"] = metric{tj / uj, "ratio"}
		det.SpanFile = filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.json", w.name, o.seed))
	}
	ev1 := env.evictions()
	env.close()

	col.mu.Lock()
	lat := append([]float64(nil), col.latMs...)
	col.mu.Unlock()
	if len(lat) == 0 {
		return nil, nil, fmt.Errorf("no job completed in the timed phase (%d attempted, first errors %v)", col.attempted, col.errs)
	}
	tail := tailPercentile(len(lat), w.tailPct)
	det.Samples, det.TailPercentile, det.TailBeyond = len(lat), tail, beyond(len(lat), tail)
	if len(main.late) > 0 {
		det.LateMsP50, det.LateMsMax = median(main.late), quantile(main.late, 1)
	}
	if !o.trace {
		// A phase too slow to reach the count (throughput far below
		// what the count was sized for) reads the peak at its end;
		// the details line records the count it was read at.
		det.RSSAtJobs = rss.at
		if n := rss.n.Load(); n < rss.at {
			det.RSSAtJobs = n
			rss.mib, rss.err = peakRSSMiB()
		}
		if rss.err != nil {
			return nil, nil, rss.err
		}
	}

	// The modeled figures come from a solo replay of the prefix jobs,
	// checked against the served replies; the cluster is down by now so
	// the replay's wall timings see an idle host.
	if rec == nil {
		rec = newSpanRecorder() // untraced run: the replay's spans are dropped
	}
	plans, c, err := replayJobs(js, col, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	setupModel, complete := col.servedSetup()
	complete = complete && c.jobs == js.prefix
	solveModel := c.solveModel / float64(max(c.jobs, 1))
	iters := float64(c.iterations) / float64(max(c.jobs, 1))
	fp := map[string]float64{"model_solve_s": solveModel, "model_setup_s": setupModel, "core.iterations": iters}

	if !o.trace {
		m["jobs_per_s"] = metric{float64(main.jobs) / main.wall.Seconds(), "jobs/s"}
		m["latency_p50_ms"] = metric{median(lat), "ms"}
		m["latency_tail_ms"] = metric{quantile(lat, tail/100), "ms"}
		m["setup_s"] = metric{median(setupRuns), "s"}
		m["model_solve_s"] = metric{solveModel, "s"}
		m["peak_rss_mb"] = metric{rss.mib, "MiB"}
	} else {
		col.mu.Lock()
		lm := layerInputs{
			submitMs: col.submitMs, overheadMs: col.overheadMs, queueMs: col.queueMs, runMs: col.runMs,
			completed: col.completed, batchInv: col.batchInv, hits: col.hits, perShard: col.perShard,
		}
		col.mu.Unlock()
		addServedLayers(m, lm, tail)
		m["serve.evictions"] = metric{float64(ev1 - ev0), "count"}
		m["model_setup_s"] = metric{setupModel, "s"}
		m["core.iterations"] = metric{iters, "count"}
		m["loadgen.late_ms_p50"] = metric{det.LateMsP50, "ms"}
		m["loadgen.late_ms_max"] = metric{det.LateMsMax, "ms"}

		doc := &spanFile{Workload: w.name, Seed: o.seed, Computed: map[string]float64{}}
		doc.Overhead.TracedJobsPerS = float64(main.jobs) / main.wall.Seconds()
		doc.Overhead.Ratio = m["trace.overhead_ratio"].Value
		doc.Overhead.UntracedJobsPerS = doc.Overhead.TracedJobsPerS / doc.Overhead.Ratio
		if err := layerMetrics(plans, c, rec, m, doc); err != nil {
			return nil, nil, fmt.Errorf("layer replay: %w", err)
		}
		for _, k := range []string{"core.reductions_per_iter", "comm.msgs_per_job", "comm.bytes_per_job"} {
			fp[k] = m[k].Value
		}
		if err := rec.write(det.SpanFile, doc); err != nil {
			return nil, nil, fmt.Errorf("span file: %w", err)
		}
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	if complete && !o.tiny {
		if err := checkFingerprint(o.outDir, w.name, o.seed, fp); err != nil {
			col.failed++
			col.note("%v", err)
		}
	}
	bad := col.failed + col.refused + col.wrong
	det.ErrorRate = float64(bad) / float64(max(col.attempted, 1))
	det.Refused, det.Wrong, det.Errors = col.refused, col.wrong, col.errs
	if o.trace {
		m["error_rate"] = metric{det.ErrorRate, "ratio"}
		m["serve.refused"] = metric{float64(col.refused), "count"}
	}
	return &result{Correct: bad == 0, Attempted: col.attempted, Failed: bad, Metrics: m}, det, nil
}

// layerInputs are the traced phase's per-job samples.
type layerInputs struct {
	submitMs, overheadMs, queueMs, runMs []float64
	completed                            int
	batchInv                             float64
	hits                                 int
	perShard                             map[string]int
}

// addServedLayers derives the cluster and serve layer metrics from the
// traced phase's jobs.
func addServedLayers(m map[string]metric, in layerInputs, tail float64) {
	m["cluster.submit_ms_p50"] = metric{median(in.submitMs), "ms"}
	m["cluster.overhead_ms_p50"] = metric{median(in.overheadMs), "ms"}
	most, total := 0, 0
	for _, n := range in.perShard {
		most = max(most, n)
		total += n
	}
	m["cluster.shard_skew"] = metric{float64(most) / (float64(total) / shardCount), "ratio"}
	m["serve.queue_ms_p50"] = metric{median(in.queueMs), "ms"}
	m["serve.queue_ms_tail"] = metric{quantile(in.queueMs, tail/100), "ms"}
	m["serve.run_ms_p50"] = metric{median(in.runMs), "ms"}
	m["serve.batch_occupancy"] = metric{float64(in.completed) / in.batchInv, "jobs/batch"}
	m["serve.plan_hit_ratio"] = metric{float64(in.hits) / float64(in.completed), "ratio"}
}
