package main

import (
	"fmt"
	"math"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpf"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/inspector"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/partition"
	"hpfcg/internal/serve"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

// callBudget is how long a repeated call is timed for: long enough
// that a microsecond call is averaged over many repetitions.
const callBudget = 20 * time.Millisecond

// timeCall runs f repeatedly for about callBudget (at least once) and
// returns the mean time per call and the call count.
func timeCall(f func()) (time.Duration, int, time.Time, time.Time) {
	start := time.Now()
	n := 0
	for {
		f()
		n++
		if el := time.Since(start); el >= callBudget {
			end := time.Now()
			return end.Sub(start) / time.Duration(n), n, start, end
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayPlan is one distinct plan replayed through the layers' public
// entry points, the way the serving path calls them.
type replayPlan struct {
	spec serve.JobSpec
	m    *comm.Machine
	A    *sparse.CSR // assembled plans only
	d    dist.Contiguous
	pr   *hpfexec.Prepared
	// wall timings, ms or µs per call as named
	buildMs, hashMs, planUs, chooseUs, balanceUs, prepareMs, coldMs, warmMs float64
	sstep, iterations                                                       int
}

func machineFor(sp serve.JobSpec) (*comm.Machine, error) {
	name := sp.Topology
	if name == "" {
		name = "hypercube"
	}
	topo, err := topology.ByName(name)
	if err != nil {
		return nil, err
	}
	return comm.NewMachine(sp.NP, topo, topology.DefaultCostParams()), nil
}

func mfreeSpec(st *serve.StencilSpec) mfree.Spec {
	return mfree.Spec{Stencil: st.Stencil, Nx: st.Nx, Ny: st.Ny, Nz: st.Nz, Center: st.Center, Off: st.Off}.WithDefaults()
}

func mgSpec(m *serve.MGSpec) mg.Spec {
	return mg.Spec{Nx: m.Nx, Ny: m.Ny, Nz: m.Nz, Levels: m.Levels, Smooths: m.Smooths, Coarse: m.Coarse}.WithDefaults()
}

func layoutOf(sp serve.JobSpec) string {
	if sp.Layout == "" {
		return "csr"
	}
	return sp.Layout
}

// prepare builds the handle the service would for this spec.
func prepare(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR, sp serve.JobSpec) (*hpfexec.Prepared, error) {
	switch {
	case sp.Method == "stencil" && sp.Pipelined:
		return hpfexec.PrepareStencilPipelined(m, mfreeSpec(sp.Stencil))
	case sp.Method == "stencil":
		return hpfexec.PrepareStencil(m, mfreeSpec(sp.Stencil))
	case sp.Method == "hpcg":
		return hpfexec.PrepareMG(m, mgSpec(sp.MG))
	case sp.Pipelined:
		return hpfexec.PreparePipelined(m, plan, A)
	}
	return hpfexec.PrepareSStep(m, plan, A, sp.SStep)
}

// replay times one plan's set-up layers, then a cold and a warm solve
// of the spec's right-hand side, recording a span per timed call under
// a replay.plan root.
func replay(sp serve.JobSpec, job string, rec *spanRecorder) (*replayPlan, error) {
	rp := &replayPlan{spec: sp}
	t0 := time.Now()
	var kids []span
	note := func(name string, calls int, a, b time.Time) {
		kids = append(kids, span{Name: name, Calls: calls, StartUs: rec.at(a), EndUs: rec.at(b)})
	}
	var err error
	var plan *hpf.Plan
	if sp.Method == "" || sp.Method == "cg" {
		per, n, a, b := timeCall(func() { rp.A, err = sparse.GeneratorByName(sp.Matrix) })
		if err != nil {
			return nil, err
		}
		rp.buildMs = ms(per)
		note("sparse.build", n, a, b)
	}
	per, n, a, b := timeCall(func() { _, err = sp.ContentHash() })
	if err != nil {
		return nil, err
	}
	rp.hashMs = ms(per)
	note("sparse.hash", n, a, b)

	if rp.A != nil {
		layout := layoutOf(sp)
		per, n, a, b = timeCall(func() { plan, err = hpfexec.PlanForLayout(layout, sp.NP, rp.A.NRows, rp.A.NNZ()) })
		if err != nil {
			return nil, err
		}
		rp.planUs = us(per)
		note("hpf.plan", n, a, b)
		weights := partition.AtomsFromPtr(rp.A.RowPtr).Weights()
		var cuts []int
		per, n, a, b = timeCall(func() { cuts = partition.BalancedContiguous(weights, sp.NP) })
		rp.balanceUs = us(per)
		note("partition.balance", n, a, b)
		if layout == "balanced" {
			rp.d = dist.NewIrregular(cuts)
		} else {
			rp.d = dist.NewBlock(rp.A.NRows, sp.NP)
		}
		if rp.m, err = machineFor(sp); err != nil {
			return nil, err
		}
		per, n, a, b = timeCall(func() { rp.sstep, _ = hpfexec.ChooseSStep(rp.m, rp.A, rp.d) })
		rp.chooseUs = us(per)
		note("hpfexec.choose", n, a, b)
	}

	per, n, a, b = timeCall(func() {
		if rp.m, err = machineFor(sp); err == nil {
			rp.pr, err = prepare(rp.m, plan, rp.A, sp)
		}
	})
	if err != nil {
		return nil, err
	}
	rp.prepareMs = ms(per)
	note("hpfexec.prepare", n, a, b)

	rhs := [][]float64{sparse.RandomVector(rp.pr.N(), sp.Seed)}
	opts := []core.Options{{Tol: sp.Tol, MaxIter: sp.MaxIter}}
	a = time.Now()
	if _, err := rp.pr.SolveBatch(rhs, opts); err != nil {
		return nil, err
	}
	b = time.Now()
	rp.coldMs = ms(b.Sub(a))
	note("hpfexec.solve_cold", 1, a, b)
	a = time.Now()
	out, err := rp.pr.SolveBatch(rhs, opts)
	if err != nil {
		return nil, err
	}
	b = time.Now()
	rp.warmMs = ms(b.Sub(a))
	rp.iterations = out.Results[0].Stats.Iterations
	note("hpfexec.solve_warm", 1, a, b)

	rec.addTree(job, "replay.plan", t0, time.Now(), kids)
	return rp, nil
}

// counts is the deterministic accounting of replayed jobs, summed.
type counts struct {
	jobs, iterations, reductions  int
	msgs, bytes                   int64
	solveModel                    float64
	model, comm, hidden, exposed  float64
	critLen, critCompute, critNet float64
}

func (c *counts) add(o counts) {
	c.jobs += o.jobs
	c.iterations += o.iterations
	c.reductions += o.reductions
	c.msgs += o.msgs
	c.bytes += o.bytes
	c.solveModel += o.solveModel
	c.model += o.model
	c.comm += o.comm
	c.hidden += o.hidden
	c.exposed += o.exposed
	c.critLen += o.critLen
	c.critCompute += o.critCompute
	c.critNet += o.critNet
}

// countJob solves the spec alone on pr's machine with the modeled-clock
// tracer attached and returns its accounting. It must repeat the served
// answer for the same key (ref) bit for bit, and the modeled times of
// the key's served solo reply; a mismatch is returned as an error with
// the accounting still valid.
func countJob(pr *hpfexec.Prepared, m *comm.Machine, sp serve.JobSpec, ref *firstReply) (counts, error) {
	warm := pr.Warm()
	var tr trace.Tracer
	m.AttachTracer(&tr)
	defer m.AttachTracer(nil)
	rhs := [][]float64{sparse.RandomVector(pr.N(), sp.Seed)}
	out, err := pr.SolveBatch(rhs, []core.Options{{Tol: sp.Tol, MaxIter: sp.MaxIter}})
	if err != nil {
		return counts{}, err
	}
	res := out.Results[0]
	hidden, exposed := out.Run.ReduceOverlap()
	ps := trace.CriticalPath(tr.Last())
	c := counts{
		jobs: 1, iterations: res.Stats.Iterations, reductions: res.Stats.Reductions, solveModel: out.SolveModelTime[0],
		msgs: out.Run.TotalMsgs, bytes: out.Run.TotalBytes,
		model: out.Run.ModelTime, comm: out.Run.CommTime(), hidden: hidden, exposed: exposed,
		critLen: ps.Length, critCompute: ps.Compute, critNet: ps.Network,
	}
	w := warmIndex(warm)
	switch {
	case ref == nil:
		// The key drew no served reply (a short run): nothing to compare.
	case !sameAnswer(ref, res.X, res.Stats.Iterations):
		return c, fmt.Errorf("%s: replayed answer differs from the served one", describe(sp))
	case ref.solo[w] && math.Float64bits(ref.soloModel[w]) != math.Float64bits(out.SolveModelTime[0]):
		return c, fmt.Errorf("%s: replayed solve_model_time %g differs from the served solo reply's %g", describe(sp), out.SolveModelTime[0], ref.soloModel[w])
	case ref.timed && math.Float64bits(ref.setupModel) != math.Float64bits(out.SetupModelTime):
		return c, fmt.Errorf("%s: replayed setup_model_time %g differs from the served %g", describe(sp), out.SetupModelTime, ref.setupModel)
	}
	return c, nil
}

func describe(sp serve.JobSpec) string {
	switch sp.Method {
	case "stencil":
		return "stencil:" + mfreeSpec(sp.Stencil).Key()
	case "hpcg":
		return "hpcg:" + mgSpec(sp.MG).Key()
	}
	return sp.Matrix + "/" + layoutOf(sp)
}

// replayJobs replays every distinct plan of the workload through the
// layers' public entry points (wall time per call), then re-solves
// every prefix job alone under the modeled-clock tracer: warm, as the
// served traffic of a cyclic workload ran, or cold for fresh jobs.
// Each re-solve is checked against the served reply for its key; a
// mismatch counts as a failed job.
func replayJobs(js *jobSet, col *collector, rec *spanRecorder) ([]*replayPlan, counts, error) {
	var plans []*replayPlan
	nPlans := js.plans
	if js.fresh != nil {
		nPlans = 2 // one csr and one balanced job
	}
	for k := 0; k < nPlans; k++ {
		sp, _ := js.spec(k)
		rp, err := replay(sp, fmt.Sprintf("replay-%d", k), rec)
		if err != nil {
			return nil, counts{}, err
		}
		plans = append(plans, rp)
	}

	var c counts
	for k := 0; k < js.prefix; k++ {
		sp, key := js.spec(k)
		col.mu.Lock()
		ref := col.first[key]
		col.mu.Unlock()
		var jc counts
		var err error
		if js.fresh != nil {
			var mach *comm.Machine
			var pr *hpfexec.Prepared
			if mach, pr, err = coldHandle(sp); err != nil {
				return nil, counts{}, err
			}
			jc, err = countJob(pr, mach, sp, ref)
		} else {
			rp := plans[k%js.plans]
			jc, err = countJob(rp.pr, rp.m, sp, ref)
		}
		if err != nil {
			col.mu.Lock()
			col.failed++
			col.note("%v", err)
			col.mu.Unlock()
		}
		c.add(jc)
	}
	return plans, c, nil
}

// coldHandle prepares a fresh handle for an assembled job.
func coldHandle(sp serve.JobSpec) (*comm.Machine, *hpfexec.Prepared, error) {
	mach, err := machineFor(sp)
	if err != nil {
		return nil, nil, err
	}
	A, err := sparse.GeneratorByName(sp.Matrix)
	if err != nil {
		return nil, nil, err
	}
	plan, err := hpfexec.PlanForLayout(layoutOf(sp), sp.NP, A.NRows, A.NNZ())
	if err != nil {
		return nil, nil, err
	}
	pr, err := prepare(mach, plan, A, sp)
	return mach, pr, err
}

// layerMetrics derives the per-layer metrics of the replay and runs the
// kernel phase.
func layerMetrics(plans []*replayPlan, c counts, rec *spanRecorder, m map[string]metric, doc *spanFile) error {
	m["core.reductions_per_iter"] = metric{float64(c.reductions) / float64(max(c.iterations, 1)), "count"}
	m["comm.msgs_per_job"] = metric{float64(c.msgs) / float64(c.jobs), "count"}
	m["comm.bytes_per_job"] = metric{float64(c.bytes) / float64(c.jobs), "B"}
	m["comm.model_comm_share"] = metric{c.comm / c.model, "ratio"}
	m["comm.reduce_hidden_share"] = metric{share(c.hidden, c.hidden+c.exposed), "ratio"}
	m["trace.critical_compute_share"] = metric{share(c.critCompute, c.critLen), "ratio"}
	m["trace.critical_network_share"] = metric{share(c.critNet, c.critLen), "ratio"}

	// Set-up layers: means over the plans that run them.
	var csr []*replayPlan
	for _, rp := range plans {
		if rp.A != nil {
			csr = append(csr, rp)
		}
	}
	avg := func(ps []*replayPlan, f func(*replayPlan) float64) float64 {
		if len(ps) == 0 {
			return 0
		}
		s := 0.0
		for _, rp := range ps {
			s += f(rp)
		}
		return s / float64(len(ps))
	}
	m["sparse.build_ms"] = metric{avg(csr, func(r *replayPlan) float64 { return r.buildMs }), "ms"}
	m["sparse.hash_ms"] = metric{avg(plans, func(r *replayPlan) float64 { return r.hashMs }), "ms"}
	m["hpf.plan_us"] = metric{avg(csr, func(r *replayPlan) float64 { return r.planUs }), "us"}
	m["hpfexec.choose_us"] = metric{avg(csr, func(r *replayPlan) float64 { return r.chooseUs }), "us"}
	m["partition.balance_us"] = metric{avg(csr, func(r *replayPlan) float64 { return r.balanceUs }), "us"}
	m["hpfexec.prepare_ms"] = metric{avg(plans, func(r *replayPlan) float64 { return r.prepareMs }), "ms"}
	m["hpfexec.setup_wall_ms"] = metric{avg(plans, func(r *replayPlan) float64 { return r.coldMs - r.warmMs }), "ms"}
	m["hpfexec.solve_wall_ms"] = metric{avg(plans, func(r *replayPlan) float64 { return r.warmMs }), "ms"}
	m["core.iter_us"] = metric{avg(plans, func(r *replayPlan) float64 { return 1e3 * r.warmMs / float64(max(r.iterations, 1)) }), "us"}

	return kernelPhase(plans, rec, m, doc)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// kernelPhase times the per-call kernels inside comm.Machine.Run at the
// workload's own shapes: its first assembled plan (mat-vec, inspector,
// vector passes, scalar allreduces), its first stencil plan (mfree) and
// its first hpcg plan (mg). A layer the workload never runs reports 0
// and is listed in the span file's not_run.
func kernelPhase(plans []*replayPlan, rec *spanRecorder, m map[string]metric, doc *spanFile) error {
	var csrP, stP, mgP *replayPlan
	for _, rp := range plans {
		switch {
		case rp.A != nil && csrP == nil:
			csrP = rp
		case rp.spec.Method == "stencil" && stP == nil:
			stP = rp
		case rp.spec.Method == "hpcg" && mgP == nil:
			mgP = rp
		}
	}
	if csrP == nil {
		return fmt.Errorf("workload has no assembled plan")
	}
	if err := csrKernels(csrP, rec, m, doc); err != nil {
		return err
	}
	if stP != nil {
		if err := stencilKernels(stP, rec, m); err != nil {
			return err
		}
	} else {
		notRun(m, doc, "mfree.apply_us", "mfree.halo_us")
	}
	if mgP != nil {
		if err := mgKernels(mgP, rec, m); err != nil {
			return err
		}
	} else {
		notRun(m, doc, "mg.vcycle_us", "mg.setup_ms")
	}
	return nil
}

func notRun(m map[string]metric, doc *spanFile, names ...string) {
	for _, n := range names {
		unit := "us"
		if n == "mg.setup_ms" {
			unit = "ms"
		}
		m[n] = metric{0, unit}
		doc.NotRun = append(doc.NotRun, n)
	}
}

// kernelTimer times collective loops on rank 0 inside one SPMD run.
// Every rank runs the same loop; rank 0 calibrates the repetition count
// from one call and broadcasts it, so the collectives stay aligned.
type kernelTimer struct {
	rec   *spanRecorder
	job   string
	root  time.Time
	kids  []span
	perUs map[string]float64
}

func (kt *kernelTimer) time(p *comm.Proc, name string, f func()) {
	p.Barrier()
	a := time.Now()
	f()
	reps := 0
	if p.Rank() == 0 {
		one := time.Since(a)
		reps = int(callBudget / max(one, time.Microsecond))
		reps = min(max(reps, 3), 100000)
	}
	reps = p.BcastInt(0, reps)
	p.Barrier()
	a = time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	b := time.Now()
	if p.Rank() == 0 {
		kt.perUs[name] = us(b.Sub(a)) / float64(reps)
		kt.kids = append(kt.kids, span{Name: name, Calls: reps, StartUs: kt.rec.at(a), EndUs: kt.rec.at(b)})
	}
}

// finish records the phase's kernel root span and its children.
func (kt *kernelTimer) finish() {
	kt.rec.addTree(kt.job, "comm.machine_run", kt.root, time.Now(), kt.kids)
}

func newKernelTimer(rec *spanRecorder, job string) *kernelTimer {
	return &kernelTimer{rec: rec, job: job, root: time.Now(), perUs: map[string]float64{}}
}

func csrKernels(rp *replayPlan, rec *spanRecorder, m map[string]metric, doc *spanFile) error {
	A, d := rp.A, rp.d
	mach, err := machineFor(rp.spec)
	if err != nil {
		return err
	}
	depth := max(rp.sstep, 2)
	kt := newKernelTimer(rec, "kernels-"+describe(rp.spec))
	var ghostsMax float64
	if _, err := mach.RunChecked(func(p *comm.Proc) {
		var op *spmv.RowBlockCSRGhost
		kt.time(p, "spmv.build", func() { op = spmv.NewRowBlockCSRGhost(p, A, d) })
		g := p.AllreduceScalar(float64(op.NGhosts()), comm.OpMax)
		kt.time(p, "spmv.powers_build", func() { spmv.NewRowBlockCSRPowers(p, A, d, depth) })
		lo, hi := d.Lo(p.Rank()), d.Lo(p.Rank())+d.Count(p.Rank())
		sched := inspector.Build(p, d, A.Col[A.RowPtr[lo]:A.RowPtr[hi]])
		x, y := darray.New(p, d), darray.New(p, d)
		x.SetGlobal(func(i int) float64 { return 1 + float64(i%7)/7 })
		y.Fill(1)
		kt.time(p, "inspector.exchange", func() { sched.Exchange(x.Local()) })
		kt.time(p, "spmv.applydot", func() { op.ApplyDot(x, y) })
		kt.time(p, "darray.axpy", func() { y.AXPY(1e-3, x) })
		kt.time(p, "darray.aypx", func() { y.AYPX(0.5, x) })
		kt.time(p, "darray.axpy_norm", func() { y.AXPYNormSqLocal(1e-3, x) })
		kt.time(p, "darray.dot", func() { y.Dot(x) })
		buf := make([]float64, 2)
		kt.time(p, "comm.allreduce2", func() {
			buf[0], buf[1] = 1, 2
			p.AllreduceScalars(buf, comm.OpSum)
		})
		kt.time(p, "comm.iallreduce_wait", func() {
			buf[0], buf[1] = 1, 2
			p.IallreduceScalars(buf, comm.OpSum).Wait()
		})
		if p.Rank() == 0 {
			ghostsMax = g
		}
	}); err != nil {
		return err
	}
	kt.finish()
	t := kt.perUs
	m["spmv.build_ms"] = metric{t["spmv.build"] / 1e3, "ms"}
	m["spmv.powers_build_ms"] = metric{t["spmv.powers_build"] / 1e3, "ms"}
	m["inspector.ghosts_max"] = metric{ghostsMax, "count"}
	m["inspector.exchange_us"] = metric{t["inspector.exchange"], "us"}
	m["spmv.applydot_us"] = metric{t["spmv.applydot"], "us"}
	m["darray.axpy_us"] = metric{t["darray.axpy"], "us"}
	m["darray.aypx_us"] = metric{t["darray.aypx"], "us"}
	m["darray.axpy_norm_us"] = metric{t["darray.axpy_norm"], "us"}
	m["darray.dot_us"] = metric{t["darray.dot"], "us"}
	m["comm.allreduce2_us"] = metric{t["comm.allreduce2"], "us"}
	m["comm.iallreduce_wait_us"] = metric{t["comm.iallreduce_wait"], "us"}

	// The flop load of the layout's rows, max over mean.
	cuts := make([]int, rp.spec.NP+1)
	for r := 0; r < rp.spec.NP; r++ {
		cuts[r] = d.Lo(r)
	}
	cuts[rp.spec.NP] = A.NRows
	m["partition.imbalance"] = metric{partition.Imbalance(partition.AtomsFromPtr(A.RowPtr).Weights(), cuts), "ratio"}

	// Computed, not measured: one fused mat-vec + dot over the global
	// operator. Bytes stream each stored value (8 B) and column index
	// (8 B), the row pointers, and read x / write y once (8 B each per
	// row); every array fits the host's last-level cache, so no
	// bandwidth roofline is drawn from this.
	nnz, n := float64(A.NNZ()), float64(A.NRows)
	flops := 2*nnz + 2*n
	bytes := 16*nnz + 8*(n+1) + 16*n
	m["spmv.flops_per_call"] = metric{flops, "flop"}
	m["spmv.bytes_per_call"] = metric{bytes, "B"}
	m["spmv.ops_per_byte"] = metric{flops / bytes, "flop/B"}
	doc.Computed["spmv.flops_per_call"] = flops
	doc.Computed["spmv.bytes_per_call"] = bytes
	doc.Computed["spmv.ops_per_byte"] = flops / bytes
	return nil
}

func stencilKernels(rp *replayPlan, rec *spanRecorder, m map[string]metric) error {
	spec := mfreeSpec(rp.spec.Stencil)
	brick, err := spec.Brick(rp.spec.NP)
	if err != nil {
		return err
	}
	mach, err := machineFor(rp.spec)
	if err != nil {
		return err
	}
	kt := newKernelTimer(rec, "kernels-"+describe(rp.spec))
	var opErr error
	mach.Run(func(p *comm.Proc) {
		op, err := mfree.New(p, spec)
		if err != nil {
			// Deterministic in (spec, np): every rank returns here.
			if p.Rank() == 0 {
				opErr = err
			}
			return
		}
		halo := mfree.NewHalo(p, brick)
		x, y := darray.New(p, op.Dist()), darray.New(p, op.Dist())
		x.SetGlobal(func(i int) float64 { return 1 + float64(i%5)/5 })
		kt.time(p, "mfree.apply", func() { op.Apply(x, y) })
		kt.time(p, "mfree.halo", func() { halo.Exchange(x.Local()) })
	})
	if opErr != nil {
		return opErr
	}
	kt.finish()
	m["mfree.apply_us"] = metric{kt.perUs["mfree.apply"], "us"}
	m["mfree.halo_us"] = metric{kt.perUs["mfree.halo"], "us"}
	return nil
}

func mgKernels(rp *replayPlan, rec *spanRecorder, m map[string]metric) error {
	spec := mgSpec(rp.spec.MG)
	mach, err := machineFor(rp.spec)
	if err != nil {
		return err
	}
	kt := newKernelTimer(rec, "kernels-"+describe(rp.spec))
	var setupErr error
	mach.Run(func(p *comm.Proc) {
		var pb *mg.Problem
		kt.time(p, "mg.setup", func() {
			var err error
			if pb, err = mg.NewProblem(p, spec); err != nil && p.Rank() == 0 {
				setupErr = err
			}
		})
		if pb == nil {
			return
		}
		r, z := darray.New(p, pb.Dist()), darray.New(p, pb.Dist())
		r.SetGlobal(func(i int) float64 { return math.Sin(float64(i)) })
		M := pb.Precond()
		kt.time(p, "mg.vcycle", func() { M.Apply(r, z) })
	})
	if setupErr != nil {
		return setupErr
	}
	kt.finish()
	m["mg.setup_ms"] = metric{kt.perUs["mg.setup"] / 1e3, "ms"}
	m["mg.vcycle_us"] = metric{kt.perUs["mg.vcycle"], "us"}
	return nil
}
