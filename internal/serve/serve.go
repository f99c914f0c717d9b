// Package serve turns the one-shot solver stack into a service: a
// bounded admission queue with backpressure, a worker pool, and a
// scheduler whose headline optimisation is same-matrix batching — jobs
// against an identical matrix/layout/np/topology key coalesce into one
// SPMD run, so the matrix is assembled, partitioned and
// inspector-exchanged once and the batch of right-hand sides is solved
// back-to-back from a pooled workspace (hpfexec.Prepared.SolveBatch).
// A content-addressed plan registry carries the prepared handle across
// batch windows. This is the paper's §2 shape (one
// partitioned/inspected matrix, many solves) run as a request loop.
//
// Lifecycle is production-grade: per-job wall timeouts route through
// hpfexec.Prepared.SolveBatchTimeout, fault-injected jobs can run
// resilient via hpfexec.SolveCGResilient, Drain stops admission,
// rejects what is still queued and lets in-flight batches finish, and
// Metrics renders live Prometheus text (queue depth, in-flight, stage
// latency histograms, batch occupancy, modeled machine-time totals).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/hpf"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

// Admission errors. HTTP maps ErrQueueFull to 429 + Retry-After and
// ErrDraining to 503.
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: scheduler is draining")
)

// ValidationError wraps a rejected spec (HTTP 400).
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// Options configures a Scheduler.
type Options struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueCap bounds the admission queue (default 64); submissions
	// beyond it get ErrQueueFull.
	QueueCap int
	// MaxBatch caps how many same-key jobs one dispatch coalesces
	// (default 8; 1 disables batching).
	MaxBatch int
	// MaxNP bounds the per-job processor count (default 32).
	MaxNP int
	// RetryAfter is the backpressure hint returned with 429s
	// (default 1s).
	RetryAfter time.Duration
	// PlanCacheBytes budgets the Prepared-plan registry: batchable
	// jobs are solved from content-addressed cached plans, so repeat
	// traffic against a hot matrix skips partitioning and the
	// inspector ghost exchange across batch windows. 0 selects
	// hpfexec.DefaultRegistryBudget; negative disables the registry.
	PlanCacheBytes int64
	// StartPaused creates the scheduler with dispatch paused; Resume
	// starts it. Tests and benchmarks use this to preload the queue so
	// batch composition is deterministic.
	StartPaused bool
	// BatchStarted, when non-nil, is called synchronously by a worker
	// after it marks a batch running and before it solves. Tests use it
	// to hold a batch in flight at a known point.
	BatchStarted func(jobs []*Job)
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 8
	}
	if o.MaxNP == 0 {
		o.MaxNP = 32
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Scheduler is the solver service: admission, batching, workers.
type Scheduler struct {
	opts Options
	met  *Metrics
	reg  *hpfexec.Registry // nil when the plan cache is disabled

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*Job
	jobs     map[string]*Job
	nextID   int
	paused   bool
	draining bool
	inflight int

	wg sync.WaitGroup
}

// New starts a scheduler with opts.Workers workers.
func New(opts Options) *Scheduler {
	s := &Scheduler{
		opts:   opts.withDefaults(),
		met:    newMetrics(),
		jobs:   map[string]*Job{},
		paused: opts.StartPaused,
	}
	if s.opts.PlanCacheBytes >= 0 {
		s.reg = hpfexec.NewRegistry(s.opts.PlanCacheBytes)
		s.met.planStats = s.reg.Stats
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the live metric set.
func (s *Scheduler) Metrics() *Metrics { return s.met }

// PlanCacheStats snapshots the plan registry counters (zero value when
// the cache is disabled).
func (s *Scheduler) PlanCacheStats() hpfexec.RegistryStats {
	if s.reg == nil {
		return hpfexec.RegistryStats{}
	}
	return s.reg.Stats()
}

// Draining reports whether admission has closed — the readiness probe
// (/readyz) turns 503 on this so load balancers stop routing before
// the drain completes.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RetryAfter is the backpressure hint for rejected submissions.
func (s *Scheduler) RetryAfter() time.Duration { return s.opts.RetryAfter }

// Submit validates and enqueues a job. It returns ErrQueueFull when
// the admission queue is at capacity (backpressure), ErrDraining after
// Drain, and a *ValidationError for malformed specs.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	spec.normalize()
	if err := spec.validate(s.opts.MaxNP); err != nil {
		s.met.reject("invalid")
		return nil, &ValidationError{Err: err}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.reject("draining")
		return nil, ErrDraining
	}
	if len(s.queue) >= s.opts.QueueCap {
		s.met.reject("queue_full")
		return nil, ErrQueueFull
	}
	s.nextID++
	j := &Job{
		ID:        fmt.Sprintf("job-%d", s.nextID),
		Spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		key:       spec.key(),
		batchable: spec.batchable(),
	}
	s.jobs[j.ID] = j
	s.queue = append(s.queue, j)
	s.met.submit(spec.jobType())
	s.met.setGauges(len(s.queue), s.inflight)
	s.cond.Broadcast()
	return j, nil
}

// View returns a snapshot of the job's externally visible state.
func (s *Scheduler) View(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// TraceJSON returns the job's captured Perfetto trace, if any.
func (s *Scheduler) TraceJSON(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || len(j.traceJSON) == 0 {
		return nil, false
	}
	return j.traceJSON, true
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("serve: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	v, _ := s.View(id)
	return v, nil
}

// Resume starts dispatch on a paused scheduler.
func (s *Scheduler) Resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Drain performs the graceful shutdown: admission closes immediately
// (further Submits get ErrDraining), jobs still queued are failed as
// rejected, and Drain then waits — up to ctx — for the in-flight
// batches to finish. Workers exit afterwards.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		rejected := s.queue
		s.queue = nil
		now := time.Now()
		for _, j := range rejected {
			j.state = StateFailed
			j.err = "rejected: server draining"
			j.finished = now
			close(j.done)
			s.met.reject("draining")
		}
		s.met.setGauges(0, s.inflight)
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with work in flight: %w", ctx.Err())
	}
}

// worker is one pool member. Every dispatch runs on a machine of its
// own — the cached plan's, or one built for the dispatch — so runs
// from different workers never share comm state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		batch := s.nextBatch()
		if batch == nil {
			return
		}
		if s.opts.BatchStarted != nil {
			s.opts.BatchStarted(batch)
		}
		s.runBatch(batch)
	}
}

// nextBatch blocks for work, pops the head job and coalesces every
// same-key batchable job behind it (FIFO order preserved for the
// rest). Returns nil when the scheduler is draining and the queue is
// empty — the worker's signal to exit.
func (s *Scheduler) nextBatch() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if len(s.queue) > 0 && !s.paused {
			break
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
	head := s.queue[0]
	batch := []*Job{head}
	rest := s.queue[1:]
	if head.batchable && s.opts.MaxBatch > 1 {
		kept := rest[:0]
		for _, j := range rest {
			if len(batch) < s.opts.MaxBatch && j.batchable && j.key == head.key {
				batch = append(batch, j)
			} else {
				kept = append(kept, j)
			}
		}
		rest = kept
	}
	s.queue = append(s.queue[:0], rest...)
	now := time.Now()
	for _, j := range batch {
		j.state = StateRunning
		j.started = now
	}
	s.inflight += len(batch)
	s.met.setGauges(len(s.queue), s.inflight)
	waits := make([]float64, len(batch))
	for i, j := range batch {
		waits[i] = now.Sub(j.submitted).Seconds()
	}
	s.met.dispatch(head.Spec.jobType(), len(batch), waits)
	return batch
}

// newMachine builds a fresh machine of the job's shape.
func newMachine(spec JobSpec) (*comm.Machine, error) {
	topo, err := topology.ByName(spec.Topology)
	if err != nil {
		return nil, err
	}
	return comm.NewMachine(spec.NP, topo, topology.DefaultCostParams()), nil
}

// planFor assembles the job's matrix when A is nil (a generator spec,
// or a cache miss) and binds the layout's directive program to it.
func planFor(spec JobSpec, A *sparse.CSR) (*hpf.Plan, *sparse.CSR, error) {
	if A == nil {
		var err error
		if A, err = spec.buildMatrix(); err != nil {
			return nil, nil, fmt.Errorf("matrix: %w", err)
		}
	}
	if A.NRows != A.NCols {
		return nil, nil, fmt.Errorf("matrix: not square (%dx%d)", A.NRows, A.NCols)
	}
	plan, err := hpfexec.PlanForLayout(spec.Layout, spec.NP, A.NRows, A.NNZ())
	return plan, A, err
}

// prepareHandle is the one place a JobSpec maps to a Prepared
// constructor: the multigrid hierarchy for hpcg jobs, the matrix-free
// operator for stencil jobs, and for cg jobs the pipelined overlap
// handle or the s-step/plain one (the cost model resolves sstep=0).
// Validation guarantees pipelined and s-step blocking never both fire.
// A may carry the already-parsed matrix of a cg job.
func prepareHandle(m *comm.Machine, spec JobSpec, A *sparse.CSR) (*hpfexec.Prepared, error) {
	switch {
	case spec.Method == "hpcg":
		return hpfexec.PrepareMG(m, spec.MG.spec())
	case spec.Method == "stencil" && spec.Pipelined:
		return hpfexec.PrepareStencilPipelined(m, spec.Stencil.spec())
	case spec.Method == "stencil":
		return hpfexec.PrepareStencil(m, spec.Stencil.spec())
	}
	plan, A, err := planFor(spec, A)
	if err != nil {
		return nil, err
	}
	if spec.Pipelined {
		return hpfexec.PreparePipelined(m, plan, A)
	}
	return hpfexec.PrepareSStep(m, plan, A, spec.SStep)
}

// runBatch executes one dispatch. Jobs that need a machine of their
// own (fault injection, tracing, timeout, resilient mode) go to
// runSolo. Every other dispatch is one coalesced multi-RHS batch
// solve: look the plan up by content hash, prepare it on a miss and
// cache it, then solve the batch from the handle — a warm hit skips
// partitioning and the inspector exchange, with zero modeled setup and
// answers bit-identical to the cold path. With the registry disabled
// every dispatch prepares afresh.
func (s *Scheduler) runBatch(batch []*Job) {
	spec := batch[0].Spec
	if !spec.batchable() {
		// nextBatch never coalesces these.
		s.runSolo(batch[0])
		return
	}

	hash, A, err := spec.contentHashMatrix()
	if err != nil {
		s.failAll(batch, err)
		return
	}
	key := spec.planKey(hash)
	var entry *hpfexec.Entry
	hit := false
	if s.reg != nil {
		entry, hit = s.reg.Get(key)
	}
	var pr *hpfexec.Prepared
	if !hit {
		// The plan owns a machine of its own: cached plans outlive any
		// single worker, and the entry lock serializes runs on it.
		m, err := newMachine(spec)
		if err != nil {
			s.failAll(batch, err)
			return
		}
		if pr, err = prepareHandle(m, spec, A); err != nil {
			s.failAll(batch, err)
			return
		}
		if s.reg != nil {
			entry, _ = s.reg.Put(key, pr)
		}
	}
	if entry != nil {
		// Cached (or freshly cached): solve under the entry lock so
		// concurrent workers never share the plan's machine. Oversized
		// plans (entry == nil) run uncached from the local pr.
		entry.Lock()
		defer entry.Unlock()
		pr = entry.Prepared()
	}

	live, rhs, opts := s.resolveRHS(batch, pr.N())
	if len(live) == 0 {
		return
	}
	warm := pr.Warm()
	out, err := pr.SolveBatch(rhs, opts)
	if err != nil {
		s.failAll(live, err)
		return
	}
	s.finishBatch(live, out, warm, pr.MGLevels())
}

// resolveRHS materializes each job's right-hand side; length
// mismatches fail only that job.
func (s *Scheduler) resolveRHS(batch []*Job, n int) (live []*Job, rhs [][]float64, opts []core.Options) {
	live = batch[:0:len(batch)]
	rhs = make([][]float64, 0, len(batch))
	opts = make([]core.Options, 0, len(batch))
	for _, j := range batch {
		b := j.Spec.RHS
		if len(b) == 0 {
			b = sparse.RandomVector(n, j.Spec.Seed)
		} else if len(b) != n {
			s.finishJob(j, nil, fmt.Errorf("rhs length %d != n=%d", len(b), n))
			continue
		}
		live = append(live, j)
		rhs = append(rhs, b)
		opts = append(opts, core.Options{Tol: j.Spec.Tol, MaxIter: j.Spec.MaxIter})
	}
	return live, rhs, opts
}

// finishBatch records model-time metrics and finishes every job of a
// completed batch solve. levels > 0 marks an hpcg batch, which also
// carries the HPCG figure of merit (modeled GFLOP/s of the run).
func (s *Scheduler) finishBatch(live []*Job, out *hpfexec.BatchResult, warm bool, levels int) {
	s.met.addModel(out.Run.ModelTime, out.Run.CommTime(), out.SetupModelTime)
	var gflops float64
	if levels > 0 {
		gflops = report.GFlopRate(out.Run.TotalFlops, out.Run.ModelTime)
	}
	for k, j := range live {
		r := out.Results[k]
		s.finishJob(j, &JobResult{
			X:              r.X,
			Converged:      r.Stats.Converged,
			Iterations:     r.Stats.Iterations,
			Residual:       r.Stats.Residual,
			Strategy:       r.Strategy.String(),
			SStep:          r.Strategy.SStep,
			Replacements:   r.Stats.Replacements,
			Pipelined:      r.Stats.Pipelined,
			Reductions:     r.Stats.Reductions,
			ModelTime:      out.Run.ModelTime,
			SolveModelTime: out.SolveModelTime[k],
			SetupModelTime: out.SetupModelTime,
			CommTime:       out.Run.CommTime(),
			BatchSize:      len(live),
			PlanCacheHit:   warm,
			Levels:         levels,
			ModelGFlops:    gflops,
		}, nil)
	}
}

// failAll finishes every job in the batch with the same error.
func (s *Scheduler) failAll(batch []*Job, err error) {
	for _, j := range batch {
		s.finishJob(j, nil, err)
	}
}

// finishJob moves a job to its terminal state and updates metrics.
// The metrics are recorded before done closes, so a client that sees
// the job finished also sees it counted.
func (s *Scheduler) finishJob(j *Job, res *JobResult, err error) {
	now := time.Now()
	s.met.finish(j.Spec.jobType(), err == nil, now.Sub(j.started).Seconds())
	s.mu.Lock()
	j.finished = now
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		j.state = StateDone
		j.result = res
	}
	s.inflight--
	s.met.setGauges(len(s.queue), s.inflight)
	close(j.done)
	s.mu.Unlock()
}
