// The solo execution path: jobs that need their own machine — fault
// injection, trace capture, wall-clock timeouts, resilient mode — run
// one at a time on a machine built for the job, so injectors and
// tracers never leak into cached plans' machines.
package serve

import (
	"bytes"
	"time"

	"hpfcg/internal/fault"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/trace"
)

// runSolo solves one job on a dedicated machine with the job's fault
// injector and tracer attached. Non-resilient jobs run a batch of one
// from a fresh handle (under the watchdog when the job sets a
// timeout), so their replies carry the same setup/solve split as any
// cold batch; resilient jobs run hpfexec.SolveCGResilient.
func (s *Scheduler) runSolo(j *Job) {
	spec := j.Spec
	m, err := newMachine(spec)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	if spec.Fault != "" {
		plan, err := fault.Parse(spec.Fault)
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		inj, err := fault.NewInjector(plan)
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		m.AttachInjector(inj)
	}
	var tr *trace.Tracer
	if spec.Trace {
		tr = &trace.Tracer{}
		m.AttachTracer(tr)
	}

	if spec.Resilient {
		plan, A, err := planFor(spec, nil)
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		live, rhs, opts := s.resolveRHS([]*Job{j}, A.NRows)
		if len(live) == 0 {
			return
		}
		rres, err := hpfexec.SolveCGResilient(m, plan, A, rhs[0], opts[0], hpfexec.ResilientOptions{
			Interval:    spec.CkptInterval,
			MaxRestarts: spec.MaxRestarts,
		})
		if err != nil {
			s.finishJob(j, nil, err)
			return
		}
		r := rres.Result
		s.captureTrace(j, tr)
		s.met.addModel(rres.TotalModelTime, r.Run.CommTime(), 0)
		// The mission time spans every attempt; resilient runs plain CG.
		s.finishJob(j, &JobResult{
			X:              r.X,
			Converged:      r.Stats.Converged,
			Iterations:     r.Stats.Iterations,
			Residual:       r.Stats.Residual,
			Strategy:       r.Strategy.String(),
			SStep:          1,
			Replacements:   r.Stats.Replacements,
			Reductions:     r.Stats.Reductions,
			ModelTime:      rres.TotalModelTime,
			SolveModelTime: rres.TotalModelTime,
			CommTime:       r.Run.CommTime(),
			BatchSize:      1,
			Attempts:       rres.Attempts,
			Failures:       len(rres.Failures),
		}, nil)
		return
	}

	pr, err := prepareHandle(m, spec, nil)
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	live, rhs, opts := s.resolveRHS([]*Job{j}, pr.N())
	if len(live) == 0 {
		return
	}
	var out *hpfexec.BatchResult
	if spec.TimeoutMS > 0 {
		out, err = pr.SolveBatchTimeout(rhs, opts, time.Duration(spec.TimeoutMS)*time.Millisecond)
	} else {
		out, err = pr.SolveBatch(rhs, opts)
	}
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	s.captureTrace(j, tr)
	s.finishBatch(live, out, false, 0)
}

// captureTrace stores the job's Perfetto trace before the job is
// finished, so a waiter that sees it done can download it.
func (s *Scheduler) captureTrace(j *Job, tr *trace.Tracer) {
	if tr == nil {
		return
	}
	if rec := tr.Last(); rec != nil {
		var buf bytes.Buffer
		if err := trace.WriteChromeTrace(&buf, rec); err == nil {
			s.mu.Lock()
			j.traceJSON = buf.Bytes()
			s.mu.Unlock()
		}
	}
}
