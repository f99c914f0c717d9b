// Package hpfexec plays the role of the HPF compiler's code generator
// for the paper's CG codes: given a *bound* directive plan
// (internal/hpf) and the runtime sparse matrix, it selects the
// execution strategy the directives imply and runs the distributed
// conjugate gradient solve.
//
// The mapping from directives to execution follows the paper:
//
//   - `SPARSE_MATRIX (CSR)` selects Scenario 1 (row-block, allgather);
//   - `SPARSE_MATRIX (CSC)` selects Scenario 2 (column-block). Without
//     further directives HPF-1 semantics force the serialized execution;
//     an `ITERATION ... PRIVATE(q(n)) WITH MERGE(+)` directive (§5.1)
//     switches it to the parallel private-merge execution;
//   - `REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1` (§5.2.2)
//     replaces the vectors' BLOCK distribution with the balanced
//     whole-row (atom) distribution before solving.
package hpfexec

import (
	"errors"
	"fmt"
	"sort"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpf"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// Strategy describes the execution the directives selected.
type Strategy struct {
	Scenario string // "row-block CSR" or "col-block CSC"
	Mode     string // "local", "serialized" or "private-merge"
	Balanced bool   // partitioner-redistributed
	// SStep is the communication-avoiding blocking factor the solves
	// run with: 0 when the s-step path was not requested, 1 for plain
	// CG through PrepareSStep, >= 2 for s-step blocks.
	SStep int
	// Pipelined marks the overlap-based solver (core.CGPipelined): one
	// nonblocking allreduce per iteration, hidden behind the mat-vec.
	Pipelined bool
}

// String renders the strategy for logs.
func (s Strategy) String() string {
	out := s.Scenario + " / " + s.Mode
	if s.Balanced {
		out += " / balanced"
	}
	if s.SStep >= 2 {
		out += fmt.Sprintf(" / s-step(s=%d)", s.SStep)
	}
	if s.Pipelined {
		out += " / pipelined"
	}
	return out
}

// Result is a completed directive-driven solve.
type Result struct {
	X        []float64
	Stats    core.Stats
	Run      comm.RunStats
	Strategy Strategy
}

// ResilientOptions configures SolveCGResilient.
type ResilientOptions struct {
	// Interval checkpoints every Interval iterations (0 means 10).
	Interval int
	// MaxRestarts bounds how many failed attempts are retried before
	// giving up (0 means 3).
	MaxRestarts int
	// GuardTol is the residual-replacement threshold at restore
	// (core.Resilience.GuardTol; 0 means 1e-8).
	GuardTol float64
}

// ResilientResult is a completed solve that may have survived failures.
type ResilientResult struct {
	Result
	// Attempts counts runs including the successful one (1 = no failure).
	Attempts int
	// Failures lists the typed failures the restarts absorbed.
	Failures []comm.PeerFailure
	// TotalModelTime sums the modeled makespan over all attempts — the
	// mission time, failed work and recovery included; a failed attempt
	// counts up to its failure's modeled instant. Result.Run holds only
	// the final attempt.
	TotalModelTime float64
	// TotalIterations counts CG iterations computed across attempts;
	// LostIterations is the share rolled back by failures (computed
	// past the last checkpoint and redone). Their difference is
	// Result.Stats.Iterations, the useful work.
	TotalIterations int
	LostIterations  int
}

// SolveCGResilient runs the CG of the paper's Figure 2 under the bound
// plan with checkpoint/rollback-restart: the solve runs
// core.CGResilient over a shared in-memory checkpoint store, and every
// comm.PeerFailure triggers a restart that resumes from the newest
// complete checkpoint. Each attempt is a one-RHS batch on one handle,
// which stays cold until an attempt succeeds, so every attempt pays
// the operator setup. When the machine's fault injector carries a
// mission clock (an Advance(float64) method, as fault.Injector does),
// it is advanced to each failure's modeled instant so the remaining
// fault schedule stays aligned.
func SolveCGResilient(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR, b []float64, opt core.Options, ropt ResilientOptions) (*ResilientResult, error) {
	if ropt.Interval == 0 {
		ropt.Interval = 10
	}
	if ropt.MaxRestarts == 0 {
		ropt.MaxRestarts = 3
	}
	pr, err := Prepare(m, plan, A)
	if err != nil {
		return nil, err
	}
	store := core.NewCheckpointStore(m.NP())
	pr.resilience = &core.Resilience{Store: store, Interval: ropt.Interval, GuardTol: ropt.GuardTol}
	out := &ResilientResult{}
	for {
		out.Attempts++
		// The iteration this attempt starts from: the newest complete
		// checkpoint, or 0 on a scratch start.
		startIter := 0
		if _, k := store.Latest(); k > 0 {
			startIter = k
		}
		batch, run, runErr := pr.solve([][]float64{b}, []core.Options{opt}, m.RunChecked)
		if runErr == nil {
			r := batch.Results[0]
			out.Result = *r
			out.TotalModelTime += run.ModelTime
			out.TotalIterations += r.Stats.Iterations - r.Stats.StartIteration
			out.LostIterations = out.TotalIterations - r.Stats.Iterations
			return out, nil
		}
		var pf comm.PeerFailure
		if !errors.As(runErr, &pf) {
			return nil, runErr
		}
		// A failed attempt ends at the failure's modeled instant: the
		// survivors' clocks and iteration counts run on until they see
		// the abort, which depends on scheduling, so neither is read.
		out.Failures = append(out.Failures, pf)
		out.TotalModelTime += pf.Clock
		if got := store.Reached(pf.Rank); got > startIter {
			out.TotalIterations += got - startIter
		}
		if out.Attempts > ropt.MaxRestarts {
			return nil, fmt.Errorf("hpfexec: solve failed after %d attempts: %w", out.Attempts, pf)
		}
		if adv, ok := m.Injector().(interface{ Advance(float64) }); ok {
			adv.Advance(pf.Clock)
		}
	}
}

// preparedCG is the RHS-independent analysis of a directive-driven CG
// solve: the validated execution strategy, the vector distribution
// (after any partitioner redistribution), and the converted matrix
// forms. Matrix handles (Prepare, PrepareSStep, PreparePipelined)
// build each rank's executor from it.
type preparedCG struct {
	A        *sparse.CSR
	csc      *sparse.CSC
	format   string // "csr" or "csc"
	hasMerge bool
	d        dist.Contiguous
	strategy Strategy
	// sstep is the resolved s-step blocking factor (0 = the s-step
	// path was not requested; set by PrepareSStep); s >= 2 builds the
	// matrix-powers executor.
	sstep int
}

// memoryBytes estimates the plan's resident size: the CSR arrays, the
// CSC copy when the layout declared one, and a per-row overhead for
// operator slices and ghost schedules.
func (pc *preparedCG) memoryBytes() int64 {
	const intB, floatB = 8, 8
	A := pc.A
	sz := int64(len(A.RowPtr)+len(A.Col))*intB + int64(len(A.Val))*floatB
	if pc.csc != nil {
		sz += int64(len(pc.csc.ColPtr)+len(pc.csc.Row))*intB + int64(len(pc.csc.Val))*floatB
	}
	// Operator-side copies (row remaps, ghost buffers) are at most
	// another matrix-sized working set per machine.
	sz *= 2
	sz += int64(A.NRows) * 2 * floatB
	return sz
}

// operator builds this rank's mat-vec operator inside the SPMD region.
// For CSR it performs the inspector-based executor selection (ghost
// halo vs broadcast) — a collective, so all ranks agree; ghost reports
// the choice.
func (pc *preparedCG) operator(p *comm.Proc) (op spmv.Operator, ghost bool) {
	switch pc.format {
	case "csr":
		// The s-step path always runs the matrix-powers executor: the
		// widened ghost closure is what makes one exchange serve a whole
		// basis block, so the broadcast fallback never applies.
		if pc.sstep >= 2 {
			return spmv.NewRowBlockCSRPowers(p, pc.A, pc.d, pc.sstep), true
		}
		// Inspector-based executor selection: build the ghost schedule
		// once; if the largest halo stays below a quarter of the vector,
		// the halo exchange beats the broadcast (E14/E15), otherwise fall
		// back to the allgather operator. The decision is collective so
		// all processors take the same branch.
		ghostOp := spmv.NewRowBlockCSRGhost(p, pc.A, pc.d)
		maxGhosts := p.AllreduceScalar(float64(ghostOp.NGhosts()), comm.OpMax)
		if maxGhosts <= 0.25*float64(pc.A.NRows) {
			return ghostOp, true
		}
		return spmv.NewRowBlockCSR(p, pc.A, pc.d), false
	case "csc":
		mode := spmv.ModeSerialized
		if pc.hasMerge {
			mode = spmv.ModePrivateMerge
		}
		return spmv.NewColBlockCSC(p, pc.csc, pc.d, mode), false
	}
	panic("hpfexec: unreachable format " + pc.format)
}

// analyzeCG validates the plan against the matrix and fixes everything
// a solve needs that does not depend on the right-hand side.
func analyzeCG(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR) (*preparedCG, error) {
	if A.NRows != A.NCols {
		return nil, fmt.Errorf("hpfexec: matrix must be square, got %dx%d", A.NRows, A.NCols)
	}
	n := A.NRows
	if plan.NP != m.NP() {
		return nil, fmt.Errorf("hpfexec: plan bound for %d processors, machine has %d", plan.NP, m.NP())
	}
	if len(plan.Sparse) != 1 {
		return nil, fmt.Errorf("hpfexec: need exactly one SPARSE_MATRIX declaration, have %d", len(plan.Sparse))
	}
	var sm hpf.SparseMatrix
	var smName string
	for name, d := range plan.Sparse {
		smName, sm = name, d
	}

	// The vector distribution: the ultimate alignment target among the
	// n-sized arrays (the paper's p), or any directly distributed
	// n-sized array.
	vecPlan, err := vectorRoot(plan, n)
	if err != nil {
		return nil, err
	}
	d, ok := vecPlan.Dist.(dist.Contiguous)
	if !ok {
		return nil, fmt.Errorf("hpfexec: vector distribution %s is not contiguous; the mat-vec scenarios need BLOCK-like mappings", vecPlan.Dist.Name())
	}

	strategy := Strategy{}

	// The §5.2.2 partitioner redistribution, if declared: rebalance the
	// rows (CSR) or columns (CSC) and align the vectors with the atoms.
	if _, declared := plan.Partitioners[smName]; declared {
		ptr := A.RowPtr
		if sm.Format == "csc" {
			ptr = A.ToCSC().ColPtr
		}
		_, atomCuts, err := plan.BindPartitioner(smName, ptr)
		if err != nil {
			return nil, err
		}
		d = dist.NewIrregular(atomCuts)
		strategy.Balanced = true
	}

	// The §5.1 extension: any ITERATION clause PRIVATE ... WITH MERGE(+)
	// unlocks the parallel execution of the CSC accumulation.
	hasMerge := false
	for _, it := range plan.Iterations {
		for _, cl := range it.Clauses {
			if cl.Kind == "private" && cl.Merge == "+" {
				hasMerge = true
			}
		}
	}

	var csc *sparse.CSC
	switch sm.Format {
	case "csr":
		strategy.Scenario = "row-block CSR"
		// The executor choice (broadcast vs ghost halo) is made inside
		// the SPMD region, where the inspector can measure the halo.
		strategy.Mode = "local"
	case "csc":
		strategy.Scenario = "col-block CSC"
		csc = A.ToCSC()
		if hasMerge {
			strategy.Mode = "private-merge"
		} else {
			strategy.Mode = "serialized"
		}
	default:
		return nil, fmt.Errorf("hpfexec: unsupported sparse format %q", sm.Format)
	}

	return &preparedCG{A: A, csc: csc, format: sm.Format, hasMerge: hasMerge, d: d, strategy: strategy}, nil
}

// vectorRoot finds the array plan that plays the role of p in
// Figure 2: an n-sized array that others align to, falling back to any
// directly distributed n-sized array.
func vectorRoot(plan *hpf.Plan, n int) (*hpf.ArrayPlan, error) {
	targets := map[string]bool{}
	names := make([]string, 0, len(plan.Arrays))
	for name, a := range plan.Arrays {
		names = append(names, name)
		if a.AlignedTo != "" {
			targets[a.AlignedTo] = true
		}
	}
	sort.Strings(names) // deterministic fallback choice
	var fallback *hpf.ArrayPlan
	for _, name := range names {
		a := plan.Arrays[name]
		if a.Size != n || a.AlignedTo != "" {
			continue
		}
		if targets[name] {
			return a, nil
		}
		if fallback == nil {
			fallback = a
		}
	}
	if fallback != nil {
		return fallback, nil
	}
	return nil, fmt.Errorf("hpfexec: no distributed array of the vector size %d in the plan", n)
}
