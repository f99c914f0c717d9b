// Batch execution: the one solve path. A service that fields many
// solve requests against the same matrix should not re-run the
// directive binding, the partitioner, the CSC conversion, and the
// inspector's ghost-schedule exchange for every right-hand side — the
// paper's §2 framing (one partitioned/inspected matrix, many solves)
// and the enlarged-CG line both amortize exactly that setup. A
// Prepare* constructor captures everything RHS-independent once;
// SolveBatch then solves a whole slice of right-hand sides in a single
// SPMD run, building each rank's operator (and exchanging the
// inspector schedule) once and reusing one pooled core.Workspace per
// processor, so every solve after the first is allocation-free on the
// hot path. Every problem kind — assembled CSR/CSC, matrix-free
// stencil, multigrid — and every solver variant runs through this one
// body; a kind only supplies the function that builds a rank's
// operator cold.
//
// Bit-identity: each RHS's solution is bit-identical to a solo solve
// on fresh vectors with the same spec — the workspace hands back
// zeroed vectors exactly like fresh allocation, the operator's pooled
// gather buffers are bit-stable across reuse, and the solver sequence
// per RHS is unchanged. TestBatchBitIdenticalToSolo holds this.
package hpfexec

import (
	"fmt"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpf"
	"hpfcg/internal/mfree"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// Layout names the canonical directive programs a service request can
// select without shipping directive text. They mirror cmd/hpfrun's
// -demo listings: the paper's Scenario 1 (row-block CSR), Scenario 2
// in its HPF-1 serialized and PRIVATE/MERGE(+) parallel executions,
// and the §5.2.2 balanced-partitioner redistribution.
var layoutPrograms = map[string]string{
	"csr": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
`,
	"csc-serial": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
`,
	"csc-merge": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
!EXT$ ITERATION j ON PROCESSOR(j*np/n), PRIVATE(q(n)) WITH MERGE(+)
`,
	"balanced": `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
!EXT$ INDIVISABLE a(ATOM:i) :: row(i:i+1)
!EXT$ REDISTRIBUTE smA USING CG_BALANCED_PARTITIONER_1
`,
}

// Layouts lists the canonical layout names PlanForLayout accepts.
func Layouts() []string { return []string{"csr", "csc-serial", "csc-merge", "balanced"} }

// PlanForLayout parses and binds the canonical directive program for
// the named layout against an n×n matrix with nz stored entries on np
// processors.
func PlanForLayout(layout string, np, n, nz int) (*hpf.Plan, error) {
	src, ok := layoutPrograms[layout]
	if !ok {
		return nil, fmt.Errorf("hpfexec: unknown layout %q (have %v)", layout, Layouts())
	}
	prog, err := hpf.Parse(src)
	if err != nil {
		return nil, err
	}
	sizes := map[string]int{
		"p": n, "q": n, "r": n, "x": n, "b": n,
		"row": n + 1, "col": nz, "a": nz,
		"colptr": n + 1, "rowidx": nz,
	}
	if layout == "csc-serial" || layout == "csc-merge" {
		sizes["row"] = nz // the CSC trio's row-index array
	}
	return hpf.Bind(prog, np, sizes, map[string]int{"n": n, "nz": nz})
}

// Prepared is a reusable prepared-problem handle: the RHS-independent
// part of a solve (plan validation, execution strategy, partitioner
// redistribution, CSC conversion, or a stencil spec), bound to one
// machine. One Prepared serves any number of SolveBatch calls; after
// the first successful one, each rank's operator (including the ghost
// executor's inspector schedule or the multigrid hierarchy) is cached
// and rebound into each new run, so a warm SolveBatch pays zero
// modeled setup — the property the plan registry (Registry) exposes to
// the serving tier.
//
// A Prepared is not safe for concurrent SolveBatch calls: it owns its
// machine and its cached operators. Registry entries serialize access.
type Prepared struct {
	m        *comm.Machine
	n        int
	strategy Strategy
	bytes    int64

	// cold builds rank p's solve state inside the SPMD region; ranks[r]
	// caches rank r's result after a successful run and warm gates its
	// reuse. Each rank writes only its own slot, and warm flips only
	// between runs.
	cold  func(p *comm.Proc) (rankState, error)
	ranks []rankState
	warm  bool

	// pc is the directive analysis of matrix handles (nil otherwise);
	// its CSR layout picks ghost or broadcast on the first run.
	pc *preparedCG
	// mfSpec and mgLevels describe stencil and multigrid handles.
	mfSpec   *mfree.Spec
	mgLevels int
	// resilience, when set, runs core.CGResilient over its checkpoint
	// store (SolveCGResilient's attempts).
	resilience *core.Resilience
}

// rankState is one rank's cached solve state.
type rankState struct {
	op spmv.Operator
	// M is the preconditioner; nil runs an unpreconditioned solver.
	M core.Preconditioner
	d dist.Dist
	// rebind re-attaches the cached state to a new run's Proc; nil when
	// the operator holds none.
	rebind interface{ Rebind(p *comm.Proc) }
	// ghost records the CSR inspector's executor choice.
	ghost bool
}

// newPrepared builds a cold handle over n unknowns.
func newPrepared(m *comm.Machine, n int, strategy Strategy, bytes int64, cold func(p *comm.Proc) (rankState, error)) *Prepared {
	return &Prepared{m: m, n: n, strategy: strategy, bytes: bytes, cold: cold, ranks: make([]rankState, m.NP())}
}

// Prepare validates the plan against the matrix and fixes the
// execution strategy, returning the handle batch solves run from.
func Prepare(m *comm.Machine, plan *hpf.Plan, A *sparse.CSR) (*Prepared, error) {
	pc, err := analyzeCG(m, plan, A)
	if err != nil {
		return nil, err
	}
	return newMatrixPrepared(m, pc), nil
}

// newMatrixPrepared wraps an analyzed plan: each rank builds its
// executor with pc.operator on the first run.
func newMatrixPrepared(m *comm.Machine, pc *preparedCG) *Prepared {
	pr := newPrepared(m, pc.A.NRows, pc.strategy, pc.memoryBytes(), func(p *comm.Proc) (rankState, error) {
		op, ghost := pc.operator(p)
		rb, _ := op.(spmv.Rebindable)
		return rankState{op: op, d: pc.d, rebind: rb, ghost: ghost}, nil
	})
	pr.pc = pc
	return pr
}

// Warm reports whether the handle has run at least one batch and so
// holds cached per-rank operators (the next run skips setup).
func (pr *Prepared) Warm() bool { return pr.warm }

// MemoryBytes estimates the resident size of the cached plan. The
// registry's byte budget accounts in these units; the estimate is
// deliberately simple — it is a cache-pressure signal, not an
// allocator.
func (pr *Prepared) MemoryBytes() int64 { return pr.bytes }

// Strategy returns the execution strategy the handle's solves run.
// For the CSR layout the executor choice (ghost vs broadcast) is made
// collectively inside the first run; until then Mode reads "local".
func (pr *Prepared) Strategy() Strategy { return pr.strategy }

// N returns the system size.
func (pr *Prepared) N() int { return pr.n }

// BatchResult is a completed multi-RHS batch solve.
type BatchResult struct {
	// Results holds one Result per right-hand side, in input order.
	// Each Result.Run is the shared batch run's statistics (the run is
	// one SPMD program; per-RHS modeled spans are in SolveModelTime).
	Results []*Result
	// Run is the whole batch's machine statistics.
	Run comm.RunStats
	// SetupModelTime is the modeled time (max over ranks) spent before
	// the first solve: operator construction, the inspector's ghost
	// schedule exchange, and the executor-selection collective. This is
	// the cost batching amortizes across len(Results) solves.
	SetupModelTime float64
	// SolveModelTime[k] is the modeled span of solve k alone (max rank
	// clock after solve k minus max rank clock before it).
	SolveModelTime []float64
}

// SolveBatch solves the prepared problem for every right-hand side in
// rhs in a single SPMD run: a cold handle builds each rank's operator
// (exchanging any inspector schedule) once, a warm one rebinds the
// cached operators; then each RHS is solved in order reusing one
// pooled core.Workspace per processor. opts[k] configures solve k; a
// single-element opts slice applies to every RHS. A processor killed
// by the fault layer surfaces as a typed comm.PeerFailure error.
func (pr *Prepared) SolveBatch(rhs [][]float64, opts []core.Options) (*BatchResult, error) {
	out, _, err := pr.solve(rhs, opts, pr.m.RunChecked)
	return out, err
}

// SolveBatchTimeout is SolveBatch under a deadlock watchdog: if the
// SPMD run does not finish within d (wall time) it is aborted and the
// machine's deadlock diagnostic is returned instead of hanging. A
// timed-out run leaves the handle as it was, so a cold handle stays
// cold and its next solve pays setup in full.
func (pr *Prepared) SolveBatchTimeout(rhs [][]float64, opts []core.Options, d time.Duration) (*BatchResult, error) {
	out, _, err := pr.solve(rhs, opts, func(fn func(p *comm.Proc)) (comm.RunStats, error) {
		return pr.m.RunTimeout(fn, d)
	})
	return out, err
}

// solve is the batch body every entry point shares. run executes the
// SPMD program; its statistics come back even when the run failed, for
// the resilient driver's mission clock. The handle turns warm only
// after a successful run.
func (pr *Prepared) solve(rhs [][]float64, opts []core.Options, run func(fn func(p *comm.Proc)) (comm.RunStats, error)) (*BatchResult, comm.RunStats, error) {
	if len(rhs) == 0 {
		return nil, comm.RunStats{}, fmt.Errorf("hpfexec: empty batch")
	}
	for k, b := range rhs {
		if len(b) != pr.n {
			return nil, comm.RunStats{}, fmt.Errorf("hpfexec: rhs %d length %d != %d", k, len(b), pr.n)
		}
	}
	if len(opts) != 1 && len(opts) != len(rhs) {
		return nil, comm.RunStats{}, fmt.Errorf("hpfexec: got %d option sets for %d right-hand sides", len(opts), len(rhs))
	}
	optFor := func(k int) core.Options {
		if len(opts) == 1 {
			return opts[0]
		}
		return opts[k]
	}

	np := pr.m.NP()
	// marks[r][0] is rank r's clock after setup; marks[r][k+1] after
	// solve k. Each rank writes only its own row, so no locking.
	marks := make([][]float64, np)
	for r := range marks {
		marks[r] = make([]float64, len(rhs)+1)
	}
	stats := make([]core.Stats, len(rhs))
	xs := make([][]float64, len(rhs))
	var solveErr error

	warm := pr.warm
	rs, err := run(func(p *comm.Proc) {
		st := &pr.ranks[p.Rank()]
		if warm {
			// Warm start: rebind the cached state to this run's Proc. No
			// partitioning, no inspector exchange, no executor-selection
			// collective — modeled setup is zero.
			if st.rebind != nil {
				st.rebind.Rebind(p)
			}
		} else {
			built, err := pr.cold(p)
			if err != nil {
				// Deterministic in the handle's spec and np: every rank
				// fails identically and control flow stays aligned.
				if p.Rank() == 0 {
					solveErr = err
				}
				return
			}
			*st = built
		}
		bv := darray.New(p, st.d)
		xv := darray.New(p, st.d)
		work := core.NewWorkspace()
		marks[p.Rank()][0] = p.Clock()
		for k := range rhs {
			b := rhs[k]
			bv.SetGlobal(func(g int) float64 { return b[g] })
			xv.Fill(0)
			opt := optFor(k)
			opt.Work = work
			sk, err := pr.solveOne(p, st, bv, xv, opt)
			if err != nil {
				if p.Rank() == 0 {
					solveErr = fmt.Errorf("hpfexec: batch rhs %d: %w", k, err)
				}
				return
			}
			full := xv.Gather()
			if p.Rank() == 0 {
				xs[k] = full
				stats[k] = sk
			}
			marks[p.Rank()][k+1] = p.Clock()
		}
	})
	if err != nil {
		return nil, rs, err
	}
	if solveErr != nil {
		return nil, rs, solveErr
	}
	if !warm {
		if pr.pc != nil && pr.pc.format == "csr" {
			pr.strategy.Mode = "local(broadcast)"
			if pr.ranks[0].ghost {
				pr.strategy.Mode = "local(ghost)"
			}
		}
		pr.warm = true
	}

	// Fold the per-rank clock marks into per-stage modeled spans.
	maxAt := func(j int) float64 {
		m := 0.0
		for r := 0; r < np; r++ {
			if marks[r][j] > m {
				m = marks[r][j]
			}
		}
		return m
	}
	out := &BatchResult{
		Results:        make([]*Result, len(rhs)),
		Run:            rs,
		SetupModelTime: maxAt(0),
		SolveModelTime: make([]float64, len(rhs)),
	}
	prev := out.SetupModelTime
	for k := range rhs {
		end := maxAt(k + 1)
		out.SolveModelTime[k] = end - prev
		prev = end
		out.Results[k] = &Result{X: xs[k], Stats: stats[k], Run: rs, Strategy: pr.strategy}
	}
	return out, rs, nil
}

// solveOne runs the handle's solver on one right-hand side: PCG when
// the rank state carries a preconditioner, otherwise the resilient,
// pipelined, s-step (CGSStep at s=1 is CG) or plain recurrence.
func (pr *Prepared) solveOne(p *comm.Proc, st *rankState, bv, xv *darray.Vector, opt core.Options) (core.Stats, error) {
	switch {
	case st.M != nil:
		return core.PCG(p, st.op, st.M, bv, xv, opt)
	case pr.resilience != nil:
		return core.CGResilient(p, st.op, bv, xv, opt, *pr.resilience)
	case pr.strategy.Pipelined:
		return core.CGPipelined(p, st.op, bv, xv, opt, true)
	case pr.strategy.SStep >= 1:
		return core.CGSStep(p, st.op, bv, xv, opt, pr.strategy.SStep)
	}
	return core.CG(p, st.op, bv, xv, opt)
}
