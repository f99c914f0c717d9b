// The HPCG execution path: directive-free prepared handles for the
// multigrid-preconditioned stencil solve. Where Prepare captures a
// matrix's RHS-independent analysis, PrepareMG captures a stencil
// problem's — the level hierarchy with its halo and transfer
// schedules is built collectively on the first batch run and cached
// in the handle, so a warm registry hit skips the coarse-grid setup
// entirely and pays SetupModelTime of exactly zero, the same
// semantics the CG plan cache established.
package hpfexec

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/grid"
	"hpfcg/internal/mg"
)

// PrepareMG validates the HPCG spec against the machine and fixes the
// execution strategy, returning the handle SolveBatch runs from: each
// RHS runs core.PCG under the V-cycle preconditioner. The requested
// hierarchy depth clamps to what the geometry supports; Strategy
// reports the clamped shape.
func PrepareMG(m *comm.Machine, spec mg.Spec) (*Prepared, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fine, err := spec.Fine(m.NP())
	if err != nil {
		return nil, err
	}
	depth := grid.ClampLevels(fine, spec.Levels)
	strategy := Strategy{
		Scenario: "hpcg 27-pt stencil",
		Mode:     fmt.Sprintf("mg-vcycle(levels=%d,smooths=%d)", depth, spec.Smooths),
	}
	// MG handles never materialize a matrix; the hierarchy's size is
	// analytic in the spec.
	pr := newPrepared(m, fine.N(), strategy, spec.ModelBytes(m.NP()), func(p *comm.Proc) (rankState, error) {
		pb, err := mg.NewProblem(p, spec)
		if err != nil {
			return rankState{}, err
		}
		return rankState{op: pb.Operator(), M: pb.Precond(), d: pb.Dist(), rebind: pb}, nil
	})
	pr.mgLevels = depth
	return pr, nil
}

// MGLevels returns the clamped hierarchy depth of an MG handle
// (0 for other handles).
func (pr *Prepared) MGLevels() int { return pr.mgLevels }
