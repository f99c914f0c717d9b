// The matrix-free execution path: prepared handles for stencil CG with
// no assembled matrix. Where Prepare pays for partitioning, CSC
// conversion and the inspector's ghost-schedule exchange, and PrepareMG
// pays for a level hierarchy, PrepareStencil pays for nothing the
// modeled clock can see: the operator is two coefficients plus brick
// geometry, and its halo schedule is computed locally from the brick
// coordinates (mfree.Halo). SetupModelTime is therefore exactly zero on
// COLD runs as well as warm ones — the assembled path's setup cost is
// not amortized here, it is eliminated (experiment E25 prices both).
package hpfexec

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/mfree"
)

// PrepareStencil validates the stencil spec against the machine and
// returns the handle SolveBatch runs from. Each rank builds its
// operator locally on the first run — no collective, so cold setup is
// zero like warm — and each RHS runs core.CG, whose fused fast path
// engages mfree's ApplyDot; the answers are bit-identical to the
// assembled-CSR executor over the same brick layout.
func PrepareStencil(m *comm.Machine, spec mfree.Spec) (*Prepared, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, err := spec.Brick(m.NP()); err != nil {
		return nil, err
	}
	strategy := Strategy{
		Scenario: fmt.Sprintf("matrix-free %s stencil", spec.Stencil),
		Mode:     "mfree(geometric-halo)",
	}
	// Matrix-free handles hold two ghost planes per rank and a
	// descriptor; the size estimate is analytic in the spec.
	pr := newPrepared(m, spec.N(), strategy, spec.ModelBytes(m.NP()), func(p *comm.Proc) (rankState, error) {
		op, err := mfree.New(p, spec)
		if err != nil {
			return rankState{}, err
		}
		return rankState{op: op, d: op.Dist(), rebind: op}, nil
	})
	pr.mfSpec = &spec
	return pr, nil
}

// Stencil returns the handle's stencil spec, or nil for other handles.
func (pr *Prepared) Stencil() *mfree.Spec { return pr.mfSpec }
