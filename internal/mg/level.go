// Per-rank multigrid level: the local rows of the 27-point stencil in
// CSR form with the ghost encoding RowBlockCSRGhost established
// (column >= 0 is a local offset, column < 0 is ghost slot -(c+1)),
// one inspector halo schedule for the smoother/mat-vec, and — on
// coarse levels — the injection restriction and its transpose
// prolongation as inspector gather schedules over the neighbouring
// level's distribution. Under the z-slab decomposition with even
// local dimensions the transfer schedules are empty (fine plane 2k
// and coarse plane k share an owner), but building them through the
// inspector keeps the code correct for any clamped hierarchy shape.
package mg

import (
	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/grid"
	"hpfcg/internal/inspector"
)

// level is one grid of the hierarchy as rank r sees it. Construction
// is collective (inspector.Build exchanges request lists); afterwards
// every operation is an Exchange plus purely local sweeps, and all
// buffers are preallocated so the steady state allocates nothing.
type level struct {
	b  grid.Brick3
	d  dist.Irregular
	lo int // first owned global point
	n  int // owned point count

	rowPtr []int
	col    []int // >= 0: local offset; < 0: ghost slot -(c+1)
	val    []float64
	diag   []float64
	sched  *inspector.Schedule

	nnzLocal  int
	nnzGlobal int64

	// Scratch for the V-cycle: the restricted right-hand side and the
	// correction on this level, and the residual restricted from here.
	r, x, res []float64

	// Transfer from the next-finer level (nil on the finest level).
	// restrictSrc[i] locates coarse point i's injection source in the
	// fine residual (local offset or restrictSched ghost slot);
	// prolongFine/prolongSrc scatter this level's correction back to
	// the fine points with all-even coordinates.
	restrictSrc   []int
	restrictSched *inspector.Schedule
	prolongFine   []int
	prolongSrc    []int
	prolongSched  *inspector.Schedule
}

// newLevel builds rank p's piece of the 27-point stencil on brick b.
// Collective: every rank must call it with the same brick.
func newLevel(p *comm.Proc, b grid.Brick3) *level {
	r := p.Rank()
	d := b.VectorDist()
	lv := &level{
		b:         b,
		d:         d,
		lo:        d.Lo(r),
		n:         d.Count(r),
		nnzGlobal: stencilNNZ(b),
	}
	zlo, zhi := b.ZRange(r)
	lv.rowPtr = make([]int, lv.n+1)
	lv.col = make([]int, 0, lv.n*27)
	lv.val = make([]float64, 0, lv.n*27)
	lv.diag = make([]float64, lv.n)
	lv.r = make([]float64, lv.n)
	lv.x = make([]float64, lv.n)
	lv.res = make([]float64, lv.n)

	// Rows in local order (z, y, x ascending = global index ascending),
	// columns within a row in ascending global order. First with global
	// column indices; remapped to the local/ghost encoding once the
	// inspector has assigned ghost slots.
	i := 0
	for z := zlo; z < zhi; z++ {
		for y := 0; y < b.Y; y++ {
			for x := 0; x < b.X; x++ {
				self := b.Index(x, y, z)
				for dz := -1; dz <= 1; dz++ {
					zz := z + dz
					if zz < 0 || zz >= b.Z {
						continue
					}
					for dy := -1; dy <= 1; dy++ {
						yy := y + dy
						if yy < 0 || yy >= b.Y {
							continue
						}
						for dx := -1; dx <= 1; dx++ {
							xx := x + dx
							if xx < 0 || xx >= b.X {
								continue
							}
							g := b.Index(xx, yy, zz)
							lv.col = append(lv.col, g)
							if g == self {
								lv.val = append(lv.val, 26)
								lv.diag[i] = 26
							} else {
								lv.val = append(lv.val, -1)
							}
						}
					}
				}
				i++
				lv.rowPtr[i] = len(lv.col)
			}
		}
	}
	lv.nnzLocal = len(lv.col)
	lv.sched = inspector.Build(p, d, lv.col)
	for k, g := range lv.col {
		if owner, off := d.Local(g); owner == r {
			lv.col[k] = off
		} else {
			lv.col[k] = -(lv.sched.GhostSlot(g) + 1)
		}
	}
	return lv
}

// buildTransfer wires this (coarse) level to its next-finer level f:
// the injection restriction gather and the transpose prolongation
// scatter. Collective.
func (lv *level) buildTransfer(p *comm.Proc, f *level) {
	r := p.Rank()

	// Restriction: coarse point (x,y,z) reads fine point (2x,2y,2z).
	fineG := make([]int, lv.n)
	for i := range fineG {
		x, y, z := lv.b.Coords(lv.lo + i)
		fineG[i] = f.b.Index(2*x, 2*y, 2*z)
	}
	lv.restrictSched = inspector.Build(p, f.d, fineG)
	lv.restrictSrc = fineG
	for i, g := range fineG {
		if owner, off := f.d.Local(g); owner == r {
			lv.restrictSrc[i] = off
		} else {
			lv.restrictSrc[i] = -(lv.restrictSched.GhostSlot(g) + 1)
		}
	}

	// Prolongation: every fine point with all-even coordinates adds
	// the value of its coarse image.
	var fine, needs []int
	for off := 0; off < f.n; off++ {
		x, y, z := f.b.Coords(f.lo + off)
		if x%2 == 0 && y%2 == 0 && z%2 == 0 {
			fine = append(fine, off)
			needs = append(needs, lv.b.Index(x/2, y/2, z/2))
		}
	}
	lv.prolongSched = inspector.Build(p, lv.d, needs)
	lv.prolongFine = fine
	lv.prolongSrc = needs
	for i, g := range needs {
		if owner, off := lv.d.Local(g); owner == r {
			lv.prolongSrc[i] = off
		} else {
			lv.prolongSrc[i] = -(lv.prolongSched.GhostSlot(g) + 1)
		}
	}
}

// rebind re-attaches the level's schedules to a fresh Proc of the
// same rank — the warm path of plan caching.
func (lv *level) rebind(p *comm.Proc) {
	lv.sched.Rebind(p)
	if lv.restrictSched != nil {
		lv.restrictSched.Rebind(p)
	}
	if lv.prolongSched != nil {
		lv.prolongSched.Rebind(p)
	}
}

// symgs runs one symmetric Gauss-Seidel sweep on A·x = r: ONE halo
// exchange, then a forward and a backward pass with the ghost values
// frozen — Gauss-Seidel within the rank, block-Jacobi across ranks,
// the HPCG smoother. Sequential per rank with a fixed sweep order, so
// the result is bit-deterministic.
//
// The row loops below read the CSR arrays through local slices and
// hand rowSub each row's entries as sub-slices, so the inner loop runs
// without per-term struct loads or bounds checks on val. Row order,
// term order (the stored ascending column order) and the diagonal
// update are those of the plain loop, so every x bit is unchanged.
func (lv *level) symgs(p *comm.Proc, rl, xl []float64) {
	ghosts := lv.sched.Exchange(xl)
	rowPtr, col, val, diag := lv.rowPtr, lv.col, lv.val, lv.diag
	for i := 0; i < lv.n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		s := rowSub(rl[i], col[lo:hi], val[lo:hi], xl, ghosts)
		s += diag[i] * xl[i]
		xl[i] = s / diag[i]
	}
	for i := lv.n - 1; i >= 0; i-- {
		lo, hi := rowPtr[i], rowPtr[i+1]
		s := rowSub(rl[i], col[lo:hi], val[lo:hi], xl, ghosts)
		s += diag[i] * xl[i]
		xl[i] = s / diag[i]
	}
	p.Compute(4*lv.nnzLocal + 6*lv.n)
}

// rowSub returns s minus row·x, one term per stored entry in stored
// order: cols and vals are one row's entries, a column >= 0 reads xl
// and a column < 0 reads ghost slot -(c+1).
func rowSub(s float64, cols []int, vals, xl, ghosts []float64) float64 {
	vals = vals[:len(cols)]
	for k, c := range cols {
		if c >= 0 {
			s -= vals[k] * xl[c]
		} else {
			s -= vals[k] * ghosts[-c-1]
		}
	}
	return s
}

// matvec computes y = A·x on the local rows.
func (lv *level) matvec(p *comm.Proc, xl, yl []float64) {
	lv.apply(xl, yl)
	p.Compute(2 * lv.nnzLocal)
}

// matvecDot is matvec fused with the local partial of x·(A·x), the
// form CG's fused iteration consumes.
func (lv *level) matvecDot(p *comm.Proc, xl, yl []float64) float64 {
	dot := lv.apply(xl, yl)
	p.Compute(2*lv.nnzLocal + 2*lv.n)
	return dot
}

// apply exchanges the halo of xl, writes A·x into yl and returns the
// local x·(A·x) partial accumulated in row order. Each row sums its
// entries in stored order into one scalar starting at 0.0.
func (lv *level) apply(xl, yl []float64) float64 {
	ghosts := lv.sched.Exchange(xl)
	rowPtr, col, val := lv.rowPtr, lv.col, lv.val
	var dot float64
	for i := 0; i < lv.n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols, vals := col[lo:hi], val[lo:hi]
		vals = vals[:len(cols)]
		var s float64
		for k, c := range cols {
			if c >= 0 {
				s += vals[k] * xl[c]
			} else {
				s += vals[k] * ghosts[-c-1]
			}
		}
		yl[i] = s
		dot += xl[i] * s
	}
	return dot
}

// residual computes res = r - A·x.
func (lv *level) residual(p *comm.Proc, rl, xl, resl []float64) {
	ghosts := lv.sched.Exchange(xl)
	rowPtr, col, val := lv.rowPtr, lv.col, lv.val
	for i := 0; i < lv.n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		resl[i] = rowSub(rl[i], col[lo:hi], val[lo:hi], xl, ghosts)
	}
	p.Compute(2*lv.nnzLocal + lv.n)
}

// restrictFrom injects the fine residual into this level's right-hand
// side scratch: r_c(i) = res_f(2x, 2y, 2z).
func (lv *level) restrictFrom(p *comm.Proc, fineRes []float64) {
	ghosts := lv.restrictSched.Exchange(fineRes)
	for i, c := range lv.restrictSrc {
		if c >= 0 {
			lv.r[i] = fineRes[c]
		} else {
			lv.r[i] = ghosts[-c-1]
		}
	}
	p.Compute(lv.n)
}

// prolongInto adds this level's correction back to the fine vector at
// the all-even-coordinate points (the transpose of injection).
func (lv *level) prolongInto(p *comm.Proc, fineX []float64) {
	ghosts := lv.prolongSched.Exchange(lv.x)
	for i, off := range lv.prolongFine {
		if c := lv.prolongSrc[i]; c >= 0 {
			fineX[off] += lv.x[c]
		} else {
			fineX[off] += ghosts[-c-1]
		}
	}
	p.Compute(len(lv.prolongFine))
}
