package mfree

import (
	"fmt"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/grid"
)

// Operator is the matrix-free stencil executor: spmv.Operator,
// spmv.FusedOperator and spmv.Rebindable over a slab-decomposed
// regular grid, with no stored matrix. Each Apply exchanges the
// geometric halo and evaluates the stencil point by point, reading
// owned values from the local block and the two boundary planes from
// the Halo buffers.
//
// Bit-identity contract: for every local row the stencil terms
// accumulate into one scalar in ascending global column order — the
// order a sorted CSR row stores its entries — with the identical
// multiply-add sequence spmv.RowBlockCSRGhost performs over
// Spec.Assemble() on the same brick layout. Flop charges match too
// (2·nnzLocal per Apply, +2·n for the fused dot), so matrix-free and
// assembled CG runs produce identical iterates on identical modeled
// solve clocks; only setup differs.
type Operator struct {
	p        *comm.Proc
	spec     Spec // defaulted
	brick    grid.Brick3
	d        dist.Irregular
	dd       dist.Dist // d boxed once: alignment checks allocate nothing
	halo     *Halo
	zlo, zhi int
	n        int
	nnz      int
	nnzLocal int
}

// New builds rank p's slice of the stencil operator. Construction is
// purely local — the geometric schedule needs no collective — but New
// is called from every rank of a run like any operator constructor.
func New(p *comm.Proc, spec Spec) (*Operator, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b, err := spec.Brick(p.NP())
	if err != nil {
		return nil, err
	}
	zlo, zhi := b.ZRange(p.Rank())
	d := b.VectorDist()
	a := &Operator{
		p:     p,
		spec:  spec,
		brick: b,
		d:     d,
		dd:    d,
		halo:  NewHalo(p, b),
		zlo:   zlo,
		zhi:   zhi,
		n:     spec.N(),
		nnz:   spec.NNZ(),
	}
	// Stored entries of the owned rows in the (never-assembled) global
	// matrix: every in-grid stencil neighbour is one entry, whether its
	// column is owned or ghost. Per z-plane the x/y face factors are
	// constant, so one term per owned plane suffices.
	for z := zlo; z < zhi; z++ {
		zf := 1
		if z > 0 {
			zf++
		}
		if z < b.Z-1 {
			zf++
		}
		if spec.Stencil == "5pt" {
			// (3X-2) x-direction entries per plane; the diagonal is
			// counted in the x factor, so z-neighbours add X·(zf-1).
			a.nnzLocal += (3*b.X - 2) + b.X*(zf-1)
		} else {
			a.nnzLocal += (3*b.X - 2) * (3*b.Y - 2) * zf
		}
	}
	return a, nil
}

// N implements spmv.Operator.
func (a *Operator) N() int { return a.n }

// NNZ implements spmv.Operator: the assembled form's entry count,
// computed analytically.
func (a *Operator) NNZ() int { return a.nnz }

// LocalNNZ returns this rank's share of the (virtual) stored entries —
// the load metric the flop charges are based on.
func (a *Operator) LocalNNZ() int { return a.nnzLocal }

// NGhosts returns the remote elements each Apply fetches.
func (a *Operator) NGhosts() int { return a.halo.NGhosts() }

// Spec returns the (defaulted) stencil spec.
func (a *Operator) Spec() Spec { return a.spec }

// Dist returns the operator's vector distribution — the brick's slab
// layout callers must align operand vectors with.
func (a *Operator) Dist() dist.Irregular { return a.d }

// Rebind implements spmv.Rebindable: the warm plan-cache path swaps in
// the new run's processor handle; buffers and geometry carry over.
func (a *Operator) Rebind(p *comm.Proc) {
	if p.Rank() != a.p.Rank() || p.NP() != a.p.NP() {
		panic(fmt.Sprintf("mfree: rebind rank %d/%d onto operator built for %d/%d",
			p.Rank(), p.NP(), a.p.Rank(), a.p.NP()))
	}
	a.p = p
	a.halo.Rebind(p)
}

func (a *Operator) checkAligned(op string, x, y *darray.Vector) {
	if !dist.Same(a.dd, x.Dist()) || !dist.Same(a.dd, y.Dist()) {
		panic(fmt.Sprintf("mfree: %s operands not aligned with operator distribution %s", op, a.d.Name()))
	}
}

// Apply implements spmv.Operator: exchange the geometric halo, then
// evaluate the stencil over the owned points.
func (a *Operator) Apply(x, y *darray.Vector) {
	a.checkAligned("Apply", x, y)
	a.sweep(x.Local(), y.Local())
	a.p.Compute(2 * a.nnzLocal)
}

// ApplyDot implements spmv.FusedOperator: the halo exchange and stencil
// sweep of Apply with the local x·y partial accumulated in the same
// pass (see spmv.RowBlockCSR.ApplyDot for the bit-identity argument).
func (a *Operator) ApplyDot(x, y *darray.Vector) float64 {
	a.checkAligned("ApplyDot", x, y)
	yl := y.Local()
	dot := a.sweep(x.Local(), yl)
	a.p.Compute(2*a.nnzLocal + 2*len(yl))
	return dot
}

// sweep exchanges the halo of xl, writes A·x into yl and returns the
// local x·(A·x) partial, accumulated in row order.
func (a *Operator) sweep(xl, yl []float64) float64 {
	low, high := a.halo.Exchange(xl)
	if a.spec.Stencil == "5pt" {
		return a.sweep5(xl, low, high, yl)
	}
	return a.sweep27(xl, low, high, yl)
}

// planes returns the three source planes of owned plane z — the one
// below, z itself and the one above, each X·Y long in the y·X+x
// layout. A neighbour plane is a ghost buffer when it lies on another
// rank, a slice of the local block otherwise, and nil outside the
// grid.
func (a *Operator) planes(z int, xl, low, high []float64) (lo, cur, hi []float64) {
	plane := a.brick.X * a.brick.Y
	off := (z - a.zlo) * plane
	cur = xl[off : off+plane]
	switch {
	case z == 0:
	case z == a.zlo:
		lo = low
	default:
		lo = xl[off-plane : off]
	}
	switch {
	case z == a.brick.Z-1:
	case z == a.zhi-1:
		hi = high
	default:
		hi = xl[off+plane : off+2*plane]
	}
	return lo, cur, hi
}

// sweep5 evaluates the 5-point stencil over the owned planes and
// returns the x·y partial. Brick coordinates map to sparse.Laplace2D's
// grid as z = row i, x = col j (Y = 1), so each point's neighbours in
// ascending global column order are: (z-1,x), (z,x-1), self, (z,x+1),
// (z+1,x) — exactly a sorted CSR row.
//
// Each plane splits into its two end points, which take the bounded
// edge5, and the interior 1 ≤ x ≤ X-2, which row5 evaluates with no
// in-plane tests. Both add the same terms in the same order into one
// scalar starting at 0.0, and the partial accumulates point by point
// in ascending row order, so the split changes no bit of y or of the
// partial.
func (a *Operator) sweep5(xl, low, high, yl []float64) (dot float64) {
	X := a.brick.X
	c, o := a.spec.Center, a.spec.Off
	for z := a.zlo; z < a.zhi; z++ {
		lo, cur, hi := a.planes(z, xl, low, high)
		out := yl[(z-a.zlo)*X:][:X]
		dot = edge5(lo, cur, hi, out, 0, c, o, dot)
		if X > 2 {
			dot = row5(lo, cur, hi, out, c, o, dot)
		}
		if X > 1 {
			dot = edge5(lo, cur, hi, out, X-1, c, o, dot)
		}
	}
	return dot
}

// edge5 evaluates point x of one 5-point plane with every neighbour
// bounds-tested, stores it and returns dot plus its partial.
func edge5(lo, cur, hi, out []float64, x int, c, o, dot float64) float64 {
	s := 0.0
	if lo != nil {
		s += o * lo[x]
	}
	if x > 0 {
		s += o * cur[x-1]
	}
	s += c * cur[x]
	if x < len(cur)-1 {
		s += o * cur[x+1]
	}
	if hi != nil {
		s += o * hi[x]
	}
	out[x] = s
	return dot + cur[x]*s
}

// row5 evaluates the interior points 1 ≤ x ≤ X-2 of one 5-point plane,
// whose in-plane neighbours all exist, and returns dot plus their
// partials in ascending x.
func row5(lo, cur, hi, out []float64, c, o, dot float64) float64 {
	hasLo, hasHi := lo != nil, hi != nil
	// An absent plane aliases the centre plane and is never read;
	// slicing every operand to one length n up front lets the compiler
	// drop the per-term bounds checks.
	if !hasLo {
		lo = cur
	}
	if !hasHi {
		hi = cur
	}
	n := len(cur)
	lo, hi, out = lo[:n], hi[:n], out[:n]
	for e := 2; e < n; e++ {
		x := e - 1 // e is x+1, the loop bound the compiler checks against
		s := 0.0
		if hasLo {
			s += o * lo[x]
		}
		s = s + o*cur[x-1] + c*cur[x] + o*cur[x+1]
		if hasHi {
			s += o * hi[x]
		}
		out[x] = s
		dot += cur[x] * s
	}
	return dot
}

// sweep27 evaluates the 27-point stencil and returns the x·y partial.
// A point's terms ascend dz, dy, dx, which is ascending global index
// order under Brick3's numbering (x fastest, z slowest) — the same
// sorted order the assembled CSR row stores and the same nesting
// internal/mg's level assembly uses.
//
// The three source planes are picked once per z. Each plane then
// splits into its boundary — rows y = 0 and y = Y-1 and columns x = 0
// and x = X-1 — which edge27 evaluates with the general bounded loop,
// and its interior 1 ≤ x ≤ X-2, 1 ≤ y ≤ Y-2, which row27 evaluates as
// straight-line code. Both add the same terms in the same order into
// one scalar starting at 0.0, and points are visited in ascending row
// order with the partial accumulated as they go, so the split changes
// no bit of y or of the partial.
func (a *Operator) sweep27(xl, low, high, yl []float64) (dot float64) {
	X, Y := a.brick.X, a.brick.Y
	c, o := a.spec.Center, a.spec.Off
	plane := X * Y
	for z := a.zlo; z < a.zhi; z++ {
		var pl [3][]float64
		pl[0], pl[1], pl[2] = a.planes(z, xl, low, high)
		out := yl[(z-a.zlo)*plane:][:plane]
		for y := 0; y < Y; y++ {
			if y == 0 || y == Y-1 {
				for x := 0; x < X; x++ {
					dot = edge27(&pl, out, X, Y, x, y, c, o, dot)
				}
				continue
			}
			dot = edge27(&pl, out, X, Y, 0, y, c, o, dot)
			if X > 2 {
				dot = row27(&pl, out, X, y, c, o, dot)
			}
			if X > 1 {
				dot = edge27(&pl, out, X, Y, X-1, y, c, o, dot)
			}
		}
	}
	return dot
}

// edge27 evaluates point (x, y) of one plane with every neighbour
// bounds-tested, stores it and returns dot plus its partial. pl holds
// the source planes for dz = -1, 0, +1 (nil outside the grid).
func edge27(pl *[3][]float64, out []float64, X, Y, x, y int, c, o, dot float64) float64 {
	s := 0.0
	for k, src := range pl {
		if src == nil {
			continue
		}
		for dy := -1; dy <= 1; dy++ {
			yy := y + dy
			if yy < 0 || yy >= Y {
				continue
			}
			row := yy * X
			for dx := -1; dx <= 1; dx++ {
				xx := x + dx
				if xx < 0 || xx >= X {
					continue
				}
				if k == 1 && dy == 0 && dx == 0 {
					s += c * src[row+xx]
				} else {
					s += o * src[row+xx]
				}
			}
		}
	}
	i := y*X + x
	out[i] = s
	return dot + pl[1][i]*s
}

// row27 evaluates the interior points 1 ≤ x ≤ X-2 of row y (itself
// interior) and returns dot plus their partials in ascending x. Every
// in-plane neighbour exists, so each present source plane adds its
// nine terms in one straight line; a nil plane (outside the grid)
// adds none.
func row27(pl *[3][]float64, out []float64, X, y int, c, o, dot float64) float64 {
	hasLo, hasHi := pl[0] != nil, pl[2] != nil
	l, m, h := pl[0], pl[1], pl[2]
	// An absent plane's rows alias the centre plane's and are never
	// read; slicing every row to one length n up front lets the
	// compiler drop the per-term bounds checks.
	if !hasLo {
		l = m
	}
	if !hasHi {
		h = m
	}
	r0, r1, r2 := (y-1)*X, y*X, (y+1)*X
	c1 := m[r1:][:X]
	n := len(c1)
	c0, c2 := m[r0:][:n], m[r2:][:n]
	l0, l1, l2 := l[r0:][:n], l[r1:][:n], l[r2:][:n]
	h0, h1, h2 := h[r0:][:n], h[r1:][:n], h[r2:][:n]
	out = out[r1:][:n]
	for e := 2; e < n; e++ {
		x := e - 1 // e is x+1, the loop bound the compiler checks against
		s := 0.0
		if hasLo {
			s = s + o*l0[x-1] + o*l0[x] + o*l0[x+1] +
				o*l1[x-1] + o*l1[x] + o*l1[x+1] +
				o*l2[x-1] + o*l2[x] + o*l2[x+1]
		}
		s = s + o*c0[x-1] + o*c0[x] + o*c0[x+1] +
			o*c1[x-1] + c*c1[x] + o*c1[x+1] +
			o*c2[x-1] + o*c2[x] + o*c2[x+1]
		if hasHi {
			s = s + o*h0[x-1] + o*h0[x] + o*h0[x+1] +
				o*h1[x-1] + o*h1[x] + o*h1[x+1] +
				o*h2[x-1] + o*h2[x] + o*h2[x+1]
		}
		out[x] = s
		dot += c1[x] * s
	}
	return dot
}
