package mfree

import (
	"strings"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

// specs5 and specs27 are the cross-np test shapes: slab dimensions
// chosen so np∈{2,3,4,8} all produce uneven brick splits.
var (
	spec5  = Spec{Stencil: "5pt", Nx: 11, Ny: 5}
	spec27 = Spec{Stencil: "27pt", Nx: 3, Ny: 4, Nz: 9}
)

// TestAssembleMatchesLaplace2D: the 5pt assembled comparator with
// canonical coefficients must be bit-for-bit the generator the rest of
// the repo solves — same structure arrays, same value bits.
func TestAssembleMatchesLaplace2D(t *testing.T) {
	s := Spec{Stencil: "5pt", Nx: 9, Ny: 6}
	A, err := s.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	B := sparse.Laplace2D(9, 6)
	if A.NRows != B.NRows || A.NNZ() != B.NNZ() {
		t.Fatalf("shape %d/%d vs %d/%d", A.NRows, A.NNZ(), B.NRows, B.NNZ())
	}
	for i := range B.RowPtr {
		if A.RowPtr[i] != B.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, A.RowPtr[i], B.RowPtr[i])
		}
	}
	for k := range B.Val {
		if A.Col[k] != B.Col[k] || A.Val[k] != B.Val[k] {
			t.Fatalf("entry %d = (%d,%g), want (%d,%g)", k, A.Col[k], A.Val[k], B.Col[k], B.Val[k])
		}
	}
	if got, want := s.NNZ(), A.NNZ(); got != want {
		t.Errorf("analytic NNZ = %d, assembled %d", got, want)
	}
}

// TestNNZAnalytic: the analytic entry count matches the assembled form
// for both stencils.
func TestNNZAnalytic(t *testing.T) {
	for _, s := range []Spec{spec5, spec27} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if s.NNZ() != A.NNZ() {
			t.Errorf("%s: analytic NNZ %d != assembled %d", s.Stencil, s.NNZ(), A.NNZ())
		}
	}
}

// TestMulVecMatchesAssembled: the sequential matrix-free reference
// apply is bitwise the assembled CSR product.
func TestMulVecMatchesAssembled(t *testing.T) {
	for _, s := range []Spec{spec5, spec27, {Stencil: "5pt", Nx: 6, Ny: 6, Center: 1.8, Off: -0.2}} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		n := s.N()
		x := sparse.RandomVector(n, 11)
		want := make([]float64, n)
		got := make([]float64, n)
		A.MulVec(x, want)
		s.MulVec(x, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: MulVec[%d] = %v, want %v", s.Stencil, i, got[i], want[i])
			}
		}
	}
}

// TestBitIdenticalToAssembled is the subsystem's ground truth: at every
// rank count (including uneven slab splits) the matrix-free Apply and
// ApplyDot must produce bit-identical vectors — and bit-identical local
// dot partials — to the assembled-CSR ghost executor over the same
// brick layout, with the same local entry counts feeding the flop
// charges.
//
// The shapes cover every branch of the sweeps' interior/boundary
// split: 27pt 6×5×8 and 5pt 9×8 have several interior columns per
// plane, 3×4×9 has one, and 2×2×8, 1×4×6 and 4×1×6 have none. np = 6
// and np = 8 give the Nz = 6 and Nz = 8 shapes one-plane slabs, whose
// both z-neighbours are ghost planes.
func TestBitIdenticalToAssembled(t *testing.T) {
	for _, s := range []Spec{
		spec5, spec27, {Stencil: "27pt", Nx: 2, Ny: 2, Nz: 8, Center: 7.5, Off: -0.25},
		{Stencil: "27pt", Nx: 6, Ny: 5, Nz: 8},
		{Stencil: "27pt", Nx: 1, Ny: 4, Nz: 6},
		{Stencil: "27pt", Nx: 4, Ny: 1, Nz: 6},
		{Stencil: "5pt", Nx: 9, Ny: 8},
	} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		xs := sparse.RandomVector(s.N(), 3)
		for _, np := range []int{1, 2, 3, 4, 6, 8} {
			if _, err := s.Brick(np); err != nil {
				continue // slab dimension thinner than np
			}
			if _, err := machine(np).RunChecked(func(p *comm.Proc) {
				op, err := New(p, s)
				if err != nil {
					t.Error(err)
					return
				}
				ref := spmv.NewRowBlockCSRGhost(p, A, op.Dist())
				if op.N() != ref.N() || op.NNZ() != ref.NNZ() {
					t.Errorf("np=%d: shape %d/%d vs %d/%d", np, op.N(), op.NNZ(), ref.N(), ref.NNZ())
				}
				if op.LocalNNZ() != ref.LocalNNZ() {
					t.Errorf("np=%d rank %d: local nnz %d, assembled %d", np, p.Rank(), op.LocalNNZ(), ref.LocalNNZ())
				}
				x := darray.New(p, op.Dist())
				x.SetGlobal(func(g int) float64 { return xs[g] })
				ym := darray.New(p, op.Dist())
				ya := darray.New(p, op.Dist())
				op.Apply(x, ym)
				ref.Apply(x, ya)
				ml, al := ym.Local(), ya.Local()
				for i := range ml {
					if ml[i] != al[i] {
						t.Errorf("np=%d rank %d: Apply[%d] = %v, assembled %v", np, p.Rank(), i, ml[i], al[i])
						break // still join the ApplyDot halo exchange below
					}
				}
				dm := op.ApplyDot(x, ym)
				da := ref.ApplyDot(x, ya)
				if dm != da {
					t.Errorf("np=%d rank %d: ApplyDot partial %v, assembled %v", np, p.Rank(), dm, da)
				}
				for i := range ml {
					if ml[i] != al[i] {
						t.Errorf("np=%d rank %d: ApplyDot y[%d] = %v, assembled %v", np, p.Rank(), i, ml[i], al[i])
						return
					}
				}
			}); err != nil {
				t.Fatalf("np=%d: %v", np, err)
			}
		}
	}
}

// TestGhostCountMatchesInspector: the geometric schedule fetches
// exactly the ghost set the inspector would discover — same remote
// element count per rank, so per-iteration modeled communication is
// identical and only setup differs.
func TestGhostCountMatchesInspector(t *testing.T) {
	for _, s := range []Spec{spec5, spec27} {
		A, err := s.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{1, 2, 3, 4} {
			machine(np).Run(func(p *comm.Proc) {
				op, err := New(p, s)
				if err != nil {
					t.Error(err)
					return
				}
				ref := spmv.NewRowBlockCSRGhost(p, A, op.Dist())
				if op.NGhosts() != ref.NGhosts() {
					t.Errorf("%s np=%d rank %d: geometric ghosts %d, inspector %d",
						s.Stencil, np, p.Rank(), op.NGhosts(), ref.NGhosts())
				}
			})
		}
	}
}

// TestApplyAllocFree: the stencil hot path allocates nothing in steady
// state. AllocsPerRun counts process-wide allocations, so every rank
// runs the measured loop in lockstep (the halo exchange keeps them
// aligned) and the total must still be zero.
func TestApplyAllocFree(t *testing.T) {
	for _, s := range []Spec{spec5, spec27} {
		for _, np := range []int{1, 4} {
			var allocs float64
			machine(np).Run(func(p *comm.Proc) {
				op, err := New(p, s)
				if err != nil {
					t.Error(err)
					return
				}
				x := darray.New(p, op.Dist())
				y := darray.New(p, op.Dist())
				x.SetGlobal(func(g int) float64 { return float64(g%5) - 2 })
				op.Apply(x, y) // warm-up: pools fill
				op.ApplyDot(x, y)
				const runs = 10
				if p.Rank() == 0 {
					allocs = testing.AllocsPerRun(runs, func() {
						op.Apply(x, y)
						op.ApplyDot(x, y)
					})
				} else {
					// AllocsPerRun calls f runs+1 times; match it so
					// the halo exchanges stay aligned across ranks.
					for i := 0; i < runs+1; i++ {
						op.Apply(x, y)
						op.ApplyDot(x, y)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%s np=%d: Apply+ApplyDot allocates %v in steady state", s.Stencil, np, allocs)
			}
		}
	}
}

// TestRebindBitIdentical: rebinding a cached operator onto a fresh
// run's Proc (the warm plan-registry path) reproduces the cold Apply
// bit for bit.
func TestRebindBitIdentical(t *testing.T) {
	s := spec27
	np := 3
	xs := sparse.RandomVector(s.N(), 5)
	ops := make([]*Operator, np)
	cold := make([]float64, 0, s.N())
	machine(np).Run(func(p *comm.Proc) {
		op, err := New(p, s)
		if err != nil {
			t.Error(err)
			return
		}
		ops[p.Rank()] = op
		x := darray.New(p, op.Dist())
		y := darray.New(p, op.Dist())
		x.SetGlobal(func(g int) float64 { return xs[g] })
		op.Apply(x, y)
		full := y.Gather()
		if p.Rank() == 0 {
			cold = append(cold, full...)
		}
	})
	machine(np).Run(func(p *comm.Proc) {
		op := ops[p.Rank()]
		op.Rebind(p)
		x := darray.New(p, op.Dist())
		y := darray.New(p, op.Dist())
		x.SetGlobal(func(g int) float64 { return xs[g] })
		op.Apply(x, y)
		full := y.Gather()
		if p.Rank() == 0 {
			for i := range full {
				if full[i] != cold[i] {
					t.Errorf("warm Apply[%d] = %v, cold %v", i, full[i], cold[i])
					return
				}
			}
		}
	})
}

// TestSpecValidate covers the admission-time bounds the serving tier
// relies on, and the slab-vs-np check at brick time.
func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		frag string
	}{
		{Spec{Stencil: "9pt", Nx: 4, Ny: 4}, "stencil"},
		{Spec{Stencil: "5pt", Nx: 0, Ny: 4}, "nx"},
		{Spec{Stencil: "5pt", Nx: 4, Ny: MaxDim + 1}, "ny"},
		{Spec{Stencil: "5pt", Nx: 4, Ny: 4, Nz: 2}, "nz"},
		{Spec{Stencil: "27pt", Nx: 4, Ny: 4, Nz: 0}, "nz"},
		{Spec{Stencil: "5pt", Nx: 4, Ny: 4, Center: 0, Off: -2}, "center"},
	}
	for _, c := range cases {
		err := c.spec.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%+v: error %v, want mention of %q", c.spec, err, c.frag)
		}
	}
	for _, ok := range []Spec{spec5, spec27} {
		if err := ok.WithDefaults().Validate(); err != nil {
			t.Errorf("%+v: unexpected %v", ok, err)
		}
	}
	// Slab thinner than the rank count is a brick-time error.
	if _, err := (Spec{Stencil: "5pt", Nx: 2, Ny: 8}).Brick(4); err == nil {
		t.Error("5pt Nx=2 over np=4: expected brick error")
	}
	if _, err := New(nil, Spec{Stencil: "tri"}); err == nil {
		t.Error("New with bad spec: expected error")
	}
}

// TestKeyAndDefaults: the cache key carries the coefficients (they are
// the operator's values) and defaulting picks the canonical pair.
func TestKeyAndDefaults(t *testing.T) {
	if k := spec5.Key(); k != "5pt:11x5:c4:o-1" {
		t.Errorf("key = %q", k)
	}
	if k := (Spec{Stencil: "5pt", Nx: 8, Ny: 8, Center: 1.8, Off: -0.2}).Key(); k != "5pt:8x8:c1.8:o-0.2" {
		t.Errorf("key = %q", k)
	}
	if k := spec27.Key(); k != "27pt:3x4x9:c26:o-1" {
		t.Errorf("key = %q", k)
	}
	d := spec27.WithDefaults()
	if d.Center != Center27pt || d.Off != OffDefault {
		t.Errorf("defaults = %g/%g", d.Center, d.Off)
	}
	// Off = 0 with a nonzero center is a valid (diagonal) operator,
	// not a trigger for defaulting.
	nd := Spec{Stencil: "5pt", Nx: 4, Ny: 4, Center: 2}.WithDefaults()
	if nd.Off != 0 || nd.Center != 2 {
		t.Errorf("explicit coefficients rewritten: %+v", nd)
	}
}

// TestModelBytesTiny: the matrix-free plan's registry footprint is
// orders of magnitude below the assembled CSR's for the same grid.
func TestModelBytesTiny(t *testing.T) {
	s := Spec{Stencil: "27pt", Nx: 32, Ny: 32, Nz: 32}
	mb := s.ModelBytes(4)
	if mb <= 0 {
		t.Fatalf("ModelBytes = %d", mb)
	}
	csrBytes := int64(s.NNZ()) * 16 // value + column index per entry
	if mb*100 > csrBytes {
		t.Errorf("ModelBytes %d not well below assembled %d", mb, csrBytes)
	}
}

// benchSink keeps the benchmarked dot partials live.
var benchSink float64

// benchApplyDot times the fused sweep on one rank owning the whole
// spec: no halo traffic, so the number is the stencil kernel's.
func benchApplyDot(b *testing.B, s Spec) {
	machine(1).Run(func(p *comm.Proc) {
		op, err := New(p, s)
		if err != nil {
			b.Error(err)
			return
		}
		x := darray.New(p, op.Dist())
		y := darray.New(p, op.Dist())
		x.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += op.ApplyDot(x, y)
		}
	})
}

// BenchmarkSweep27 runs the 27-point kernel on one rank's share of
// solve-large's 27pt 32³ stencil job at np = 4: a 32×32×8 slab.
func BenchmarkSweep27(b *testing.B) {
	benchApplyDot(b, Spec{Stencil: "27pt", Nx: 32, Ny: 32, Nz: 8})
}

// BenchmarkSweep5 runs the 5-point kernel on a 256×64 grid, one rank's
// share of a 256² Laplacian at np = 4.
func BenchmarkSweep5(b *testing.B) {
	benchApplyDot(b, Spec{Stencil: "5pt", Nx: 64, Ny: 256})
}
