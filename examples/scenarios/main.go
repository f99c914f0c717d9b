// The paper's §4 narrative as a runnable program: the same CG solve is
// executed under the two partitioning scenarios via the directive
// pipeline (parse -> bind -> hpfexec), with and without the proposed
// §5.1 extension, and the communication matrices are printed so the
// structural difference is visible: Scenario 1's all-to-all broadcast,
// the HPF-1 serialized pipeline's single sub-diagonal, and the
// extension's merge exchange.
package main

import (
	"fmt"
	"log"
	"os"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/hpf"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/report"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

const (
	np = 4
	n  = 512
)

var plans = []struct {
	name string
	src  string
}{
	{"Scenario 1: CSR row-block (Figure 2)", `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSR) :: smA(row, col, a)
`},
	{"Scenario 2: CSC col-block, HPF-1 (serialized loop)", `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
`},
	{"Scenario 2 + §5.1 extension (PRIVATE WITH MERGE)", `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)
!EXT$ ITERATION j ON PROCESSOR(j*np/n), PRIVATE(q(n)) WITH MERGE(+)
`},
}

func main() {
	A := sparse.Banded(n, 4)
	b := sparse.RandomVector(n, 11)
	sizes := map[string]int{
		"p": n, "q": n, "r": n, "x": n, "b": n,
		"row": n + 1, "col": A.NNZ(), "a": A.NNZ(),
		"colptr": n + 1, "rowidx": A.NNZ(),
	}

	fmt.Printf("system: banded n=%d nnz=%d, np=%d, hypercube\n\n", n, A.NNZ(), np)
	for _, pl := range plans {
		plan, err := hpf.Bind(hpf.MustParse(pl.src), np, sizes, map[string]int{"n": n, "nz": A.NNZ()})
		if err != nil {
			log.Fatal(err)
		}
		m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
		pr, err := hpfexec.Prepare(m, plan, A)
		if err != nil {
			log.Fatal(err)
		}
		out, err := pr.SolveBatch([][]float64{b}, []core.Options{{Tol: 1e-10}})
		if err != nil {
			log.Fatal(err)
		}
		res := out.Results[0]
		fmt.Printf("--- %s ---\n", pl.name)
		fmt.Printf("strategy: %s\n", res.Strategy)
		fmt.Printf("solver:   %s\n", res.Stats)
		fmt.Printf("model:    time=%.5gs comm=%.5gs msgs=%d bytes=%d imbalance=%.2f\n",
			res.Run.ModelTime, res.Run.CommTime(), res.Run.TotalMsgs,
			res.Run.TotalBytes, res.Run.FlopImbalance())
		if err := report.BytesMatrixTable("communication matrix", res.Run.BytesMatrix).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("reading the matrices: for Scenario 1 the executor measured the")
	fmt.Println("banded matrix's halo and picked the ghost exchange (near-diagonal")
	fmt.Println("traffic, ~20x fewer bytes than the broadcast); serialized Scenario 2")
	fmt.Println("shows the rank-to-rank pipeline (sub-diagonal) plus the final")
	fmt.Println("scatter row; the extension turns it into the symmetric merge")
	fmt.Println("exchange with scalable compute.")
}
