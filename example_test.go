package repro_test

import (
	"fmt"
	"math"

	"repro"
)

// The canonical pipeline: analyze, partition, schedule, simulate.
func ExampleAnalyze() {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		panic(err)
	}
	fmt.Println("equations:", sys.A.N)
	fmt.Println("factor nonzeros:", sys.F.NNZ())
	fmt.Println("total work:", sys.TotalWork())
	// Output:
	// equations: 900
	// factor nonzeros: 16829
	// total work: 433583
}

// Comparing the paper's two mapping schemes on the same matrix.
func ExampleSystem_Traffic() {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		panic(err)
	}
	part := sys.Partition(repro.PartitionOptions{Grain: 25, MinClusterWidth: 4})
	block := sys.Traffic(sys.BlockSchedule(part, 16)).Total
	wrap := sys.Traffic(sys.WrapSchedule(16)).Total
	fmt.Println("block beats wrap:", block < wrap)
	// Output:
	// block beats wrap: true
}

// Solving a linear system end to end with the staged pipeline: analyze
// the pattern, map it, factor once, then solve against the held Factor
// (ordering and permutation handled internally; x is returned in the
// original variable order).
func ExampleFactor_Solve() {
	a := repro.Grid5(8, 8)
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		panic(err)
	}
	pl, err := an.Plan("wrap", 4, repro.StrategyOptions{})
	if err != nil {
		panic(err)
	}
	fa, err := pl.Factorize(a, repro.KernelCholesky)
	if err != nil {
		panic(err)
	}
	b := make([]float64, 64)
	b[0] = 1
	x, err := fa.Solve(b)
	if err != nil {
		panic(err)
	}
	// ‖A·x − b‖∞ (‖b‖∞ = 1).
	var res float64
	for i := range b {
		r := -b[i]
		for j := range x {
			r += a.At(i, j) * x[j]
		}
		res = math.Max(res, math.Abs(r))
	}
	fmt.Printf("residual below 1e-10: %v\n", res < 1e-10)
	// Output:
	// residual below 1e-10: true
}

// Inspecting the partitioner's clusters and unit blocks.
func ExampleSystem_Partition() {
	sys, err := repro.Analyze(repro.FEGrid5(5)) // the paper's Figure 2 matrix
	if err != nil {
		panic(err)
	}
	part := sys.Partition(repro.PartitionOptions{Grain: 4, MinClusterWidth: 2})
	multi := 0
	for _, cl := range part.Clusters {
		if !cl.Single {
			multi++
		}
	}
	fmt.Println("41 unknowns:", sys.A.N == 41)
	fmt.Println("has multi-column clusters:", multi > 0)
	// Output:
	// 41 unknowns: true
	// has multi-column clusters: true
}

// The load imbalance factor A of the paper's Section 4.
func ExampleSchedule() {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		panic(err)
	}
	wrap := sys.WrapSchedule(1)
	fmt.Println("A on one processor:", wrap.Imbalance())
	fmt.Println("efficiency:", wrap.Efficiency())
	// Output:
	// A on one processor: 0
	// efficiency: 1
}
