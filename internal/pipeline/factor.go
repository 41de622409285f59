package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/artifact"
	"repro/internal/exec"
	"repro/internal/numeric"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// errNoValues reports a values-stage operation on a pattern-only matrix.
var errNoValues = errors.New("pipeline: matrix has no values")

// Kernel selects the numeric factorization kernel of a Factor.
type Kernel int

const (
	// Cholesky is A = L·Lᵀ (symmetric positive definite).
	Cholesky Kernel = iota
	// LDL is the square-root-free A = L·D·Lᵀ (symmetric indefinite).
	LDL
)

// String returns the kernel name ("cholesky" or "ldl").
func (k Kernel) String() string {
	switch k {
	case Cholesky:
		return "cholesky"
	case LDL:
		return "ldl"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

func (k Kernel) valid() error {
	if k != Cholesky && k != LDL {
		return fmt.Errorf("pipeline: unknown kernel %d", int(k))
	}
	return nil
}

// Factor is the numeric-stage artifact: factor values over a symbolic
// structure, carrying the Plan it was built from. Its solve methods never
// re-factorize — holding a Factor means factorization work is done.
type Factor struct {
	Plan   *Plan
	Kernel Kernel
	// F is the structure Val aligns with: always the analysis factor
	// Plan.An.F, whichever engine built the values.
	F   *symbolic.Factor
	Val []float64
	// Key content-addresses this artifact by (pattern, ordering, values,
	// kernel). Serial and parallel factors are bit-identical and share it.
	Key artifact.Key

	solveOnce sync.Once
	solveSch  *sched.Schedule
}

// FactorKey returns the content address of the Factor that Factorize
// or FactorizeParallel would build from this plan and a's values, without
// factorizing. Every engine replays the exact serial update order
// (numeric.Chains) and is bit-for-bit interchangeable with the serial
// kernels, so the key depends on (pattern, ordering, values, kernel) only:
// parallel does not change it, and neither does the plan's strategy or P.
func (pl *Plan) FactorKey(k Kernel, a *sparse.Matrix, parallel bool) artifact.Key {
	h := artifact.NewHasher("factor")
	h.Key(pl.An.Key)
	h.Str(k.String())
	h.Key(artifact.Key{Kind: "values", Sum: artifact.ValuesSum(a)})
	return h.Sum()
}

// Factorize computes the numeric factor of a — a matrix with this
// analysis' pattern — with the serial left-looking kernel
// (numeric.Factorize or numeric.FactorizeLDL over the permuted matrix).
func (pl *Plan) Factorize(a *sparse.Matrix, k Kernel) (*Factor, error) {
	if err := k.valid(); err != nil {
		return nil, err
	}
	pm, err := pl.An.PermutedWithValues(a)
	if err != nil {
		return nil, err
	}
	var val []float64
	switch k {
	case Cholesky:
		c, err := numeric.Factorize(pm, pl.An.F)
		if err != nil {
			return nil, err
		}
		val = c.Val
	case LDL:
		l, err := numeric.FactorizeLDL(pm, pl.An.F)
		if err != nil {
			return nil, err
		}
		val = l.Val
	}
	return &Factor{
		Plan: pl, Kernel: k, F: pl.An.F, Val: val,
		Key: pl.FactorKey(k, a, false),
	}, nil
}

// FactorizeParallel computes the numeric factor with one worker goroutine
// per processor of the plan, executing the plan's own task graph (tile
// segments, columns or unit blocks) on the chain-order engine. The values
// are bit-for-bit those of Factorize, for every plan and both kernels.
func (pl *Plan) FactorizeParallel(a *sparse.Matrix, k Kernel) (*Factor, error) {
	if err := k.valid(); err != nil {
		return nil, err
	}
	pm, err := pl.An.PermutedWithValues(a)
	if err != nil {
		return nil, err
	}
	tasks, elemTask := pl.engineGraph()
	var nf *exec.NumericFactor
	if k == Cholesky {
		nf, err = exec.ParallelFactorize2D(pm, pl.An.F, pl.P, tasks, elemTask)
	} else {
		nf, err = exec.ParallelFactorize2DLDL(pm, pl.An.F, pl.P, tasks, elemTask)
	}
	if err != nil {
		return nil, err
	}
	return &Factor{
		Plan: pl, Kernel: k, F: pl.An.F, Val: nf.Val,
		Key: pl.FactorKey(k, a, true),
	}, nil
}

// N returns the system dimension.
func (fa *Factor) N() int { return fa.F.N }

// permute maps a right-hand side into elimination order; unpermute maps a
// solution back.
func (fa *Factor) permute(b []float64) []float64 {
	pb := make([]float64, len(b))
	for k, old := range fa.Plan.An.Perm {
		pb[k] = b[old]
	}
	return pb
}

func (fa *Factor) unpermute(px []float64) []float64 {
	x := make([]float64, len(px))
	for k, old := range fa.Plan.An.Perm {
		x[old] = px[k]
	}
	return x
}

// solveSerial runs the serial triangular solves on a permuted rhs.
func (fa *Factor) solveSerial(pb []float64) []float64 {
	if fa.Kernel == LDL {
		return (&numeric.LDL{F: fa.F, Val: fa.Val}).Solve(pb)
	}
	return (&numeric.Cholesky{F: fa.F, Val: fa.Val}).Solve(pb)
}

// Solve solves A·x = b in the original variable order with the serial
// triangular sweeps. It performs no factorization work: the factor values
// are already held. The result is bit-for-bit the permuted serial
// triangular solve (numeric.Cholesky.Solve or numeric.LDL.Solve).
func (fa *Factor) Solve(b []float64) ([]float64, error) {
	if len(b) != fa.F.N {
		return nil, fmt.Errorf("pipeline: rhs length %d, want %d", len(b), fa.F.N)
	}
	return fa.unpermute(fa.solveSerial(fa.permute(b))), nil
}

// SolveBatch solves one system per right-hand side, fanning the
// independent solves out over worker goroutines. Each solution is
// bit-for-bit identical to Solve on that rhs alone.
func (fa *Factor) SolveBatch(bs [][]float64) ([][]float64, error) {
	for i, b := range bs {
		if len(b) != fa.F.N {
			return nil, fmt.Errorf("pipeline: rhs %d length %d, want %d", i, len(b), fa.F.N)
		}
	}
	xs := make([][]float64, len(bs))
	workers := runtime.NumCPU()
	if workers > len(bs) {
		workers = len(bs)
	}
	if workers < 1 {
		workers = 1
	}
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//repro:allow nondeterminism -- each worker claims whole independent right-hand sides and writes only its own xs[i] slot; TestSolveBatchBitIdentical pins every solution against the serial Solve
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(bs) {
					return
				}
				xs[i] = fa.unpermute(fa.solveSerial(fa.permute(bs[i])))
			}
		}()
	}
	wg.Wait()
	return xs, nil
}

// solveSchedule derives the column-ownership schedule of the parallel
// sweeps from the plan, expanded over this factor's structure. Built once
// and reused by every SolveParallel call.
func (fa *Factor) solveSchedule() *sched.Schedule {
	fa.solveOnce.Do(func() {
		owner := fa.Plan.columnOwners()
		f := fa.F
		ep := make([]int32, f.NNZ())
		for j := 0; j < f.N; j++ {
			for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
				ep[q] = owner[j]
			}
		}
		fa.solveSch = &sched.Schedule{P: fa.Plan.P, ElemProc: ep}
	})
	return fa.solveSch
}

// SolveParallel solves A·x = b with the parallel fan-in triangular sweeps
// (one worker per processor of the plan, columns owned per the plan's
// diagonal ownership), for either kernel. Like Solve it never
// re-factorizes. The result is deterministic run to run; it differs from
// Solve only in floating-point summation order.
func (fa *Factor) SolveParallel(b []float64) ([]float64, error) {
	if len(b) != fa.F.N {
		return nil, fmt.Errorf("pipeline: rhs length %d, want %d", len(b), fa.F.N)
	}
	s := fa.solveSchedule()
	pb := fa.permute(b)
	var px []float64
	var err error
	if fa.Kernel == LDL {
		px, err = exec.ParallelSolveLDL(&numeric.LDL{F: fa.F, Val: fa.Val}, s, pb)
	} else {
		px, err = exec.ParallelSolve(&numeric.Cholesky{F: fa.F, Val: fa.Val}, s, pb)
	}
	if err != nil {
		return nil, err
	}
	return fa.unpermute(px), nil
}
