package exec_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/numeric"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/strategy"
)

// The block-granular 1D schedules run on the chain-order engine through
// pipeline.Plan.FactorizeParallel: the plan's unit-block graph plus the
// scale dependencies (exec.BlockExecTasks). These tests pin that path
// bitwise against the serial kernels.

// blockPlan analyzes m (MMD ordering, or the natural order when natural
// is set) and maps it with the block strategy on p processors over a
// partition of grain g and minimum cluster width w.
func blockPlan(t testing.TB, m *sparse.Matrix, g, w, p int, natural bool) *pipeline.Plan {
	t.Helper()
	var an *pipeline.Analysis
	var err error
	if natural {
		perm := make([]int, m.N)
		for i := range perm {
			perm[i] = i
		}
		an, err = pipeline.NewAnalysisOrdered(m, perm)
	} else {
		an, err = pipeline.NewAnalysis(m)
	}
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("block", p, strategy.Options{Part: core.Options{Grain: g, MinClusterWidth: w}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.S1.UnitProc == nil {
		t.Fatal("block plan is not block-granular")
	}
	return pl
}

// serialFactor is the reference: the serial kernel on the plan's
// permuted matrix.
func serialFactor(t testing.TB, pl *pipeline.Plan, m *sparse.Matrix, ldl bool) []float64 {
	t.Helper()
	pm, err := pl.An.PermutedWithValues(m)
	if err != nil {
		t.Fatal(err)
	}
	if ldl {
		l, err := numeric.FactorizeLDL(pm, pl.An.F)
		if err != nil {
			t.Fatal(err)
		}
		return l.Val
	}
	c, err := numeric.Factorize(pm, pl.An.F)
	if err != nil {
		t.Fatal(err)
	}
	return c.Val
}

// firstBitDiff returns the first position where got and want differ
// bitwise, or -1.
func firstBitDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for q := range want {
		if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
			return q
		}
	}
	return -1
}

func TestParallelFactorizeMatchesSequential(t *testing.T) {
	for _, tm := range gen.Suite() {
		m := tm.Build()
		pl := blockPlan(t, m, 25, 4, 8, false)
		got, err := pl.FactorizeParallel(m, pipeline.Cholesky)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		if q := firstBitDiff(got.Val, serialFactor(t, pl, m, false)); q >= 0 {
			t.Errorf("%s: parallel factor differs from numeric.Factorize at %d", tm.Name, q)
		}
		if got.F != pl.An.F {
			t.Errorf("%s: factor not over the analysis structure", tm.Name)
		}
	}
}

func TestParallelFactorizeRandomProperty(t *testing.T) {
	fc := func(seed int64) bool {
		m := gen.Random(45, 1.3, seed)
		pl := blockPlan(t, m, 3, 3, 4, false)
		got, err := pl.FactorizeParallel(m, pipeline.Cholesky)
		if err != nil {
			return false
		}
		want, err := pl.Factorize(m, pipeline.Cholesky)
		if err != nil {
			return false
		}
		return firstBitDiff(got.Val, want.Val) < 0 && got.Key == want.Key
	}
	if err := quick.Check(fc, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelFactorizeRejectsPatternOnly(t *testing.T) {
	m := gen.Grid5(3, 3)
	pl := blockPlan(t, m, 4, 4, 2, false)
	bare := &sparse.Matrix{N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd}
	if _, err := pl.FactorizeParallel(bare, pipeline.Cholesky); err == nil {
		t.Fatal("expected error for pattern-only matrix")
	}
}

func TestParallelFactorizeNotSPD(t *testing.T) {
	m := gen.Grid5(4, 4)
	// Make it indefinite.
	m.Val[0] = -100
	pl := blockPlan(t, m, 4, 4, 3, true)
	if _, err := pl.FactorizeParallel(m, pipeline.Cholesky); err == nil {
		t.Fatal("expected not-SPD error")
	}
}

// TestParallelFactorizeDeterminism pins bit-for-bit stability of the
// block-plan engine across repeated runs on the same plan: whatever order
// the workers interleave in, every run reproduces the serial factor. CI
// runs this with -race and -count=2.
func TestParallelFactorizeDeterminism(t *testing.T) {
	for _, tm := range gen.Suite() {
		m := tm.Build()
		pl := blockPlan(t, m, 25, 4, 8, false)
		want := serialFactor(t, pl, m, false)
		for rep := 0; rep < 4; rep++ {
			got, err := pl.FactorizeParallel(m, pipeline.Cholesky)
			if err != nil {
				t.Fatalf("%s: rep %d: %v", tm.Name, rep, err)
			}
			if q := firstBitDiff(got.Val, want); q >= 0 {
				t.Fatalf("%s: rep %d diverged at value %d: %x vs %x",
					tm.Name, rep, q, math.Float64bits(got.Val[q]), math.Float64bits(want[q]))
			}
		}
	}
}

// The block path shares the engine's validator: corrupt unit owners and a
// non-positive processor count error out instead of racing or panicking.
func TestParallelFactorizeRejectsBadOwners(t *testing.T) {
	m := gen.Grid5(4, 4)
	pl := blockPlan(t, m, 4, 4, 2, false)
	pl.S1.UnitProc[0] = 7
	if _, err := pl.FactorizeParallel(m, pipeline.Cholesky); err == nil {
		t.Fatal("expected error for out-of-range unit owner")
	}
	pl = blockPlan(t, m, 4, 4, 2, false)
	pl.P = 0
	if _, err := pl.FactorizeParallel(m, pipeline.Cholesky); err == nil {
		t.Fatal("expected error for P=0 plan")
	}
}

func TestParallelLDLMatchesSequential(t *testing.T) {
	// The Section 5 generality claim: the same partition, schedule and
	// dependency graph drive a different factorization kernel.
	for _, tm := range gen.Suite()[:3] {
		m := tm.Build()
		pl := blockPlan(t, m, 25, 4, 8, false)
		got, err := pl.FactorizeParallel(m, pipeline.LDL)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name, err)
		}
		if q := firstBitDiff(got.Val, serialFactor(t, pl, m, true)); q >= 0 {
			t.Errorf("%s: parallel LDL differs from numeric.FactorizeLDL at %d", tm.Name, q)
		}
	}
}

func TestParallelLDLIndefinite(t *testing.T) {
	// An indefinite diagonal shift: Cholesky fails, LDL^T succeeds in
	// parallel too (natural ordering keeps the test deterministic).
	m := gen.Grid5(6, 6)
	m.Val[0] = -3 // perturb one diagonal entry to flip an eigenvalue
	pl := blockPlan(t, m, 8, 4, 4, true)
	if _, err := pl.FactorizeParallel(m, pipeline.Cholesky); err == nil {
		t.Fatal("parallel Cholesky should reject the indefinite matrix")
	}
	got, err := pl.FactorizeParallel(m, pipeline.LDL)
	if err != nil {
		t.Fatalf("parallel LDL: %v", err)
	}
	if q := firstBitDiff(got.Val, serialFactor(t, pl, m, true)); q >= 0 {
		t.Fatalf("value %d differs", q)
	}
}

// BenchmarkParallelFactorizeLap30 times the LAP30 block plan (grain 25,
// width 4) at P=8 through Plan.FactorizeParallel; the engine graph is
// built once, before the timer starts.
func BenchmarkParallelFactorizeLap30(b *testing.B) {
	m := gen.Lap30()
	pl := blockPlan(b, m, 25, 4, 8, false)
	if _, err := pl.FactorizeParallel(m, pipeline.Cholesky); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.FactorizeParallel(m, pipeline.Cholesky); err != nil {
			b.Fatal(err)
		}
	}
}
