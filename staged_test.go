package repro_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro"
	"repro/internal/exec"
	"repro/internal/numeric"
)

// stagedRHS builds a deterministic right-hand side.
func stagedRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7)%13) - 6
	}
	return b
}

// monolithSolve is the unstaged reference: the serial kernel on the
// monolithic System's permuted matrix and the permuted serial triangular
// solve, x returned in the original order.
func monolithSolve(t *testing.T, sys *repro.System, b []float64, ldl bool) []float64 {
	t.Helper()
	pb := make([]float64, len(b))
	for k, old := range sys.Order {
		pb[k] = b[old]
	}
	var px []float64
	if ldl {
		l, err := numeric.FactorizeLDL(sys.Permuted, sys.F)
		if err != nil {
			t.Fatal(err)
		}
		px = l.Solve(pb)
	} else {
		c, err := numeric.Factorize(sys.Permuted, sys.F)
		if err != nil {
			t.Fatal(err)
		}
		px = c.Solve(pb)
	}
	x := make([]float64, len(b))
	for k, old := range sys.Order {
		x[old] = px[k]
	}
	return x
}

// bitEqual fails unless got and want are bitwise identical float slices.
func bitEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: deviates at [%d]: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestStagedSolveBitIdenticalToMonolithic pins the staged contract on
// every suite matrix: the staged pipeline (AnalyzePattern -> Plan ->
// Factorize -> Solve) reproduces the serial kernel and triangular solve
// on the monolithic System's permuted matrix bit for bit, for both
// kernels.
func TestStagedSolveBitIdenticalToMonolithic(t *testing.T) {
	for _, tm := range repro.TestMatrices() {
		t.Run(tm.Name, func(t *testing.T) {
			a := tm.Build()
			b := stagedRHS(a.N)
			sys, err := repro.Analyze(a)
			if err != nil {
				t.Fatal(err)
			}
			an, err := repro.AnalyzePattern(a)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := an.Plan("wrap", 4, repro.StrategyOptions{})
			if err != nil {
				t.Fatal(err)
			}

			fa, err := pl.Factorize(a, repro.KernelCholesky)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fa.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, got, monolithSolve(t, sys, b, false), "cholesky staged solve")

			fl, err := pl.Factorize(a, repro.KernelLDL)
			if err != nil {
				t.Fatal(err)
			}
			gotL, err := fl.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, gotL, monolithSolve(t, sys, b, true), "ldl staged solve")
		})
	}
}

// TestStagedSolveParallelBitIdenticalToMonolithic pins the parallel
// path on every suite matrix at P in {1, 4, 16}: a block-granular
// staged plan factored by the parallel engine carries the serial
// kernel's factor bit for bit, and Factor.SolveParallel reproduces the
// parallel sweeps over the monolithic block schedule (numeric.Factorize
// followed by exec.ParallelSolve) bit for bit.
func TestStagedSolveParallelBitIdenticalToMonolithic(t *testing.T) {
	opts := repro.StrategyOptions{
		Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4},
	}
	for _, tm := range repro.TestMatrices() {
		t.Run(tm.Name, func(t *testing.T) {
			a := tm.Build()
			b := stagedRHS(a.N)
			sys, err := repro.Analyze(a)
			if err != nil {
				t.Fatal(err)
			}
			an, err := repro.AnalyzePattern(a)
			if err != nil {
				t.Fatal(err)
			}
			chol, err := numeric.Factorize(sys.Permuted, sys.F)
			if err != nil {
				t.Fatal(err)
			}
			pb := make([]float64, a.N)
			for k, old := range sys.Order {
				pb[k] = b[old]
			}
			for _, p := range []int{1, 4, 16} {
				pl, err := an.Plan("block", p, opts)
				if err != nil {
					t.Fatal(err)
				}
				fa, err := pl.FactorizeParallel(a, repro.KernelCholesky)
				if err != nil {
					t.Fatal(err)
				}
				bitEqual(t, fa.Val, chol.Val, fmt.Sprintf("block parallel factor P=%d", p))
				got, err := fa.SolveParallel(b)
				if err != nil {
					t.Fatal(err)
				}
				part := sys.Partition(opts.Part)
				sc := sys.BlockSchedule(part, p)
				px, err := exec.ParallelSolve(chol, sc, pb)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, a.N)
				for k, old := range sys.Order {
					want[old] = px[k]
				}
				bitEqual(t, got, want, fmt.Sprintf("staged parallel solve P=%d", p))
			}
		})
	}
}

// TestStaged2DFactorBitIdenticalToMonolithic pins the 2D path: a staged
// 2D plan factored in parallel carries values bit-identical to the
// serial kernels on the monolithic System's permuted matrix.
func TestStaged2DFactorBitIdenticalToMonolithic(t *testing.T) {
	a := repro.LAP30()
	sys, err := repro.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		t.Fatal(err)
	}
	b := stagedRHS(a.N)
	chol, err := numeric.Factorize(sys.Permuted, sys.F)
	if err != nil {
		t.Fatal(err)
	}
	ldl, err := numeric.FactorizeLDL(sys.Permuted, sys.F)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, 16} {
		pl, err := an.Plan2D("rect2dcyclic", p, repro.StrategyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fa, err := pl.FactorizeParallel(a, repro.KernelCholesky)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, fa.Val, chol.Val, fmt.Sprintf("2D cholesky factor P=%d", p))

		fl, err := pl.FactorizeParallel(a, repro.KernelLDL)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, fl.Val, ldl.Val, fmt.Sprintf("2D ldl factor P=%d", p))

		// The 2D chain engines replay the serial update order, so the
		// staged parallel solve must match the staged *serial* factor's
		// parallel solve bitwise as well (shared content address).
		plSerial, err := an.Plan("wrap", p, repro.StrategyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		faSerial, err := plSerial.Factorize(a, repro.KernelCholesky)
		if err != nil {
			t.Fatal(err)
		}
		if fa.Key != faSerial.Key {
			t.Fatalf("2D chain factor key %s differs from serial key %s", fa.Key, faSerial.Key)
		}
		x2, err := fa.SolveParallel(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := sys.ResidualNorm(x2, b); r > 1e-8 {
			t.Fatalf("2D staged parallel solve residual %g", r)
		}
	}
}

// TestStagedCacheZeroRepeatWork asserts the service contract with store
// counters: a repeat request on the same pattern performs zero symbolic
// and mapping work (analysis and plan hits), new values on a known
// pattern re-run only the numeric stage, and a held Factor solves with
// no store traffic at all.
func TestStagedCacheZeroRepeatWork(t *testing.T) {
	a := repro.Grid9(20, 20)
	b := stagedRHS(a.N)
	cache := repro.NewCache(0)
	opts := repro.StrategyOptions{}

	cold, err := cache.Solve(a, "wrap", 8, opts, repro.KernelCholesky, b)
	if err != nil {
		t.Fatal(err)
	}
	byKind := cache.StatsByKind()
	for _, kind := range []string{"analysis", "plan", "factor"} {
		c := byKind[kind]
		if c.Misses != 1 || c.Hits != 0 {
			t.Fatalf("cold %s counters: %+v, want 1 miss 0 hits", kind, c)
		}
	}

	// Repeat request: every stage hits; the result is bitwise the same.
	warm, err := cache.Solve(a, "wrap", 8, opts, repro.KernelCholesky, b)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, warm, cold, "warm staged solve")
	byKind = cache.StatsByKind()
	for _, kind := range []string{"analysis", "plan", "factor"} {
		c := byKind[kind]
		if c.Misses != 1 || c.Hits != 1 {
			t.Fatalf("warm %s counters: %+v, want 1 miss 1 hit", kind, c)
		}
	}

	// Same pattern, new values: zero symbolic and mapping work — only
	// the factor stage misses.
	a2 := repro.Grid9(20, 20)
	for i := range a2.Val {
		a2.Val[i] *= 2
	}
	if _, err := cache.Solve(a2, "wrap", 8, opts, repro.KernelCholesky, b); err != nil {
		t.Fatal(err)
	}
	byKind = cache.StatsByKind()
	if c := byKind["analysis"]; c.Misses != 1 || c.Hits != 2 {
		t.Fatalf("new-values analysis counters: %+v, want 1 miss 2 hits", c)
	}
	if c := byKind["plan"]; c.Misses != 1 || c.Hits != 2 {
		t.Fatalf("new-values plan counters: %+v, want 1 miss 2 hits", c)
	}
	if c := byKind["factor"]; c.Misses != 2 || c.Hits != 1 {
		t.Fatalf("new-values factor counters: %+v, want 2 misses 1 hit", c)
	}

	// A held Factor performs zero factorization (and zero store) work
	// per solve: counters are untouched by any number of solves.
	an, err := cache.Analysis(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := cache.Plan(an, "wrap", 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := cache.Factor(pl, a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	for i := 0; i < 3; i++ {
		x, err := fa.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, x, cold, "held-factor solve")
	}
	if after := cache.Stats(); after != before {
		t.Fatalf("held-factor solves touched the store: %+v -> %+v", before, after)
	}
}

// TestStagedFactorFromCacheHitBitIdentical pins cache correctness: a
// Factor built through a cache-hit Analysis (second cache, same pattern
// object arriving twice) is bitwise identical to a cold, cache-free
// build.
func TestStagedFactorFromCacheHitBitIdentical(t *testing.T) {
	a := repro.Grid9(18, 18)
	cache := repro.NewCache(0)
	if _, err := cache.Analysis(a); err != nil {
		t.Fatal(err)
	}
	an, err := cache.Analysis(a) // hit
	if err != nil {
		t.Fatal(err)
	}
	if c := cache.StatsByKind()["analysis"]; c.Hits != 1 {
		t.Fatalf("analysis counters %+v, want a hit on the second request", c)
	}
	pl, err := cache.Plan(an, "wrap", 4, repro.StrategyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromHit, err := cache.Factor(pl, a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}

	anCold, err := repro.AnalyzePattern(a)
	if err != nil {
		t.Fatal(err)
	}
	plCold, err := anCold.Plan("wrap", 4, repro.StrategyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := plCold.Factorize(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, fromHit.Val, cold.Val, "factor via cache-hit analysis")
	if fromHit.Key != cold.Key {
		t.Fatalf("factor keys differ: %s vs %s", fromHit.Key, cold.Key)
	}
}

// TestStagedConcurrentMappingAndSolves exercises the service workload
// under the race detector: one shared System and one shared Cache serving
// concurrent strategy mapping and staged solves.
func TestStagedConcurrentMappingAndSolves(t *testing.T) {
	a := repro.LAP30()
	sys, err := repro.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	cache := repro.NewCache(0)
	b := stagedRHS(a.N)
	want := monolithSolve(t, sys, b, false)
	names := []string{"wrap", "block", "contiguous", "blockcyclic"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				name := names[(g+i)%len(names)]
				if _, err := sys.MapStrategy(name, 4+g, repro.StrategyOptions{}); err != nil {
					t.Errorf("MapStrategy(%s): %v", name, err)
					return
				}
				x, err := cache.Solve(a, "wrap", 8, repro.StrategyOptions{}, repro.KernelCholesky, b)
				if err != nil {
					t.Errorf("staged solve: %v", err)
					return
				}
				for k := range x {
					if x[k] != want[k] {
						t.Errorf("goroutine %d: staged solve deviates at [%d]", g, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Misses != 3 {
		t.Fatalf("concurrent staged solves: %d misses, want 3 (one build per stage)", st.Misses)
	}
}
