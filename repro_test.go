package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro"
	"repro/internal/numeric"
)

func TestPipelineEndToEnd(t *testing.T) {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		t.Fatal(err)
	}
	if sys.F.NNZ() < sys.A.NNZ() {
		t.Fatal("factor smaller than matrix")
	}
	part := sys.Partition(repro.PartitionOptions{Grain: 25, MinClusterWidth: 4})
	block := sys.BlockSchedule(part, 16)
	wrap := sys.WrapSchedule(16)
	bt, wt := sys.Traffic(block), sys.Traffic(wrap)
	if bt.Total >= wt.Total {
		t.Errorf("block traffic %d not below wrap %d", bt.Total, wt.Total)
	}
	if block.Imbalance() <= wrap.Imbalance() {
		t.Errorf("block imbalance %.3f not above wrap %.3f (the paper's trade-off)",
			block.Imbalance(), wrap.Imbalance())
	}
}

// stagedFactor runs the staged pipeline up to the serial factor: analyze
// a's pattern under perm (MMD when nil), map it with wrap on 4
// processors and factor.
func stagedFactor(t *testing.T, a *repro.Matrix, perm []int) *repro.Factor {
	t.Helper()
	var an *repro.Analysis
	var err error
	if perm == nil {
		an, err = repro.AnalyzePattern(a)
	} else {
		an, err = repro.AnalyzePatternOrdered(a, perm)
	}
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
	return fa
}

func TestSolveOriginalSystem(t *testing.T) {
	a := repro.Grid9(12, 12)
	sys, err := repro.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64((i*7)%13) - 6
	}
	x, err := stagedFactor(t, a, nil).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := sys.ResidualNorm(x, b); r > 1e-10 {
		t.Errorf("residual %g", r)
	}
}

func TestSolveRejectsBadRHS(t *testing.T) {
	fa := stagedFactor(t, repro.Grid5(3, 3), nil)
	if _, err := fa.Solve(make([]float64, 5)); err == nil {
		t.Fatal("expected length error")
	}
}

// A block plan factored by the parallel engine reproduces the serial
// kernel on the same permuted system bit for bit.
func TestParallelMatchesSequential(t *testing.T) {
	a := repro.Grid9(10, 10)
	sys, err := repro.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("block", 6, repro.StrategyOptions{
		Part: repro.PartitionOptions{Grain: 4, MinClusterWidth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := pl.FactorizeParallel(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	chol, err := numeric.Factorize(sys.Permuted, sys.F)
	if err != nil {
		t.Fatal(err)
	}
	for k := range chol.Val {
		if math.Float64bits(fa.Val[k]) != math.Float64bits(chol.Val[k]) {
			t.Fatalf("value %d differs: %g vs %g", k, fa.Val[k], chol.Val[k])
		}
	}
}

func TestMakespanAPIs(t *testing.T) {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		t.Fatal(err)
	}
	part := sys.Partition(repro.PartitionOptions{})
	sc := sys.BlockSchedule(part, 8)
	bm := sys.BlockMakespan(part, sc)
	wm := sys.WrapMakespan(8)
	if bm.TotalWork != wm.TotalWork || bm.TotalWork != sys.TotalWork() {
		t.Errorf("work totals disagree: %d %d %d", bm.TotalWork, wm.TotalWork, sys.TotalWork())
	}
	if bm.Makespan <= 0 || wm.Makespan <= 0 {
		t.Error("nonpositive makespan")
	}
}

func TestHBRoundTripViaPublicAPI(t *testing.T) {
	m, tm, err := repro.BuildMatrix("dwt512")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.WriteHB(&buf, m, tm.Description, tm.Name); err != nil {
		t.Fatal(err)
	}
	got, hdr, err := repro.ReadHB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.NRow != m.N || got.NNZ() != m.NNZ() {
		t.Errorf("round trip lost data: %+v", hdr)
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	bad := &repro.Matrix{N: 2, ColPtr: []int{0, 1}, RowInd: []int{0}}
	if _, err := repro.Analyze(bad); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestFigure2MatrixSize(t *testing.T) {
	if m := repro.FEGrid5(5); m.N != 41 {
		t.Errorf("FEGrid5(5) has %d unknowns, want 41 (Figure 2)", m.N)
	}
}

func TestAnalyzeOrderedVariants(t *testing.T) {
	a := repro.Grid9(10, 10)
	for _, perm := range [][]int{
		repro.MMDOrder(a), repro.RCMOrder(a), repro.NDOrder(a, 16),
	} {
		sys, err := repro.AnalyzeOrdered(a, perm)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.N)
		b[3] = 1
		x, err := stagedFactor(t, a, perm).Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := sys.ResidualNorm(x, b); r > 1e-9 {
			t.Errorf("residual %g", r)
		}
	}
	if _, err := repro.AnalyzeOrdered(a, []int{0, 1}); err == nil {
		t.Fatal("expected permutation error")
	}
}

func TestPostOrderPermAPI(t *testing.T) {
	a := repro.LAP30()
	perm, err := repro.PostOrderPerm(a, repro.MMDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	sys1, _ := repro.Analyze(a)
	sys2, err := repro.AnalyzeOrdered(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	if sys1.F.NNZ() != sys2.F.NNZ() {
		t.Errorf("postorder changed fill: %d vs %d", sys1.F.NNZ(), sys2.F.NNZ())
	}
}

func TestGreedyScheduleAPI(t *testing.T) {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		t.Fatal(err)
	}
	part := sys.Partition(repro.PartitionOptions{Grain: 25})
	s34 := sys.BlockSchedule(part, 16)
	sgr := sys.BlockScheduleGreedy(part, 16)
	if sgr.Imbalance() > s34.Imbalance() {
		t.Errorf("greedy A %.3f above §3.4 A %.3f on LAP30", sgr.Imbalance(), s34.Imbalance())
	}
	dyn := sys.BlockMakespanDynamic(part, s34)
	sta := sys.BlockMakespan(part, s34)
	if dyn.Makespan > sta.Makespan {
		t.Errorf("dynamic makespan %d above static %d", dyn.Makespan, sta.Makespan)
	}
}

func TestRelaxedPartitionAPI(t *testing.T) {
	a := repro.LAP30()
	perm, err := repro.PostOrderPerm(a, repro.MMDOrder(a))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := repro.AnalyzeOrdered(a, perm)
	if err != nil {
		t.Fatal(err)
	}
	part := sys.Partition(repro.PartitionOptions{Grain: 25, RelaxZeros: 0.1})
	if part.Relax.Merges == 0 {
		t.Error("relaxation produced no merges on postordered LAP30")
	}
	sc := sys.BlockSchedule(part, 16)
	tr := sys.TrafficPart(part, sc)
	if tr.Total <= 0 {
		t.Error("no traffic measured on relaxed partition")
	}
}

func TestSolveParallelEndToEnd(t *testing.T) {
	a := repro.Grid9(14, 14)
	sys, err := repro.Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	an, err := repro.AnalyzePattern(a)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := an.Plan("block", 6, repro.StrategyOptions{
		Part: repro.PartitionOptions{Grain: 16, MinClusterWidth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	fa, err := pl.FactorizeParallel(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	x, err := fa.SolveParallel(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := sys.ResidualNorm(x, b); r > 1e-9 {
		t.Errorf("parallel solve residual %g", r)
	}
	// Agreement with the sequential pipeline: the factors are bitwise
	// equal; the parallel fan-in sweeps sum in a different order.
	serial, err := pl.Factorize(a, repro.KernelCholesky)
	if err != nil {
		t.Fatal(err)
	}
	for k := range serial.Val {
		if math.Float64bits(fa.Val[k]) != math.Float64bits(serial.Val[k]) {
			t.Fatalf("factor value %d: parallel %g vs serial %g", k, fa.Val[k], serial.Val[k])
		}
	}
	want, err := serial.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("component %d: parallel %g vs sequential %g", i, x[i], want[i])
		}
	}
	if _, err := fa.SolveParallel(make([]float64, 3)); err == nil {
		t.Fatal("expected rhs length error")
	}
}

func TestSimulateDAGAPI(t *testing.T) {
	tasks := []repro.Task{
		{ID: 0, Proc: 0, Work: 4},
		{ID: 1, Proc: 1, Work: 4},
		{ID: 2, Proc: 0, Work: 4, Preds: []int32{0, 1}},
	}
	if cp := repro.CriticalPath(tasks); cp != 8 {
		t.Fatalf("critical path %d, want 8", cp)
	}
	st := repro.SimulateDAG(tasks, 2)
	dy := repro.SimulateDAGDynamic(tasks, 2)
	if st.Makespan != 8 || dy.Makespan != 8 {
		t.Fatalf("makespans %d/%d, want 8", st.Makespan, dy.Makespan)
	}
	if st.TotalWork != 12 {
		t.Fatalf("total work %d", st.TotalWork)
	}
}

func TestTrafficPartConsistentWhenUnrelaxed(t *testing.T) {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		t.Fatal(err)
	}
	part := sys.Partition(repro.PartitionOptions{Grain: 25})
	sc := sys.BlockSchedule(part, 16)
	a := sys.Traffic(sc)
	b := sys.TrafficPart(part, sc)
	if a.Total != b.Total {
		t.Fatalf("Traffic %d != TrafficPart %d on unrelaxed partition", a.Total, b.Total)
	}
}

// TestCommMakespanPublicAPI exercises the communication-aware makespan
// surface end to end: a zero CommModel reproduces the compute-only
// simulators exactly, fetch stats conserve the traffic total, and with
// communication charged (alpha > 0) the block scheme beats wrap in
// unified time at large P — the paper's central claim, which neither
// metric shows alone.
func TestCommMakespanPublicAPI(t *testing.T) {
	sys, err := repro.Analyze(repro.LAP30())
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.StrategyOptions{Part: repro.PartitionOptions{Grain: 25, MinClusterWidth: 4}}
	cm := repro.CommModel{Alpha: 2, Beta: 10}
	spans := map[string]map[string]int64{} // strategy -> {"compute","comm"} at P=32
	for _, name := range []string{"block", "wrap"} {
		for _, p := range []int{1, 4, 16, 32} {
			sc, err := sys.MapStrategy(name, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sys.StrategyMakespanComm(opts, sc, repro.CommModel{}), sys.StrategyMakespan(opts, sc); got != want {
				t.Errorf("%s P=%d: zero-model static %+v != compute-only %+v", name, p, got, want)
			}
			if got, want := sys.StrategyMakespanCommDynamic(opts, sc, repro.CommModel{}), sys.StrategyMakespanDynamic(opts, sc); got != want {
				t.Errorf("%s P=%d: zero-model dynamic %+v != compute-only %+v", name, p, got, want)
			}
			tc := sys.StrategyFetchStats(opts, sc)
			if got, want := tc.TotalVol(), sys.StrategyTraffic(opts, sc).Total; got != want {
				t.Errorf("%s P=%d: fetch volumes sum to %d, traffic total %d", name, p, got, want)
			}
			if p == 32 {
				spans[name] = map[string]int64{
					"compute": sys.StrategyMakespanDynamic(opts, sc).Makespan,
					"comm":    sys.StrategyMakespanCommDynamic(opts, sc, cm).Makespan,
				}
			}
		}
	}
	if spans["block"]["comm"] >= spans["wrap"]["comm"] {
		t.Errorf("P=32 unified time: block %d >= wrap %d, want block to win once communication is charged",
			spans["block"]["comm"], spans["wrap"]["comm"])
	}
	// Charging communication must widen block's advantage relative to the
	// compute-only spans (wrap pays for its scattered fetches).
	commRatio := float64(spans["wrap"]["comm"]) / float64(spans["block"]["comm"])
	computeRatio := float64(spans["wrap"]["compute"]) / float64(spans["block"]["compute"])
	if commRatio <= computeRatio {
		t.Errorf("comm model did not widen block's advantage: wrap/block ratio %.3f (comm) vs %.3f (compute)",
			commRatio, computeRatio)
	}
}
