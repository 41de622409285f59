package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/part2d"
	"repro/internal/pipeline"
	"repro/internal/sparse"
	"repro/internal/strategy"
)

const (
	// coldStrategy and coldP map the cold/refactor/warm requests: the
	// paper's wrap mapping at P=16 with strategy.Options{}, the request
	// BenchmarkSolveCached times.
	coldStrategy = "wrap"
	coldP        = 16
	// parP is the processor count of the par class. It equals the core
	// count of the two-core reference box, so the engine never runs more
	// workers than cores.
	parP = 2
	// censusP is the processor count of the traced run's mapper census.
	censusP = 4
	// setupReps is how often a run times its set-up; setup_s is the
	// median.
	setupReps = 5
)

var (
	// prodOpts is the production partition (grain 25, width 4) of the
	// bench ledger's 1D rows; 2D mappers take strategy.Options{} as there.
	prodOpts = strategy.Options{Part: core.Options{Grain: 25, MinClusterWidth: 4}}
	// commModel is the ledger's communication model, α=2 and β=10.
	commModel = exec.CommModel{Alpha: 2, Beta: 10}
	// sweepProcs covers the ledger's processor sweep (4, 16, 32, which
	// BENCH_baseline.json holds) plus P=64.
	sweepProcs = []int{4, 16, 32, 64}
)

// matrix is one generated input of a workload.
type matrix struct {
	name string
	a    *sparse.Matrix
}

// shifted returns a with s added to every diagonal entry: the same
// pattern with new values, still SPD for s > 0. Each column stores its
// diagonal first.
func (m *matrix) shifted(s float64) *sparse.Matrix {
	val := append([]float64(nil), m.a.Val...)
	for j := 0; j < m.a.N; j++ {
		val[m.a.ColPtr[j]] += s
	}
	return &sparse.Matrix{N: m.a.N, ColPtr: m.a.ColPtr, RowInd: m.a.RowInd, Val: val}
}

// cellSpec is one mapper at one processor count; a sweep pass applies
// every cellSpec of the workload to every matrix.
type cellSpec struct {
	mapper string
	dim2   bool
	p      int
}

// workload fixes the inputs and the class mix of one benchmark workload.
// Every workload runs all five operation classes, so every end-to-end
// metric is measured on each; the mix and the matrices set which layers
// do the work.
type workload struct {
	name, why string
	matrices  func() []*matrix
	// parMappers are the 2D mappers of the par class (at parP).
	parMappers []string
	cells      []cellSpec
	// reqReps and parReps are how often each request and par spec recurs
	// in one cycle; a cycle also holds exactly one sweep pass.
	reqReps, parReps int
}

func suiteMatrices() []*matrix {
	var out []*matrix
	for _, tm := range gen.Suite() {
		out = append(out, &matrix{name: tm.Name, a: tm.Build()})
	}
	return out
}

// native2D lists the 2D mappers of the part2d registry except col2d,
// which lifts 1D schedules the 1D cells already cover.
func native2D() []string {
	var out []string
	for _, n := range part2d.Names2D() {
		if n != "col2d" {
			out = append(out, n)
		}
	}
	return out
}

func crossCells(names1D, names2D []string, procs []int) []cellSpec {
	var out []cellSpec
	for _, p := range procs {
		for _, n := range names1D {
			out = append(out, cellSpec{mapper: n, p: p})
		}
		for _, n := range names2D {
			out = append(out, cellSpec{mapper: n, dim2: true, p: p})
		}
	}
	return out
}

// requestCells are the request path's own two plans, evaluated by the
// traffic simulator and the makespan simulators.
var requestCells = []cellSpec{{mapper: "wrap", p: coldP}, {mapper: "rect2dcyclic", dim2: true, p: parP}}

// gridSides size the grid workload: Grid9 grids of 40×40, 48×48 and
// 56×56 (n 1600-3136), one picked per request by the seed. On each, a cold
// request is led by fetch attribution and element work. The sizes are far
// enough apart that a class's p90 falls inside the largest grid's bulk,
// not in the far tail of one grid, which on the two-core reference box
// moves from run to run with scattered interference (host activity,
// collector cycles): the p90s of ten single-grid runs spread by up to a
// third, their medians by under a tenth.
var gridSides = []int{40, 48, 56}

func workloads() []*workload {
	return []*workload{
		{
			name:       "paper-requests",
			why:        "the five Table-1 matrices (n 512-1138): fixed per-request costs (hashing, engine task overhead, fetch attribution) dominate",
			matrices:   suiteMatrices,
			parMappers: []string{"rect2dcyclic"},
			cells:      requestCells,
			reqReps:    4, parReps: 4,
		},
		{
			name: "grid-requests",
			why:  "three generated 9-point grids (n 1600-3136): compute dominates (fetch attribution, element work, numeric factor and solve)",
			matrices: func() []*matrix {
				var out []*matrix
				for _, k := range gridSides {
					out = append(out, &matrix{name: fmt.Sprintf("GRID9-%dx%d", k, k), a: gen.Grid9(k, k)})
				}
				return out
			},
			parMappers: []string{"rect2dcyclic"},
			cells:      requestCells,
			reqReps:    4, parReps: 4,
		},
		{
			name:       "mapper-sweep",
			why:        "the paper's study: every 1D strategy and native 2D mapper at P 4-64 on Table-1, so mapping, partitioning, traffic and simulators do the work",
			matrices:   suiteMatrices,
			parMappers: native2D(),
			cells:      crossCells(strategy.Names(), native2D(), sweepProcs),
			reqReps:    8, parReps: 3,
		},
	}
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

type parSpec struct {
	mat    int
	mapper string
}

type cellRef struct {
	mat int
	cellSpec
}

func (w *workload) parSpecs(nmat int) []parSpec {
	var out []parSpec
	for m := 0; m < nmat; m++ {
		for _, s := range w.parMappers {
			out = append(out, parSpec{m, s})
		}
	}
	return out
}

func (w *workload) cellRefs(nmat int) []cellRef {
	var out []cellRef
	for m := 0; m < nmat; m++ {
		for _, c := range w.cells {
			out = append(out, cellRef{m, c})
		}
	}
	return out
}

// class is an operation class of the closed-loop client.
type class int

const (
	classCold class = iota
	classRefactor
	classWarm
	classPar
	classCell
	numClasses
)

var classNames = [numClasses]string{"cold", "refactor", "warm", "par", "cell"}

func (c class) String() string { return classNames[c] }

// item is one operation of the request sequence. Every random input of
// the operation is drawn here, from the workload seed: the spec it
// targets (the matrix of a cold, refactor or warm request, the par spec
// or the cell), the diagonal shift of a refactor and the seed of its
// right-hand side.
type item struct {
	class class
	spec  int
	shift float64
	rhs   int64
}

// cycle draws the next cycle of the sequence: reqReps copies of cold,
// refactor and warm per matrix, parReps par requests per par spec
// and one complete sweep pass, shuffled by rng. Each cycle covers every
// spec equally, so the class and matrix mix does not depend on the seed.
func (w *workload) cycle(rng *rand.Rand, nMat, nPar, nCell int) []item {
	var items []item
	for r := 0; r < w.reqReps; r++ {
		for s := 0; s < nMat; s++ {
			items = append(items, item{class: classCold, spec: s}, item{class: classRefactor, spec: s}, item{class: classWarm, spec: s})
		}
	}
	for r := 0; r < w.parReps; r++ {
		for s := 0; s < nPar; s++ {
			items = append(items, item{class: classPar, spec: s})
		}
	}
	for c := 0; c < nCell; c++ {
		items = append(items, item{class: classCell, spec: c})
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		items[i].shift = 0.05 + rng.Float64()
		items[i].rhs = rng.Int63()
	}
	return items
}

// rhsVector is the right-hand side drawn from seed.
func rhsVector(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

// state is what set-up builds and the measured loop uses.
type state struct {
	mats  []*matrix
	pars  []parSpec
	cells []cellRef
	// long is the workload's long-lived, capacity-bounded cache, and
	// recent[m] the latest values of matrix m inserted into it.
	long   *pipeline.Cache
	recent []*sparse.Matrix
	// parPlans[i] is the plan of par spec i.
	parPlans []*pipeline.Plan
	// sys[m] is the current sweep pass's fresh analysis of matrix m.
	sys []*strategy.Sys
}

// capacity bounds the long-lived cache. Each matrix's analysis, plan and
// latest factor must stay resident between two requests on it while
// refactors insert factors and evict older ones: a matrix recurs within
// two cycles, which insert at most 2·reqReps·nmat factors. One spare entry
// per matrix is added on top.
func (w *workload) capacity(nmat int) int {
	return 3*nmat + 2*w.reqReps*nmat + nmat
}

// setup generates the matrices, pre-warms the long-lived cache with a
// request on every matrix, builds and exercises the par plans and builds the first
// sweep pass's analyses.
func setup(w *workload) (*state, error) {
	st := &state{mats: w.matrices()}
	nm := len(st.mats)
	st.pars, st.cells = w.parSpecs(nm), w.cellRefs(nm)
	st.long = pipeline.NewCache(w.capacity(nm))
	st.recent = make([]*sparse.Matrix, nm)
	for i, m := range st.mats {
		if _, err := st.long.Solve(m.a, coldStrategy, coldP, strategy.Options{}, pipeline.Cholesky, rhsVector(1, m.a.N)); err != nil {
			return nil, fmt.Errorf("pre-warming %s: %w", m.name, err)
		}
		st.recent[i] = m.a
	}
	for _, ps := range st.pars {
		m := st.mats[ps.mat]
		an, err := st.long.Analysis(m.a)
		if err != nil {
			return nil, fmt.Errorf("analysis of %s: %w", m.name, err)
		}
		pl, err := an.Plan2D(ps.mapper, parP, strategy.Options{})
		if err != nil {
			return nil, fmt.Errorf("par plan %s on %s: %w", ps.mapper, m.name, err)
		}
		if runtime.GOMAXPROCS(0) >= parP {
			if _, err := pl.FactorizeParallel(m.a, pipeline.Cholesky); err != nil {
				return nil, fmt.Errorf("par warm-up %s on %s: %w", ps.mapper, m.name, err)
			}
		}
		st.parPlans = append(st.parPlans, pl)
	}
	return st, st.freshPass()
}

// freshPass rebuilds the sweep analyses, so each pass pays
// strategy.Sys's partition cache once, as a real study does.
func (st *state) freshPass() error {
	st.sys = make([]*strategy.Sys, len(st.mats))
	for i, m := range st.mats {
		an, err := pipeline.NewAnalysis(m.a)
		if err != nil {
			return fmt.Errorf("sweep analysis of %s: %w", m.name, err)
		}
		st.sys[i] = an.Sys()
	}
	return nil
}

// timedSetup runs setup between two host speed probes and returns the
// state and its duration in seconds.
func timedSetup(w *workload, speed *speedTrack) (*state, sample, error) {
	speed.measure()
	from := speed.now()
	st, err := setup(w)
	to := speed.now()
	speed.measure()
	return st, sample{from, to, (to - from).Seconds()}, err
}
