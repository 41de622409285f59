package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/part2d"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/strategy"
	"repro/internal/symbolic"
	"repro/internal/traffic"
)

// span is one timed interval of the traced run. Stage spans wrap the four
// pipeline calls of a request; layer spans are re-runs of one layer's
// public function on the stage's input, with the stage as parent.
type span struct {
	Req    int    `json:"req"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the traced run's spans and per-layer samples in memory.
type tracer struct {
	t0      time.Time
	spans   []span
	req     int
	class   string
	flips   [numClasses]int
	samples map[string][]float64
	// plainMs and tracedMs are the per-class latencies of plain requests
	// and the stage-span totals of traced ones; allocMB the bytes plain
	// operations allocate.
	plainMs, tracedMs, allocMB [numClasses][]float64
	hashBytes, hashSec         float64
	fitter                     *calib.Fitter
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, fitter: calib.NewFitter()}
}

// begin starts the spans of a new operation of class c.
func (t *tracer) begin(c class) {
	t.req++
	t.class = c.String()
}

func (t *tracer) flip(c class) bool {
	t.flips[c]++
	return t.flips[c]%2 == 0
}

func (t *tracer) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

func (t *tracer) plain(c class, d time.Duration, mb float64) {
	t.plainMs[c] = append(t.plainMs[c], ms(d))
	t.allocMB[c] = append(t.allocMB[c], mb)
}

func (t *tracer) record(name, parent string, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Req: t.req, Class: t.class, Name: name, Parent: parent, Start: s, End: s + d.Nanoseconds()})
}

// sample records one timed call as a span and a sample of the named
// metric.
func (t *tracer) sample(name, parent string, start time.Time, d time.Duration) {
	t.record(name, parent, start, d)
	t.add(name, ms(d))
}

// time runs f and, on a tracer, records it as a span and a sample of the
// named metric. A nil tracer just runs f, so untraced callers share the
// code path.
func (t *tracer) time(name string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.sample(name, "", start, time.Since(start))
}

// stageRun is one stage span of a traced request.
type stageRun struct {
	d    time.Duration
	miss bool
	kids time.Duration
}

var stageNames = [4]string{"analysis", "plan", "factor", "solve"}

// request serves a request through the four stage calls Cache.Solve
// makes, timing each as a stage span, then re-runs each layer the stages
// ran and checks the re-run reproduces the stage's artifact bit for bit.
func (t *tracer) request(c class, cache *pipeline.Cache, in *solveInput) ([]float64, time.Duration, error) {
	t.begin(c)
	if c == classCold {
		cache = pipeline.NewCache(0)
	}
	var st [4]stageRun
	stage := func(i int, f func() error) error {
		m0 := cache.Stats().Misses
		start := time.Now()
		err := f()
		st[i].d = time.Since(start)
		t.record("pipeline."+stageNames[i], "", start, st[i].d)
		st[i].miss = cache.Stats().Misses > m0
		return err
	}
	var an *pipeline.Analysis
	var pl *pipeline.Plan
	var fa *pipeline.Factor
	var x []float64
	err := stage(0, func() (err error) { an, err = cache.Analysis(in.a); return err })
	if err == nil {
		err = stage(1, func() (err error) { pl, err = cache.Plan(an, coldStrategy, coldP, strategy.Options{}); return err })
	}
	if err == nil {
		err = stage(2, func() (err error) { fa, err = cache.Factor(pl, in.a, pipeline.Cholesky); return err })
	}
	if err == nil {
		err = stage(3, func() (err error) { x, err = fa.Solve(in.b); return err })
	}
	total := st[0].d + st[1].d + st[2].d + st[3].d
	if err != nil {
		return nil, total, err
	}
	t.tracedMs[c] = append(t.tracedMs[c], ms(total))
	if err := t.layers(&st, in, an, pl, fa, x); err != nil {
		return nil, total, fmt.Errorf("traced-run fidelity: %w", err)
	}
	for i, s := range st {
		t.add(fmt.Sprintf("pipeline.%s_ms@%s", stageNames[i], c), ms(s.d))
		t.add(fmt.Sprintf("pipeline.%s_self_ms@%s", stageNames[i], c), ms(s.d-s.kids))
	}
	if c == classWarm {
		t.add("pipeline.lookup_ms", ms(st[0].d+st[1].d+st[2].d))
	}
	return x, total, nil
}

// layers re-runs, on the request's input, every layer call the stages
// made: hashing always, and the builds of the stages that missed.
func (t *tracer) layers(st *[4]stageRun, in *solveInput, an *pipeline.Analysis, pl *pipeline.Plan, fa *pipeline.Factor, x []float64) error {
	child := func(i int, name string, f func()) time.Duration {
		start := time.Now()
		f()
		d := time.Since(start)
		t.sample(name, "pipeline."+stageNames[i], start, d)
		st[i].kids += d
		return d
	}
	a := in.a

	d := child(0, "artifact.pattern_hash_ms", func() { artifact.PatternSum(a) })
	t.hashed(8*(len(a.ColPtr)+len(a.RowInd)), d)
	if pipeline.AnalysisKey(a) != an.Key {
		return fmt.Errorf("analysis key differs from the stage's")
	}
	if st[0].miss {
		var perm []int
		child(0, "order.mmd_ms", func() { perm = order.MMD(a) })
		if !equal(perm, an.Perm) {
			return fmt.Errorf("order.MMD differs from the analysis' permutation")
		}
		// The analysis permutes an index-valued copy of the pattern.
		iv := make([]float64, a.NNZ())
		for i := range iv {
			iv[i] = float64(i)
		}
		idx := &sparse.Matrix{N: a.N, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: iv}
		var pidx *sparse.Matrix
		var err error
		child(0, "sparse.permute_ms", func() { pidx, err = idx.Permute(perm) })
		if err != nil {
			return err
		}
		if !equal(pidx.ColPtr, an.Permuted.ColPtr) || !equal(pidx.RowInd, an.Permuted.RowInd) {
			return fmt.Errorf("sparse.Permute differs from the analysis' permuted pattern")
		}
		pm := &sparse.Matrix{N: pidx.N, ColPtr: pidx.ColPtr, RowInd: pidx.RowInd}
		var f *symbolic.Factor
		child(0, "symbolic.analyze_ms", func() { f = symbolic.Analyze(pm) })
		if !equal(f.ColPtr, an.F.ColPtr) || !equal(f.RowInd, an.F.RowInd) || !equal(f.Parent, an.F.Parent) {
			return fmt.Errorf("symbolic.Analyze differs from the analysis' factor F")
		}
		var ops *model.Ops
		child(0, "model.ops_ms", func() { ops = model.NewOps(f) })
		var ew []int64
		child(0, "model.elemwork_ms", func() { ew = model.ElementWork(ops) })
		if !equal(ew, an.ElemWork) {
			return fmt.Errorf("model.ElementWork differs from the analysis' ElemWork")
		}
		t.add("order.nnz_l", float64(an.F.NNZ()))
		t.add("model.work", float64(an.Total))
		t.add("model.updates", float64(model.CountUpdates(an.F)))
	}

	if st[1].miss {
		sys := an.Sys()
		opts := strategy.Options{}
		var sc *sched.Schedule
		var err error
		child(1, "strategy.map_ms."+coldStrategy, func() { sc, err = strategy.Map(coldStrategy, sys, coldP, opts) })
		if err != nil {
			return err
		}
		if !equal(sc.ElemProc, pl.S1.ElemProc) || !equal(sc.UnitProc, pl.S1.UnitProc) {
			return fmt.Errorf("strategy.Map differs from the plan's schedule")
		}
		var tasks []exec.Task
		child(1, "strategy.tasks_ms", func() { tasks = strategy.Tasks(sys, opts, sc) })
		if !equalTasks(tasks, pl.Tasks) {
			return fmt.Errorf("strategy.Tasks differs from the plan's task graph")
		}
		var tc *traffic.TaskComm
		child(1, "traffic.fetch_ms", func() { tc = strategy.FetchStats(sys, opts, sc) })
		if !equal(tc.Vol, pl.Fetch.Vol) || !equal(tc.Msgs, pl.Fetch.Msgs) {
			return fmt.Errorf("strategy.FetchStats differs from the plan's Fetch")
		}
	}

	d = child(2, "artifact.values_hash_ms", func() { artifact.ValuesSum(a) })
	t.hashed(8*len(a.Val), d)
	if pl.FactorKey(pipeline.Cholesky, a, false) != fa.Key {
		return fmt.Errorf("factor key differs from the stage's")
	}
	if st[2].miss {
		var pv []float64
		var err error
		child(2, "pipeline.permute_values_ms", func() { pv, err = an.PermuteValues(a) })
		if err != nil {
			return err
		}
		pm := &sparse.Matrix{N: an.Permuted.N, ColPtr: an.Permuted.ColPtr, RowInd: an.Permuted.RowInd, Val: pv}
		var ch *numeric.Cholesky
		d := child(2, "numeric.factor_ms", func() { ch, err = numeric.Factorize(pm, an.F) })
		if err != nil {
			return err
		}
		if q := firstBitDiff(ch.Val, fa.Val); q >= 0 {
			return fmt.Errorf("numeric.Factorize differs from the stage's factor at %d", q)
		}
		t.add("numeric.factor_gwork_per_s", float64(an.Total)/float64(d.Nanoseconds()))
	}

	pb := make([]float64, len(in.b))
	for k, old := range an.Perm {
		pb[k] = in.b[old]
	}
	var px []float64
	d = child(3, "numeric.solve_ms", func() { px = (&numeric.Cholesky{F: fa.F, Val: fa.Val}).Solve(pb) })
	for k, old := range an.Perm {
		if px[k] != x[old] {
			return fmt.Errorf("numeric solve differs from the stage's solution at %d", old)
		}
	}
	// Bytes of L the two sweeps read, computed from array sizes: values
	// and row indices of every nonzero plus the column pointers, twice.
	bytes := 2 * (16*fa.F.NNZ() + 8*(fa.F.N+1))
	t.add("numeric.solve_gb_per_s", float64(bytes)/float64(d.Nanoseconds()))
	return nil
}

func (t *tracer) hashed(bytes int, d time.Duration) {
	t.hashBytes += float64(bytes)
	t.hashSec += d.Seconds()
}

// engine re-runs the par request's factorization through
// exec.MeasureFactorize on the plan's own task graph, aggregates its task
// events with obs.RealProfile and feeds them to the calib fit.
func (t *tracer) engine(pl *pipeline.Plan, a *sparse.Matrix, fs *pipeline.Factor) error {
	t.begin(classPar)
	an := pl.An
	pm, err := an.PermutedWithValues(a)
	if err != nil {
		return err
	}
	tasks, elemTask := part2d.Tasks(an.Ops, an.ElemWork, pl.S2)
	if !equalTasks(tasks, pl.Tasks) {
		return fmt.Errorf("traced-run fidelity: part2d.Tasks differs from the plan's task graph")
	}
	start := time.Now()
	meas, err := exec.MeasureFactorize(pm, an.F, pl.P, tasks, elemTask, exec.MeasureOptions{Repeats: 1})
	t.record("exec.MeasureFactorize", "", start, time.Since(start))
	if err != nil {
		return err
	}
	if q := firstBitDiff(meas.Factor.Val, fs.Val); q >= 0 {
		return fmt.Errorf("traced-run fidelity: engine factor differs from the serial factor at %d", q)
	}
	prof, err := obs.RealProfile(meas.Events, pl.P)
	if err != nil {
		return err
	}
	t.add("exec.par_busy_ms", float64(prof.Busy())/1e6)
	t.add("exec.par_stall_ms", float64(prof.Stall())/1e6)
	t.add("exec.par_idle_ms", float64(prof.Idle())/1e6)
	t.add("exec.par_tasks", float64(len(tasks)))
	t.add("exec.ns_per_task", float64(meas.ParallelNs)*float64(pl.P)/float64(len(tasks)))
	return t.fitter.Add(meas.Events, tasks, pl.Fetch)
}

// census times, once per traced run on the workload's first matrix at
// censusP, every registered mapper the workload's cells do not run, so
// each mapper's per-layer metric is measured on every workload. It also
// counts the searching mappers' trials and times core.NewPartition on
// every matrix with the production options.
func (t *tracer) census(w *workload, st *state) error {
	t.class = "census"
	inCells := map[string]bool{}
	for _, c := range w.cells {
		inCells[c.mapper] = true
	}
	an, err := pipeline.NewAnalysis(st.mats[0].a)
	if err != nil {
		return err
	}
	sys := an.Sys()
	tel := &obs.SearchTelemetry{}
	for _, name := range strategy.Names() {
		opts := prodOpts
		opts.Search = tel
		start := time.Now()
		if _, err := strategy.Map(name, sys, censusP, opts); err != nil {
			return err
		}
		if d := time.Since(start); !inCells[name] {
			t.sample("strategy.map_ms."+name, "census", start, d)
		}
	}
	for _, name := range native2D() {
		start := time.Now()
		if _, err := part2d.Map2D(name, sys, censusP, strategy.Options{Search: tel}); err != nil {
			return err
		}
		if d := time.Since(start); !inCells[name] {
			t.sample("part2d.map_ms."+name, "census", start, d)
		}
	}
	t.add("strategy.search_trials", float64(tel.Trials))
	for _, s := range st.sys {
		t.time("core.partition_ms", func() { core.NewPartition(s.F, prodOpts.Part) })
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// residentMB measures the heap the long-lived cache holds: live heap
// after a collection, minus live heap once the cache is dropped.
func residentMB(st *state) float64 {
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	st.long = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	return (float64(with.HeapAlloc) - float64(without.HeapAlloc)) / (1 << 20)
}
