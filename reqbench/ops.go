package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/part2d"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/strategy"
)

const (
	// residualTol bounds ‖Ax−b‖/‖b‖ of every solve.
	residualTol = 1e-10
	// parSolveTol bounds ‖x_par−x_serial‖/‖x_serial‖.
	parSolveTol = 1e-12
)

// config holds what a run takes from its caller.
type config struct {
	seed     int64
	duration time.Duration
	trace    bool
	baseline map[baseKey]baseRow
	// corrupt flips a bit of every solution and parallel factor before it
	// is checked; tests use it to show the checks count failures.
	corrupt bool
	log     io.Writer
}

// passResult is one complete sweep pass.
type passResult struct {
	cells int
	// cellTimes are the cells' durations in seconds.
	cellTimes []sample
	failed    bool
	msgs      int64
	// traffic, span and static hold each cell's traffic total and dynamic
	// and static comm-aware makespans, in cell order.
	traffic, span, static []int64
}

// runner executes one workload's request sequence.
type runner struct {
	w   *workload
	cfg config
	st  *state

	// lat holds the samples of the run's complete cycles: per class the
	// latencies in ms (a failed operation is +Inf), and under
	// "cold_alloc_mb" the MB each cold request allocated. pending holds
	// those of the current cycle and joins lat when the cycle completes,
	// so the samples cover every spec equally, whatever the seed; the
	// cycle the deadline cuts is still checked and counted, but not
	// sampled.
	lat, pending map[string][]sample
	attempted    int
	failed       int
	passes       []passResult
	cur          passResult
	parCount     int
	setupS       []sample    // set-up durations in seconds
	speed        *speedTrack // the run's clock and host speed probes
	tr           *tracer     // nil when untraced
}

// sample is one measured value and the interval of the run's clock it was
// measured in.
type sample struct {
	from, to time.Duration
	v        float64
}

// values are the raw values of xs.
func values(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v
	}
	return out
}

func newRunner(w *workload, cfg config, st *state, speed *speedTrack) *runner {
	r := &runner{w: w, cfg: cfg, st: st, speed: speed, lat: map[string][]sample{}, pending: map[string][]sample{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.cur = r.newPass()
	return r
}

func (r *runner) newPass() passResult {
	n := len(r.st.cells)
	return passResult{traffic: make([]int64, n), span: make([]int64, n), static: make([]int64, n)}
}

func (r *runner) sample(name string, d time.Duration, err error) {
	v := math.Inf(1)
	if err == nil {
		v = ms(d)
	}
	to := r.speed.now()
	r.pending[name] = append(r.pending[name], sample{to - d, to, v})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// loop runs cycles of the request sequence until the duration has passed,
// never stopping before the first cycle is complete, so every class and
// one full sweep pass are always measured.
//
// It also repeats the set-up until it has been timed setupReps times. The
// repeats are spread over the run, so setup_s, like the request classes,
// samples the machine across the whole run and not only the moment the
// process started; the time they take extends the run.
func (r *runner) loop() error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	start := time.Now()
	deadline := start.Add(r.cfg.duration)
	// resetup times one more set-up when the next one is due, or when
	// force is set.
	resetup := func(force bool) error {
		k := len(r.setupS)
		if k >= setupReps || !force && time.Now().Before(start.Add(time.Duration(k)*r.cfg.duration/setupReps)) {
			return nil
		}
		_, d, err := timedSetup(r.w, r.speed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, d)
		deadline = deadline.Add(d.to - d.from)
		return nil
	}
cycles:
	for cyc := 0; ; cyc++ {
		if cyc > 0 {
			if err := r.st.freshPass(); err != nil {
				return err
			}
		}
		items := r.w.cycle(rng, len(r.st.mats), len(r.st.pars), len(r.st.cells))
		for _, it := range items {
			if cyc > 0 && time.Now().After(deadline) {
				break cycles
			}
			if err := resetup(false); err != nil {
				return err
			}
			r.speed.maybe()
			r.do(it)
		}
		r.passes = append(r.passes, r.cur)
		r.cur = r.newPass()
		for k, xs := range r.pending {
			r.lat[k] = append(r.lat[k], xs...)
		}
		r.pending = map[string][]sample{}
		if time.Now().After(deadline) {
			break
		}
	}
	for len(r.setupS) < setupReps {
		if err := resetup(true); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) do(it item) {
	r.attempted++
	var err error
	switch it.class {
	case classCold:
		err = r.cold(it)
	case classRefactor:
		err = r.refactor(it)
	case classWarm:
		err = r.warm(it)
	case classPar:
		err = r.par(it)
	case classCell:
		err = r.cell(it)
	}
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(r.cfg.log, "reqbench: %s op failed: %v\n", it.class, err)
		}
	}
}

// checkSolve verifies the relative residual of x.
func (r *runner) checkSolve(m *matrix, in *solveInput, x []float64) error {
	if r.cfg.corrupt {
		x[0] = math.Float64frombits(math.Float64bits(x[0]) ^ 1<<40)
	}
	if res := residual(in, x); !(res <= residualTol) {
		return fmt.Errorf("%s: relative residual %.3g > %g", m.name, res, residualTol)
	}
	return nil
}

// request serves one cold, refactor or warm request, plainly or through
// the traced stage calls. A traced run alternates plain and traced
// requests per class, so the plain ones give the untraced median the
// tracing overhead is taken against.
func (r *runner) request(c class, cache *pipeline.Cache, in *solveInput) ([]float64, time.Duration, error) {
	if r.tr != nil && r.tr.flip(c) {
		return r.tr.request(c, cache, in)
	}
	measureAlloc := r.tr != nil || c == classCold
	var ms0 runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	if c == classCold {
		cache = pipeline.NewCache(0)
	}
	x, err := cache.Solve(in.a, coldStrategy, coldP, strategy.Options{}, pipeline.Cholesky, in.b)
	d := time.Since(start)
	if measureAlloc {
		mb := allocMB(&ms0)
		if c == classCold {
			r.pending["cold_alloc_mb"] = append(r.pending["cold_alloc_mb"], sample{v: mb})
		}
		if r.tr != nil {
			r.tr.plain(c, d, mb)
		}
	}
	return x, d, err
}

func allocMB(before *runtime.MemStats) float64 {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

func (r *runner) cold(it item) error {
	m := r.st.mats[it.spec]
	in := &solveInput{a: m.a, b: rhsVector(it.rhs, m.a.N)}
	x, d, err := r.request(classCold, nil, in)
	if err == nil {
		err = r.checkSolve(m, in, x)
	}
	r.sample("cold", d, err)
	return err
}

func (r *runner) refactor(it item) error {
	m := r.st.mats[it.spec]
	in := &solveInput{a: m.shifted(it.shift), b: rhsVector(it.rhs, m.a.N)}
	before := r.st.long.StatsByKind()
	x, d, err := r.request(classRefactor, r.st.long, in)
	if err == nil {
		after := r.st.long.StatsByKind()
		if miss := after["analysis"].Misses - before["analysis"].Misses + after["plan"].Misses - before["plan"].Misses; miss != 0 {
			err = fmt.Errorf("%s: refactor missed analysis or plan %d times", m.name, miss)
		} else if f := after["factor"].Misses - before["factor"].Misses; f != 1 {
			err = fmt.Errorf("%s: refactor built %d factors, want 1", m.name, f)
		}
	}
	if err == nil {
		err = r.checkSolve(m, in, x)
	}
	if err == nil {
		r.st.recent[it.spec] = in.a
	}
	r.sample("refactor", d, err)
	return err
}

func (r *runner) warm(it item) error {
	m := r.st.mats[it.spec]
	in := &solveInput{a: r.st.recent[it.spec], b: rhsVector(it.rhs, m.a.N)}
	before := r.st.long.Stats().Misses
	x, d, err := r.request(classWarm, r.st.long, in)
	if err == nil {
		if miss := r.st.long.Stats().Misses - before; miss != 0 {
			err = fmt.Errorf("%s: warm request missed the store %d times", m.name, miss)
		}
	}
	if err == nil {
		err = r.checkSolve(m, in, x)
	}
	r.sample("warm", d, err)
	return err
}

var errFewProcs = errors.New("GOMAXPROCS is below the par class's processor count")

// par runs the engine class: FactorizeParallel against the serial
// Factorize on the same plan and values, and SolveParallel against Solve,
// alternating which side goes first.
func (r *runner) par(it item) error {
	ps := r.st.pars[it.spec]
	pl := r.st.parPlans[it.spec]
	m := r.st.mats[ps.mat]
	in := &solveInput{a: m.a, b: rhsVector(it.rhs, m.a.N)}
	r.parCount++
	var ms0 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	var dp, ds, dsp, dss time.Duration
	err := func() error {
		if g := runtime.GOMAXPROCS(0); g < parP {
			return fmt.Errorf("%w: GOMAXPROCS=%d, P=%d", errFewProcs, g, parP)
		}
		var fp, fs *pipeline.Factor
		var err1, err2 error
		parallel := func() {
			start := time.Now()
			fp, err1 = pl.FactorizeParallel(in.a, pipeline.Cholesky)
			dp = time.Since(start)
		}
		serial := func() {
			start := time.Now()
			fs, err2 = pl.Factorize(in.a, pipeline.Cholesky)
			ds = time.Since(start)
		}
		if r.parCount%2 == 0 {
			parallel()
			serial()
		} else {
			serial()
			parallel()
		}
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if r.cfg.corrupt {
			fp.Val[0] = math.Float64frombits(math.Float64bits(fp.Val[0]) ^ 1)
		}
		if q := firstBitDiff(fp.Val, fs.Val); q >= 0 {
			return fmt.Errorf("%s: parallel factor differs from serial at %d", m.name, q)
		}
		var xp, xs []float64
		solvePar := func() {
			start := time.Now()
			xp, err1 = fp.SolveParallel(in.b)
			dsp = time.Since(start)
		}
		solveSer := func() {
			start := time.Now()
			xs, err2 = fs.Solve(in.b)
			dss = time.Since(start)
		}
		if r.parCount%2 == 0 {
			solvePar()
			solveSer()
		} else {
			solveSer()
			solvePar()
		}
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		var mb float64
		if r.tr != nil {
			mb = allocMB(&ms0)
		}
		if d := relDiff(xp, xs); !(d <= parSolveTol) {
			return fmt.Errorf("%s: SolveParallel differs from Solve by %.3g relative", m.name, d)
		}
		if err := r.checkSolve(m, in, xp); err != nil {
			return err
		}
		if err := r.checkSolve(m, in, xs); err != nil {
			return err
		}
		if r.tr != nil {
			r.tr.plain(classPar, dp+ds+dsp+dss, mb)
			return r.tr.engine(pl, in.a, fs)
		}
		return nil
	}()
	r.sample("par_factor", dp, err)
	r.sample("par_serial", ds, err)
	r.sample("par_solve", dsp, err)
	r.sample("par_serial_solve", dss, err)
	return err
}

// cellOut is what one sweep cell computes.
type cellOut struct {
	traffic, fetch, msgs, span, static int64
}

// cell maps one matrix with one mapper, computes its traffic and fetch
// attribution, and runs the comm-aware static and dynamic makespan
// simulators.
func (r *runner) cell(it item) error {
	ref := r.st.cells[it.spec]
	m := r.st.mats[ref.mat]
	sys := r.st.sys[ref.mat]
	var ms0 runtime.MemStats
	if r.tr != nil {
		r.tr.begin(classCell)
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	out, err := runCell(sys, ref.cellSpec, r.tr)
	d := time.Since(start)
	if r.tr != nil {
		r.tr.plain(classCell, d, allocMB(&ms0))
	}
	if err == nil {
		err = r.checkCell(m, ref, it.spec, out)
	}
	to := r.speed.now()
	r.cur.cells++
	r.cur.cellTimes = append(r.cur.cellTimes, sample{to - d, to, d.Seconds()})
	r.cur.msgs += out.msgs
	r.cur.traffic[it.spec], r.cur.span[it.spec], r.cur.static[it.spec] = out.traffic, out.span, out.static
	if err != nil {
		r.cur.failed = true
	}
	return err
}

// runCell is one sweep cell. With a tracer it times each layer call.
func runCell(sys *strategy.Sys, c cellSpec, tr *tracer) (cellOut, error) {
	var out cellOut
	if c.dim2 {
		opts := strategy.Options{}
		var s2 *part2d.Schedule2D
		var err error
		tr.time("part2d.map_ms."+c.mapper, func() { s2, err = part2d.Map2D(c.mapper, sys, c.p, opts) })
		if err != nil {
			return out, err
		}
		var tasks []exec.Task
		var elemTask []int32
		tr.time("part2d.traffic_ms", func() { out.traffic = part2d.Traffic(sys.Ops, s2).Total })
		tr.time("part2d.tasks_ms", func() { tasks, elemTask = part2d.Tasks(sys.Ops, sys.ElemWork, s2) })
		var vol, msgs []int64
		tr.time("part2d.fetch_ms", func() {
			tc := part2d.FetchStats(sys.Ops, s2, len(tasks), elemTask)
			vol, msgs, out.fetch, out.msgs = tc.Vol, tc.Msgs, tc.TotalVol(), tc.TotalMsgs()
		})
		out.static, out.span = simulate(tr, tasks, c.p, vol, msgs)
		return out, nil
	}
	opts := prodOpts
	var sc *sched.Schedule
	var err error
	tr.time("strategy.map_ms."+c.mapper, func() { sc, err = strategy.Map(c.mapper, sys, c.p, opts) })
	if err != nil {
		return out, err
	}
	var tasks []exec.Task
	tr.time("traffic.simulate_ms", func() { out.traffic = strategy.Traffic(sys, opts, sc).Total })
	tr.time("strategy.tasks_ms", func() { tasks = strategy.Tasks(sys, opts, sc) })
	var vol, msgs []int64
	tr.time("traffic.fetch_ms", func() {
		tc := strategy.FetchStats(sys, opts, sc)
		vol, msgs, out.fetch, out.msgs = tc.Vol, tc.Msgs, tc.TotalVol(), tc.TotalMsgs()
	})
	out.static, out.span = simulate(tr, tasks, c.p, vol, msgs)
	return out, nil
}

// simulate runs the comm-aware static and dynamic makespan simulators
// over one task graph and returns both spans.
func simulate(tr *tracer, tasks []exec.Task, p int, vol, msgs []int64) (static, dynamic int64) {
	tr.time("exec.sim_static_ms", func() { static = exec.SimulateMakespanComm(tasks, p, commModel, vol, msgs).Makespan })
	tr.time("exec.sim_dynamic_ms", func() { dynamic = exec.SimulateMakespanDynamicComm(tasks, p, commModel, vol, msgs).Makespan })
	return static, dynamic
}

func (r *runner) checkCell(m *matrix, ref cellRef, idx int, out cellOut) error {
	if out.fetch != out.traffic {
		return fmt.Errorf("%s %s P=%d: fetch volumes sum to %d, traffic total is %d", m.name, ref.mapper, ref.p, out.fetch, out.traffic)
	}
	if len(r.passes) > 0 {
		first := r.passes[0]
		if first.traffic[idx] != out.traffic || first.span[idx] != out.span || first.static[idx] != out.static {
			return fmt.Errorf("%s %s P=%d: traffic/span/static %d/%d/%d differ from the first pass's %d/%d/%d",
				m.name, ref.mapper, ref.p, out.traffic, out.span, out.static, first.traffic[idx], first.span[idx], first.static[idx])
		}
	}
	if m.name != baselineMatrix {
		return nil
	}
	kind := "strategy"
	if ref.dim2 {
		kind = "tile2d"
	}
	want, ok := r.cfg.baseline[baseKey{kind, ref.mapper, ref.p}]
	if ok && (want.Makespan != out.span || want.Traffic != out.traffic) {
		return fmt.Errorf("%s %s P=%d: makespan/traffic %d/%d, BENCH_baseline.json has %d/%d",
			m.name, ref.mapper, ref.p, out.span, out.traffic, want.Makespan, want.Traffic)
	}
	return nil
}
