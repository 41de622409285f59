package main

import (
	"math"
	"sort"

	"repro/internal/exec"
	"repro/internal/numeric"
	"repro/internal/sparse"
	"repro/internal/strategy"
)

// metricSpec names one reported metric. better is "lower" or "higher".
type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run, the ones a user of the
// solver sees. error_rate is printed with them but left out of the
// result's metrics: it is 0 on a correct run, and the result line carries
// attempted and failed directly.
func endToEnd() []metricSpec {
	return []metricSpec{
		{"setup_s", "s", "lower"},
		{"cold_ms_p50", "ms", "lower"},
		{"cold_ms_p90", "ms", "lower"},
		{"refactor_ms_p50", "ms", "lower"},
		{"refactor_ms_p90", "ms", "lower"},
		{"warm_ms_p50", "ms", "lower"},
		{"warm_ms_p90", "ms", "lower"},
		{"par_factor_ms_p50", "ms", "lower"},
		{"par_factor_ms_p90", "ms", "lower"},
		{"par_speedup", "x", "higher"},
		{"par_solve_ms_p50", "ms", "lower"},
		{"cold_alloc_mb", "MB", "lower"},
		{"sweep_cells_per_s", "cells/s", "higher"},
		{"sweep_traffic_gmean", "words", "lower"},
		{"sweep_span_gmean", "work", "lower"},
	}
}

var errorRate = metricSpec{"error_rate", "fraction", "lower"}

// perLayer lists the metrics of a traced run, grouped by the module they
// time.
func perLayer() []metricSpec {
	ms := func(names ...string) []metricSpec {
		var out []metricSpec
		for _, n := range names {
			out = append(out, metricSpec{n, "ms", "lower"})
		}
		return out
	}
	var out []metricSpec
	add := func(s ...metricSpec) { out = append(out, s...) }
	add(ms("order.mmd_ms")...)
	add(metricSpec{"order.nnz_l", "count", "lower"})
	add(ms("sparse.permute_ms", "symbolic.analyze_ms", "model.ops_ms", "model.elemwork_ms")...)
	add(metricSpec{"model.updates", "count", "lower"}, metricSpec{"model.work", "work", "lower"})
	add(ms("traffic.fetch_ms", "traffic.simulate_ms")...)
	add(metricSpec{"traffic.volume", "words", "lower"}, metricSpec{"traffic.msgs", "count", "lower"})
	add(ms("artifact.pattern_hash_ms", "artifact.values_hash_ms")...)
	add(metricSpec{"artifact.hash_mb_per_s", "MB/s", "higher"},
		metricSpec{"artifact.hits", "count", "higher"},
		metricSpec{"artifact.misses", "count", "lower"},
		metricSpec{"artifact.evictions", "count", "lower"},
		metricSpec{"artifact.hit_ratio", "fraction", "higher"},
		metricSpec{"artifact.resident_mb", "MB", "lower"})
	for _, s := range stageNames {
		add(ms("pipeline."+s+"_ms", "pipeline."+s+"_self_ms")...)
	}
	add(ms("pipeline.lookup_ms", "pipeline.permute_values_ms", "numeric.factor_ms")...)
	add(metricSpec{"numeric.factor_gwork_per_s", "Gwork/s", "higher"})
	add(ms("numeric.solve_ms")...)
	add(metricSpec{"numeric.solve_gb_per_s", "GB/s", "higher"})
	add(ms("exec.par_busy_ms", "exec.par_stall_ms", "exec.par_idle_ms")...)
	add(metricSpec{"exec.par_tasks", "count", "lower"}, metricSpec{"exec.ns_per_task", "ns", "lower"})
	add(metricSpec{"calib.gamma_ns", "ns", "lower"}, metricSpec{"calib.ns_per_work", "ns", "lower"},
		metricSpec{"calib.r2", "fraction", "higher"})
	add(ms("exec.sim_static_ms", "exec.sim_dynamic_ms")...)
	for _, n := range strategy.Names() {
		add(ms("strategy.map_ms." + n)...)
	}
	add(ms("strategy.tasks_ms")...)
	add(metricSpec{"strategy.search_trials", "count", "lower"})
	add(ms("core.partition_ms")...)
	for _, n := range native2D() {
		add(ms("part2d.map_ms." + n)...)
	}
	add(ms("part2d.tasks_ms", "part2d.fetch_ms", "part2d.traffic_ms")...)
	for c := class(0); c < numClasses; c++ {
		add(metricSpec{"runtime.alloc_mb." + c.String(), "MB", "lower"})
	}
	add(metricSpec{"runtime.gc_count", "count", "lower"})
	for _, c := range []class{classCold, classRefactor, classWarm} {
		add(ms("trace.overhead_ms." + c.String())...)
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (+Inf samples sort last).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are the 25th, 50th and 75th nearest-rank percentiles of xs.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

func gmean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(float64(x))
	}
	return math.Exp(sum / float64(len(xs)))
}

// solveInput is one linear system of a request.
type solveInput struct {
	a *sparse.Matrix
	b []float64
}

// residual is ‖Ax−b‖∞/‖b‖∞.
func residual(in *solveInput, x []float64) float64 {
	return numeric.ResidualNorm(in.a, x, in.b)
}

// relDiff is ‖x−y‖∞/‖y‖∞.
func relDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		return math.Inf(1)
	}
	var d, m float64
	for i := range x {
		d = math.Max(d, math.Abs(x[i]-y[i]))
		m = math.Max(m, math.Abs(y[i]))
	}
	if m == 0 {
		return d
	}
	return d / m
}

// firstBitDiff returns the first index where a and b differ bitwise, or
// -1 when they are identical.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalTasks(a, b []exec.Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Proc != b[i].Proc || a[i].Work != b[i].Work || !equal(a[i].Preds, b[i].Preds) {
			return false
		}
	}
	return true
}
