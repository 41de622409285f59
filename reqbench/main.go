// Command reqbench is the repository's benchmark. One closed-loop client
// (the next operation starts only after the previous one returns) runs a
// seeded sequence of solver requests and mapper-sweep cells against the
// staged pipeline, checks every output, and prints each metric with its
// unit, direction and sample count. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and calls it):
//
//	reqbench -workload paper-requests -seed 1 -seconds 36 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// re-runs every layer call of traced requests, writes its spans as JSON
// lines to -spans, and reports the per-layer metrics. README.md in this
// directory lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/calib"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-requests, grid-requests or mapper-sweep")
	seed := fs.Int64("seed", 1, "workload seed: the only source of randomness")
	seconds := fs.Float64("seconds", 10, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	baseline := fs.String("baseline", "BENCH_baseline.json", "bench ledger whose LAP30 strategy/tile2d rows the sweep cells must reproduce")
	spans := fs.String("spans", "", "traced run: span output (JSON lines); default .bench_build/spans/<workload>-seed<seed>.jsonl")
	gitrev := fs.String("gitrev", "unknown", "source revision recorded in the host stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	var base map[baseKey]baseRow
	if err == nil {
		base, err = loadBaseline(*baseline)
	}
	if err != nil {
		fmt.Fprintf(stderr, "reqbench: %v\n", err)
		return 2
	}
	cfg := config{
		seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, baseline: base, log: stderr,
	}
	res, err := execute(w, cfg)
	if err == nil && cfg.trace {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		}
		if err = res.tr.writeSpans(path); err == nil {
			res.lines = append(res.lines, fmt.Sprintf("spans %s (%d spans)", path, len(res.tr.spans)))
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "reqbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "reqbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	stamp, _ := json.Marshal(hostStamp(*gitrev)) // strings and ints always marshal
	fmt.Fprintf(stdout, "host %s\n", stamp)
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(stderr, "reqbench: %v\n", err)
		return 1
	}
	return 0
}

type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GitRev     string `json:"git_rev"`
}

func hostStamp(rev string) host {
	return host{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev}
}

type matrixStamp struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	NNZ  int    `json:"nnz"`
	NNZL int    `json:"nnz_l"`
	Wtot int64  `json:"wtot"`
}

// value is one reported metric value with its sample count.
type value struct {
	v float64
	n int
}

type result struct {
	traced    bool
	lines     []string
	specs     []metricSpec
	vals      map[string]value
	attempted int
	failed    int
	tr        *tracer
}

// execute sets the workload up, runs its measured loop and derives the
// metrics of the run's mode.
func execute(w *workload, cfg config) (*result, error) {
	speed := newSpeedTrack()
	st, setupS, err := timedSetup(w, speed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res := &result{traced: cfg.trace, vals: map[string]value{}}
	for _, m := range st.mats {
		an, err := st.long.Analysis(m.a)
		if err != nil {
			return nil, err
		}
		js, _ := json.Marshal(matrixStamp{m.name, m.a.N, m.a.NNZ(), an.F.NNZ(), an.Total}) // strings and ints always marshal
		res.lines = append(res.lines, "matrix "+string(js))
	}
	r := newRunner(w, cfg, st, speed)
	r.setupS = []sample{setupS}
	if r.tr != nil {
		if err := r.tr.census(w, st); err != nil {
			return nil, fmt.Errorf("mapper census: %w", err)
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	long0 := st.long.Stats()
	if err := r.loop(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)
	long1 := st.long.Stats()
	res.attempted, res.failed, res.tr = r.attempted, r.failed, r.tr

	q := quartiles(speed.index)
	res.lines = append(res.lines, fmt.Sprintf("host_speed_index p25=%.4g p50=%.4g p75=%.4g probes=%d", q[0], q[1], q[2], len(speed.index)))
	if !cfg.trace {
		res.specs = endToEnd()
		r.endToEndValues(res.vals)
		res.lines = append(res.lines, r.unscaledLine())
		return res, nil
	}
	res.specs = perLayer()
	t := r.tr
	for name, xs := range t.samples {
		res.vals[name] = value{median(xs), len(xs)}
	}
	for i, s := range stageNames {
		from := []class{classCold, classCold, classRefactor, classWarm}[i]
		for _, suffix := range []string{"_ms", "_self_ms"} {
			xs := t.samples[fmt.Sprintf("pipeline.%s%s@%s", s, suffix, from)]
			res.vals["pipeline."+s+suffix] = value{median(xs), len(xs)}
		}
	}
	first := r.passes[0]
	var vol int64
	for _, v := range first.traffic {
		vol += v
	}
	res.vals["traffic.volume"] = value{float64(vol), first.cells}
	res.vals["traffic.msgs"] = value{float64(first.msgs), first.cells}
	res.vals["artifact.hash_mb_per_s"] = value{t.hashBytes / (1 << 20) / t.hashSec, len(t.samples["artifact.pattern_hash_ms"]) + len(t.samples["artifact.values_hash_ms"])}
	hits, misses := long1.Hits-long0.Hits, long1.Misses-long0.Misses
	lookups := int(hits + misses)
	res.vals["artifact.hits"] = value{float64(hits), lookups}
	res.vals["artifact.misses"] = value{float64(misses), lookups}
	res.vals["artifact.evictions"] = value{float64(long1.Evictions - long0.Evictions), lookups}
	res.vals["artifact.hit_ratio"] = value{float64(hits) / float64(lookups), lookups}
	res.vals["artifact.resident_mb"] = value{residentMB(st), 1}
	model, rep, err := t.fitter.Fit(calib.Options{})
	res.attempted++
	if err != nil {
		res.failed++
		fmt.Fprintf(cfg.log, "reqbench: calib fit failed: %v\n", err)
	} else {
		res.vals["calib.gamma_ns"] = value{model.Comm.Gamma * model.NsPerWork, rep.Samples}
		res.vals["calib.ns_per_work"] = value{model.NsPerWork, rep.Samples}
		res.vals["calib.r2"] = value{rep.R2, rep.Samples}
	}
	for c := class(0); c < numClasses; c++ {
		xs := t.allocMB[c]
		res.vals["runtime.alloc_mb."+c.String()] = value{median(xs), len(xs)}
	}
	res.vals["runtime.gc_count"] = value{float64(mem1.NumGC - mem0.NumGC), 1}
	for _, c := range []class{classCold, classRefactor, classWarm} {
		res.vals["trace.overhead_ms."+c.String()] = value{median(t.tracedMs[c]) - median(t.plainMs[c]), len(t.tracedMs[c])}
	}
	return res, nil
}

// endToEndValues derives the end-to-end metrics of an untraced run. Every
// time is scaled to the host speed probe's reference speed (hostspeed.go).
func (r *runner) endToEndValues(vals map[string]value) {
	sc := r.speed.scaled
	vals["setup_s"] = value{median(sc(r.setupS)), len(r.setupS)}
	for _, c := range []string{"cold", "refactor", "warm", "par_factor"} {
		xs := sc(r.lat[c])
		vals[c+"_ms_p50"] = value{quantile(xs, 0.5), len(xs)}
		vals[c+"_ms_p90"] = value{quantile(xs, 0.9), len(xs)}
	}
	par := sc(r.lat["par_factor"])
	vals["par_speedup"] = value{median(sc(r.lat["par_serial"])) / median(par), len(par)}
	vals["par_solve_ms_p50"] = value{quantile(sc(r.lat["par_solve"]), 0.5), len(r.lat["par_solve"])}
	vals["cold_alloc_mb"] = value{median(values(r.lat["cold_alloc_mb"])), len(r.lat["cold_alloc_mb"])}
	var rates []float64
	for _, p := range r.passes {
		var sec float64
		for _, s := range sc(p.cellTimes) {
			sec += s
		}
		if p.failed {
			sec = math.Inf(1)
		}
		rates = append(rates, float64(p.cells)/sec)
	}
	first := r.passes[0]
	traffic, span := gmean(first.traffic), gmean(first.span)
	if first.failed {
		traffic, span = math.Inf(1), math.Inf(1)
	}
	vals["sweep_cells_per_s"] = value{median(rates), len(rates)}
	vals["sweep_traffic_gmean"] = value{traffic, first.cells}
	vals["sweep_span_gmean"] = value{span, first.cells}
}

// unscaledLine lists the wall-clock medians the scaled latency metrics
// come from.
func (r *runner) unscaledLine() string {
	line := fmt.Sprintf("unscaled setup_s=%.6g", median(values(r.setupS)))
	for _, c := range []string{"cold", "refactor", "warm", "par_factor", "par_solve"} {
		line += fmt.Sprintf(" %s_ms_p50=%.6g", c, quantile(values(r.lat[c]), 0.5))
	}
	return line
}

// print writes the stamps, one line per metric and the result line.
func (res *result) print(w io.Writer) error {
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	metrics := map[string]any{}
	for _, s := range res.specs {
		v := res.vals[s.name]
		fmt.Fprintf(w, "metric %s %.6g %s %s-is-better n=%d\n", s.name, v.v, s.unit, s.better, v.n)
		metrics[s.name] = map[string]any{"value": finite(v.v), "unit": s.unit}
	}
	if !res.traced {
		rate := float64(res.failed) / float64(res.attempted)
		fmt.Fprintf(w, "metric %s %.6g %s %s-is-better n=%d\n", errorRate.name, rate, errorRate.unit, errorRate.better, res.attempted)
	}
	out, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// finite maps the values JSON cannot hold: a failed operation is an
// infinite sample, reported as the largest float64; a metric with no
// samples reports 0.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

type baseKey struct {
	kind, strategy string
	p              int
}

type baseRow struct {
	Makespan, Traffic int64
}

// baselineMatrix names the matrix whose sweep cells are checked against
// the bench ledger.
const baselineMatrix = "LAP30"

// loadBaseline reads the ledger's LAP30 strategy and tile2d rows taken
// under the benchmark's communication model.
func loadBaseline(path string) (map[baseKey]baseRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var led struct {
		Records []struct {
			Matrix   string  `json:"matrix"`
			Strategy string  `json:"strategy"`
			Kind     string  `json:"kind"`
			P        int     `json:"p"`
			Alpha    float64 `json:"alpha"`
			Beta     float64 `json:"beta"`
			Makespan int64   `json:"makespan"`
			Traffic  int64   `json:"traffic"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	out := map[baseKey]baseRow{}
	for _, rec := range led.Records {
		if rec.Matrix == baselineMatrix && (rec.Kind == "strategy" || rec.Kind == "tile2d") &&
			rec.Alpha == commModel.Alpha && rec.Beta == commModel.Beta {
			out[baseKey{rec.Kind, rec.Strategy, rec.P}] = baseRow{rec.Makespan, rec.Traffic}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("baseline %s: no %s strategy/tile2d rows at alpha=%g beta=%g", path, baselineMatrix, commModel.Alpha, commModel.Beta)
	}
	return out, nil
}
