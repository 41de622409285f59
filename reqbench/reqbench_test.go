package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// tinyWorkload runs every class on two small matrices, with a block-based
// 1D cell so the partition path runs and a LAP30 cell the baseline checks.
func tinyWorkload() *workload {
	return &workload{
		name: "tiny",
		matrices: func() []*matrix {
			return []*matrix{{name: "GRID9-8x8", a: gen.Grid9(8, 8)}, {name: "LAP30", a: gen.Lap30()}}
		},
		parMappers: []string{"rect2dcyclic"},
		cells:      append([]cellSpec{{mapper: "block", p: 4}}, requestCells...),
		reqReps:    2, parReps: 2,
	}
}

func tinyConfig(t *testing.T, seed int64, trace bool) config {
	t.Helper()
	base, err := loadBaseline("../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	// A zero duration runs exactly one cycle: the loop never stops before
	// the first cycle is complete.
	return config{seed: seed, trace: trace, baseline: base, log: io.Discard}
}

func sequence(w *workload, seed int64) [][]item {
	rng := rand.New(rand.NewSource(seed))
	var out [][]item
	for i := 0; i < 3; i++ {
		out = append(out, w.cycle(rng, 4, 3, 5))
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range append(workloads(), tinyWorkload()) {
		if !reflect.DeepEqual(sequence(w, 7), sequence(w, 7)) {
			t.Errorf("%s: seed 7 gave two different request sequences", w.name)
		}
	}
}

func TestOtherSeedOtherSequenceSameSweep(t *testing.T) {
	w := tinyWorkload()
	if reflect.DeepEqual(sequence(w, 1), sequence(w, 2)) {
		t.Fatal("seeds 1 and 2 gave the same request sequence")
	}
	var outs []map[string]value
	for _, seed := range []int64{1, 2} {
		res, err := execute(w, tinyConfig(t, seed, false))
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("seed %d: %d of %d operations failed", seed, res.failed, res.attempted)
		}
		outs = append(outs, res.vals)
	}
	for _, m := range []string{"sweep_traffic_gmean", "sweep_span_gmean"} {
		if outs[0][m] != outs[1][m] {
			t.Errorf("%s differs between seeds: %v vs %v", m, outs[0][m], outs[1][m])
		}
	}
}

// TestTinyRunPrintsEveryMetric checks both modes print every metric with
// unit, direction and sample count, and end with the result line.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res, err := execute(tinyWorkload(), tinyConfig(t, 3, trace))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.print(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace=%v: last line is not the result: %v", trace, err)
		}
		if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
			t.Fatalf("trace=%v: result line %s", trace, lines[len(lines)-1])
		}
		specs := endToEnd()
		if trace {
			specs = perLayer()
		}
		if len(last.Metrics) != len(specs) {
			t.Errorf("trace=%v: %d metrics in the result, want %d", trace, len(last.Metrics), len(specs))
		}
		printed := map[string]string{}
		for _, l := range lines {
			if f := strings.Fields(l); len(f) == 6 && f[0] == "metric" {
				printed[f[1]] = l
			}
		}
		for _, s := range specs {
			var m struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(last.Metrics[s.name], &m); err != nil || m.Value == nil || m.Unit != s.unit {
				t.Errorf("trace=%v: result metric %s = %s", trace, s.name, last.Metrics[s.name])
			}
			f := strings.Fields(printed[s.name])
			if len(f) != 6 || f[3] != s.unit || f[4] != s.better+"-is-better" || f[5] == "n=0" {
				t.Errorf("trace=%v: metric line for %s is %q", trace, s.name, printed[s.name])
			}
		}
		if _, ok := printed["error_rate"]; ok == trace {
			t.Errorf("trace=%v: error_rate printed = %v", trace, ok)
		}
	}
}

func TestCorruptionCounted(t *testing.T) {
	cfg := tinyConfig(t, 5, false)
	cfg.corrupt = true
	res, err := execute(tinyWorkload(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatalf("corrupted solutions and factors: 0 of %d operations failed", res.attempted)
	}
	// Cells are not corrupted; every request and par operation is.
	if res.failed >= res.attempted {
		t.Errorf("every operation failed (%d), cells should pass", res.failed)
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"correct":false`) || strings.Contains(buf.String(), "metric error_rate 0 ") {
		t.Errorf("failures not reported:\n%s", buf.String())
	}
}

// TestParGuard checks the par class fails, rather than oversubscribing,
// when GOMAXPROCS is below its processor count.
func TestParGuard(t *testing.T) {
	w := tinyWorkload()
	st, err := setup(w)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newRunner(w, tinyConfig(t, 1, false), st, newSpeedTrack())
	if err := r.par(item{class: classPar, rhs: 1}); !errors.Is(err, errFewProcs) {
		t.Fatalf("par at GOMAXPROCS=1: %v, want %v", err, errFewProcs)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names, wantNames []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads() {
		wantNames = append(wantNames, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", names, wantNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		var g, w []metricSpec
		for _, m := range got {
			g = append(g, metricSpec{m.Name, m.Unit, m.Better})
		}
		w = append(w, want...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s metrics\n%v\nprogram prints\n%v", kind, g, w)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd())
	check("per_layer", bj.PerLayer, perLayer())
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-workload", "paper-requests", "-seconds", "0"},
		{"-workload", "paper-requests", "-trace", "2"},
		{"-workload", "paper-requests", "-baseline", "nosuch.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestSpeedProbe checks the probe's kernels compute what they claim — the
// Cholesky factor reproduces the grid matrix, the sweeps solve with it —
// and that a probe allocates nothing, so the program's heap cannot slow
// it.
func TestSpeedProbe(t *testing.T) {
	p := newSpeedProbe()
	p.cholesky()
	dense := func(ptr, ind []int32, val []float64) [][]float64 {
		m := make([][]float64, p.n)
		for i := range m {
			m[i] = make([]float64, p.n)
		}
		for j := 0; j < p.n; j++ {
			for q := ptr[j]; q < ptr[j+1]; q++ {
				m[ind[q]][j] = val[q]
			}
		}
		return m
	}
	a, l := dense(p.colPtr, p.rowInd, p.aVal), dense(p.lPtr, p.lRow, p.lVal)
	for i := 0; i < p.n; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += l[i][k] * l[j][k]
			}
			if math.Abs(s-a[i][j]) > 1e-12 {
				t.Fatalf("(L·Lᵀ)[%d,%d] = %g, A has %g", i, j, s, a[i][j])
			}
		}
	}
	p.solve()
	for i := 0; i < p.n; i++ {
		var s float64
		for j := 0; j < p.n; j++ {
			aij := a[max(i, j)][min(i, j)]
			s += aij * p.x[j]
		}
		if math.Abs(s-p.b[i]) > 1e-12 {
			t.Fatalf("(A·x)[%d] = %g, b has %g", i, s, p.b[i])
		}
	}
	if n := testing.AllocsPerRun(5, func() { p.measure() }); n != 0 {
		t.Errorf("a probe allocates %g times", n)
	}
}

// TestSpeedScaling checks a sample is divided by the median index of the
// probes within probeWindow of it, or by the nearest probe's when none is.
func TestSpeedScaling(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	s := &speedTrack{at: []time.Duration{0, sec(1), sec(1.2), sec(1.4), sec(2), sec(10)}, index: []float64{1, 2, 4, 3, 2, 4}}
	got := s.scaled([]sample{
		{from: sec(1.1), to: sec(1.2), v: 6},   // probes at 1, 1.2, 1.4: median 3
		{from: sec(4.9), to: sec(5.3), v: 4},   // none within; nearest is at 2
		{from: sec(8.9), to: sec(9.3), v: 8},   // none within; nearest is at 10
		{from: sec(10.2), to: sec(10.3), v: 2}, // the probe at 10
	})
	if want := []float64{2, 2, 2, 0.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("scaled %v, want %v", got, want)
	}
}
