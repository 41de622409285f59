package part2d

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/strategy"
	"repro/internal/traffic"
)

// The reference passes below are the per-update, map-and-closure
// implementations the run-level loops of model, traffic and part2d
// replaced, kept verbatim (with a copy of the dedup set, so the oracle
// shares no code with the passes under test). TestFetchPassOracle
// pins every ported consumer bitwise to them.

// refForEachUpdate is the per-update enumerator: one call per pair update,
// with column k's pointer advanced by a linear scan to row j.
func refForEachUpdate(o *model.Ops, fn func(u model.Update)) {
	f := o.F
	n := f.N
	ptr := make([]int32, n)
	for j := 0; j < n; j++ {
		ptr[j] = int32(f.ColPtr[j])
	}
	pos := make([]int32, n)
	for j := 0; j < n; j++ {
		cj := f.Col(j)
		base := f.ColPtr[j]
		for t, i := range cj {
			pos[i] = int32(base + t)
		}
		for _, k := range o.RowCols(j) {
			p := ptr[k]
			end := int32(f.ColPtr[k+1])
			for p < end && f.RowInd[p] < j {
				p++
			}
			ptr[k] = p
			if p >= end || f.RowInd[p] != j {
				panic("model: row structure inconsistent with column structure")
			}
			srcJ := p
			for q := p; q < end; q++ {
				i := f.RowInd[q]
				fn(model.Update{Tgt: pos[i], SrcI: int32(q), SrcJ: srcJ})
			}
		}
	}
}

// refDedup is the caching model's first-fetch rule: a per-element
// bitmask up to 64 processors, a map keyed elem<<16|proc above (exact for
// the processor counts tested here).
type refDedup struct {
	mask []uint64
	wide map[int64]struct{}
}

func newRefDedup(p, nnz int) *refDedup {
	if p > 64 {
		return &refDedup{wide: make(map[int64]struct{})}
	}
	return &refDedup{mask: make([]uint64, nnz)}
}

func (d *refDedup) FirstFetch(elem, proc int32) bool {
	if d.wide != nil {
		key := int64(elem)<<16 | int64(proc)
		if _, ok := d.wide[key]; ok {
			return false
		}
		d.wide[key] = struct{}{}
		return true
	}
	bit := uint64(1) << uint(proc)
	if d.mask[elem]&bit != 0 {
		return false
	}
	d.mask[elem] |= bit
	return true
}

func refElementWork(o *model.Ops) []int64 {
	counts := make([]int32, o.F.NNZ())
	refForEachUpdate(o, func(u model.Update) { counts[u.Tgt]++ })
	w := make([]int64, len(counts))
	for p, c := range counts {
		w[p] = 2*int64(c) + 1
	}
	return w
}

func refFetchPerTask(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf func(tgt int32) int32) *traffic.TaskComm {
	tc := &traffic.TaskComm{Vol: make([]int64, ntasks), Msgs: make([]int64, ntasks)}
	fetched := newRefDedup(s.P, len(s.ElemProc))
	msgSeen := make(map[int64]struct{}) // distinct (source processor, task) pairs
	access := func(elem, tgt int32) {
		proc := s.ElemProc[tgt]
		owner := s.ElemProc[elem]
		if owner == proc || !fetched.FirstFetch(elem, proc) {
			return
		}
		task := taskOf(tgt)
		tc.Vol[task]++
		mk := int64(owner)<<32 | int64(task)
		if _, ok := msgSeen[mk]; !ok {
			msgSeen[mk] = struct{}{}
			tc.Msgs[task]++
		}
	}
	refForEachUpdate(ops, func(u model.Update) {
		access(u.SrcI, u.Tgt)
		access(u.SrcJ, u.Tgt)
	})
	ops.ForEachScale(func(tgt, diag int32) {
		access(diag, tgt)
	})
	return tc
}

func refSimulate(ops *model.Ops, s *sched.Schedule) *traffic.Result {
	r := &traffic.Result{
		P:       s.P,
		PerProc: make([]int64, s.P),
		Pair:    make([][]int64, s.P),
	}
	for i := range r.Pair {
		r.Pair[i] = make([]int64, s.P)
	}
	fetched := newRefDedup(s.P, len(s.ElemProc))
	access := func(elem int32, proc int32) {
		owner := s.ElemProc[elem]
		if owner == proc || !fetched.FirstFetch(elem, proc) {
			return
		}
		r.Total++
		r.PerProc[proc]++
		r.Pair[owner][proc]++
	}
	refForEachUpdate(ops, func(u model.Update) {
		proc := s.ElemProc[u.Tgt]
		access(u.SrcI, proc)
		access(u.SrcJ, proc)
	})
	ops.ForEachScale(func(tgt, diag int32) {
		access(diag, s.ElemProc[tgt])
	})
	return r
}

func refConsolidate(ops *model.Ops, s *sched.Schedule, groupOf func(elem int32) int32) *traffic.MessageStats {
	type key struct {
		group int32
		proc  int32
	}
	sizes := make(map[key]int64)
	fetched := newRefDedup(s.P, len(s.ElemProc))
	access := func(elem int32, proc int32) {
		if s.ElemProc[elem] == proc || !fetched.FirstFetch(elem, proc) {
			return
		}
		sizes[key{groupOf(elem), proc}]++
	}
	refForEachUpdate(ops, func(u model.Update) {
		proc := s.ElemProc[u.Tgt]
		access(u.SrcI, proc)
		access(u.SrcJ, proc)
	})
	ops.ForEachScale(func(tgt, diag int32) {
		access(diag, s.ElemProc[tgt])
	})
	st := &traffic.MessageStats{P: s.P, PerProc: make([]int64, s.P)}
	//repro:allow maporder -- commutative counts, sums and max over consolidated messages; order cannot change any statistic
	for k, sz := range sizes {
		st.Messages++
		st.Elements += sz
		st.PerProc[k.proc]++
		if sz > st.MaxSize {
			st.MaxSize = sz
		}
	}
	if st.Messages > 0 {
		st.MeanSize = float64(st.Elements) / float64(st.Messages)
	}
	return st
}

func refTraffic2D(ops *model.Ops, s *Schedule2D) *TrafficResult {
	f := ops.F
	nnz := f.NNZ()
	res := &TrafficResult{
		P:       s.P,
		R:       s.R(),
		FanOut:  make([]int64, s.Tiles()),
		FanIn:   make([]int64, s.Tiles()),
		PerProc: make([]int64, s.P),
	}
	colOf := make([]int32, nnz)
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			colOf[q] = int32(j)
		}
	}
	tileOf := func(q int32) int {
		return TileID(int(s.BlockOf[f.RowInd[q]]), int(s.BlockOf[colOf[q]]))
	}
	fetched := newRefDedup(s.P, len(s.ElemProc))
	access := func(elem, tgt int32, fanOut bool) {
		proc := s.ElemProc[tgt]
		if s.ElemProc[elem] == proc || !fetched.FirstFetch(elem, proc) {
			return
		}
		res.Total++
		res.PerProc[proc]++
		if fanOut {
			res.FanOut[tileOf(tgt)]++
		} else {
			res.FanIn[tileOf(tgt)]++
		}
	}
	refForEachUpdate(ops, func(u model.Update) {
		access(u.SrcI, u.Tgt, true)
		access(u.SrcJ, u.Tgt, false)
	})
	ops.ForEachScale(func(tgt, diag int32) {
		access(diag, tgt, false)
	})
	return res
}

// refTaskPreds is the predecessor pass of Tasks over the per-update
// enumeration.
func refTaskPreds(ops *model.Ops, ntasks int, elemTask []int32) [][]int32 {
	preds := make([][]int32, ntasks)
	stamp := make([]int32, ntasks)
	for i := range stamp {
		stamp[i] = -1
	}
	add := func(tgt, src int32) {
		if src == tgt || stamp[src] == tgt {
			return
		}
		stamp[src] = tgt
		preds[tgt] = append(preds[tgt], src)
	}
	refForEachUpdate(ops, func(u model.Update) {
		t := elemTask[u.Tgt]
		add(t, elemTask[u.SrcI])
		add(t, elemTask[u.SrcJ])
	})
	ops.ForEachScale(func(tgt, diag int32) {
		add(elemTask[tgt], elemTask[diag])
	})
	for i := range preds {
		p := preds[i]
		sort.Slice(p, func(a, b int) bool { return p[a] < p[b] })
		out := p[:0]
		for k, v := range p {
			if k == 0 || v != p[k-1] {
				out = append(out, v)
			}
		}
		preds[i] = out
	}
	return preds
}

// TestFetchPassOracle pins the run-level fetch and work passes bitwise to
// the per-update reference passes: element work, per-task fetch volumes
// and message counts, the traffic result with its pair matrix, the
// consolidated message statistics, the 2D fan-in/fan-out split and the
// tile-segment predecessor lists — for every registered 1D strategy and
// native 2D mapper. Seeded random patterns run every processor count,
// straddling the 64-processor boundary between the bitmask and the map
// dedup paths, on plain and relaxed partitions. The Table-1 matrices run
// P=64, the two smallest P=16 and 65 instead: the map side costs seconds
// per large matrix, minutes under -race.
func TestFetchPassOracle(t *testing.T) {
	// MaxMoves keeps the rect2d and refine searches cheap; the passes must
	// agree at any budget. The relaxed partition runs the block-granular
	// passes over a padded factor with its own ops.
	plain := strategy.Options{MaxMoves: 8}
	relaxed := plain
	relaxed.Part = core.Options{RelaxZeros: 0.3}
	type system struct {
		name     string
		sys      *strategy.Sys
		procs    []int
		optsList []strategy.Options
	}
	var systems []system
	for seed := int64(1); seed <= 3; seed++ {
		m := gen.Random(150, 1.5, seed)
		systems = append(systems, system{fmt.Sprintf("random-%d", seed), newTestSys(t, m),
			[]int{1, 2, 16, 63, 64, 65, 130}, []strategy.Options{plain, relaxed}})
	}
	for _, tm := range gen.Suite() {
		procs := []int{64}
		if tm.Name == "BUS1138" || tm.Name == "DWT512" {
			procs = []int{16, 65}
		}
		systems = append(systems, system{tm.Name, suite(t)[tm.Name], procs, []strategy.Options{plain}})
	}
	for _, sy := range systems {
		sys := sy.sys
		if got, want := model.ElementWork(sys.Ops), refElementWork(sys.Ops); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ElementWork differs from the per-update reference", sy.name)
		}
		for _, p := range sy.procs {
			for oi, opts := range sy.optsList {
				for _, name := range strategy.Names() {
					sc, err := strategy.Map(name, sys, p, opts)
					if err != nil {
						t.Fatalf("%s/%s P=%d: %v", name, sy.name, p, err)
					}
					if sc.UnitProc == nil && oi > 0 {
						continue // column schedules ignore the partition options
					}
					checkPasses1D(t, fmt.Sprintf("%s/%s P=%d opts#%d", name, sy.name, p, oi), sys, opts, sc)
				}
			}
			for _, name := range []string{"rect2d", "rect2dcyclic", "rect2dlpt"} {
				s2, err := Map2D(name, sys, p, plain)
				if err != nil {
					t.Fatalf("%s/%s P=%d: %v", name, sy.name, p, err)
				}
				checkPasses2D(t, fmt.Sprintf("%s/%s P=%d", name, sy.name, p), sys, s2)
			}
		}
	}
}

func checkPasses1D(t *testing.T, label string, sys *strategy.Sys, opts strategy.Options, sc *sched.Schedule) {
	t.Helper()
	ops, colOf := sys.Ops, sys.F.ColIndex()
	taskOf := func(q int32) int32 { return colOf[q] }
	ntasks := sys.F.N
	var msgs *traffic.MessageStats
	if sc.UnitProc != nil {
		part := sys.Partition(opts.Part)
		if part.F != sys.F {
			ops = model.NewOps(part.F)
		}
		taskOf = func(q int32) int32 { return part.ElemUnit[q] }
		ntasks = len(part.Units)
		msgs = traffic.Consolidate(part, ops, sc)
	} else {
		msgs = traffic.ConsolidateColumns(ops, sc)
	}
	if got, want := strategy.Traffic(sys, opts, sc), refSimulate(ops, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Simulate total %d differs from the reference %d (or per-proc/pair)", label, got.Total, want.Total)
	}
	if got, want := strategy.FetchStats(sys, opts, sc), refFetchPerTask(ops, sc, ntasks, taskOf); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: FetchStats Vol/Msgs differ from the reference", label)
	}
	if want := refConsolidate(ops, sc, taskOf); !reflect.DeepEqual(msgs, want) {
		t.Errorf("%s: Consolidate %+v, reference %+v", label, *msgs, *want)
	}
}

func checkPasses2D(t *testing.T, label string, sys *strategy.Sys, s2 *Schedule2D) {
	t.Helper()
	if got, want := Traffic(sys.Ops, s2), refTraffic2D(sys.Ops, s2); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: 2D traffic (total %d) differs from the reference (total %d) in fan-in/fan-out or per-proc", label, got.Total, want.Total)
	}
	sc := s2.Schedule()
	if got, want := traffic.Simulate(sys.Ops, sc), refSimulate(sys.Ops, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Simulate differs from the reference", label)
	}
	tasks, elemTask := Tasks(sys.Ops, sys.ElemWork, s2)
	want := refTaskPreds(sys.Ops, len(tasks), elemTask)
	for i := range tasks {
		if !reflect.DeepEqual(tasks[i].Preds, want[i]) {
			t.Fatalf("%s: task %d preds %v, reference %v", label, i, tasks[i].Preds, want[i])
		}
	}
	got := FetchStats(sys.Ops, s2, len(tasks), elemTask)
	ref := refFetchPerTask(sys.Ops, sc, len(tasks), func(q int32) int32 { return elemTask[q] })
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("%s: tile-segment FetchStats Vol/Msgs differ from the reference", label)
	}
}

var fetchSink *traffic.TaskComm

// BenchmarkFetchStatsLap30 times the fetch attribution of one P=16 LAP30
// schedule at each task granularity: wrap columns, block unit blocks and
// rect2dcyclic tile segments.
func BenchmarkFetchStatsLap30(b *testing.B) {
	sys := lapSys(b)
	const p = 16
	var opts strategy.Options
	for _, name := range []string{"wrap", "block"} {
		sc, err := strategy.Map(name, sys, p, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fetchSink = strategy.FetchStats(sys, opts, sc)
			}
		})
	}
	s2, err := Map2D("rect2dcyclic", sys, p, opts)
	if err != nil {
		b.Fatal(err)
	}
	tasks, elemTask := Tasks(sys.Ops, sys.ElemWork, s2)
	b.Run("rect2dcyclic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fetchSink = FetchStats(sys.Ops, s2, len(tasks), elemTask)
		}
	})
}
