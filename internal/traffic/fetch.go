package traffic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// TaskComm attributes the communication of a schedule to its makespan
// tasks (unit blocks for block-granular schedules, columns for
// column-granular ones). It is the bridge between the paper's two cost
// components: Vol carries the bandwidth term (Section 4's data traffic,
// split per task) and Msgs the latency term (Section 2's consolidation
// step, counted per task). Feeding both through exec.CommModel turns the
// compute-only makespan simulators into the unified time estimate.
type TaskComm struct {
	// Vol[t] is the number of distinct non-local elements first fetched
	// for task t's updates (fetch-on-first-use, matching the caching
	// model of Simulate). Summed over tasks it equals Result.Total.
	Vol []int64
	// Msgs[t] is the number of consolidated messages task t receives:
	// one per distinct source processor among its first-use fetches.
	Msgs []int64
}

// TotalVol returns the summed per-task fetch volume, which equals the
// system-wide data traffic of Simulate on the same schedule.
func (tc *TaskComm) TotalVol() int64 {
	var s int64
	for _, v := range tc.Vol {
		s += v
	}
	return s
}

// TotalMsgs returns the summed per-task message count.
func (tc *TaskComm) TotalMsgs() int64 {
	var s int64
	for _, m := range tc.Msgs {
		s += m
	}
	return s
}

// fetchPerTask runs the element-fetch simulation once, attributing every
// distinct (processor, element) fetch to the task of the update target
// that first requires it: taskOf[tgt], or the target's column when taskOf
// is nil. The dedup rule is identical to Simulate's, so the per-task
// volumes partition the traffic total exactly. The message set — distinct
// (task, source processor) pairs — is a FetchDedup over tasks: one owner
// bitmask word per task up to 64 processors.
func fetchPerTask(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf []int32) *TaskComm {
	f := ops.F
	nnz := f.NNZ()
	if len(s.ElemProc) != nnz {
		panic(fmt.Sprintf("traffic: schedule covers %d elements, factor has %d", len(s.ElemProc), nnz))
	}
	tc := &TaskComm{Vol: make([]int64, ntasks), Msgs: make([]int64, ntasks)}
	vol, msgs := tc.Vol, tc.Msgs
	fetched := NewFetchDedup(s.P, nnz)
	sent := NewFetchDedup(s.P, ntasks)
	elemProc, rowInd := s.ElemProc, f.RowInd
	ops.ForEachRun(func(r model.Run) {
		ownJ := elemProc[r.SrcJ]
		task := r.J
		for q := r.SrcJ; q < r.End; q++ {
			tgt := r.Tgt[rowInd[q]]
			proc := elemProc[tgt]
			if taskOf != nil {
				task = taskOf[tgt]
			}
			if own := elemProc[q]; own != proc && fetched.FirstFetch(q, proc) {
				vol[task]++
				if sent.FirstFetch(task, own) {
					msgs[task]++
				}
			}
			if ownJ != proc && fetched.FirstFetch(r.SrcJ, proc) {
				vol[task]++
				if sent.FirstFetch(task, ownJ) {
					msgs[task]++
				}
			}
		}
	})
	// Scales: every off-diagonal (i, j) reads the diagonal (j, j).
	for j := 0; j < f.N; j++ {
		diag := int32(f.ColPtr[j])
		own := elemProc[diag]
		for q := diag + 1; q < int32(f.ColPtr[j+1]); q++ {
			proc := elemProc[q]
			if own == proc || !fetched.FirstFetch(diag, proc) {
				continue
			}
			task := int32(j)
			if taskOf != nil {
				task = taskOf[q]
			}
			vol[task]++
			if sent.FirstFetch(task, own) {
				msgs[task]++
			}
		}
	}
	return tc
}

// FetchStatsTasks attributes every distinct non-local fetch of a schedule
// to an arbitrary task granularity: taskOf maps the factor nonzero
// position of an update's target to the task charged for the fetch. The
// dedup rule is identical to Simulate's, so the per-task volumes
// partition the traffic total exactly whatever the granularity — unit
// blocks (FetchStats), columns (FetchStatsColumns), or the merged
// tile-segment tasks of the 2D subsystem (part2d.FetchStats).
func FetchStatsTasks(ops *model.Ops, s *sched.Schedule, ntasks int, taskOf []int32) *TaskComm {
	if len(taskOf) != ops.F.NNZ() {
		panic(fmt.Sprintf("traffic: task map covers %d elements, factor has %d", len(taskOf), ops.F.NNZ()))
	}
	return fetchPerTask(ops, s, ntasks, taskOf)
}

// FetchStats attributes every distinct non-local fetch of a
// block-partitioned schedule to the unit block whose update first requires
// it, with per-unit message counts (one message per distinct source
// processor feeding a unit).
func FetchStats(part *core.Partition, ops *model.Ops, s *sched.Schedule) *TaskComm {
	if len(part.ElemUnit) != ops.F.NNZ() {
		panic("traffic: schedule/partition/factor mismatch")
	}
	return fetchPerTask(ops, s, len(part.Units), part.ElemUnit)
}

// FetchStatsColumns is FetchStats for column-mapped schedules, attributing
// fetches and messages to columns.
func FetchStatsColumns(ops *model.Ops, s *sched.Schedule) *TaskComm {
	return fetchPerTask(ops, s, ops.F.N, nil)
}
