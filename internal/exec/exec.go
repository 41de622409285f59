// Package exec studies the effect the paper's metrics deliberately leave
// out: dependency delays. Section 4 argues that "if the number of
// processors is relatively small compared to the number of schedulable
// units, then the allocation scheme described here provides enough
// parallelism to keep the idle time to a minimum"; this package tests that
// claim two ways.
//
// Makespan simulation: every task (unit block, or column for wrap mapping)
// runs on its assigned processor for a duration equal to its work;
// processors execute their tasks in the static scan order and stall until
// a task's predecessors complete. The resulting makespan, idle fraction
// and delay-aware efficiency refine the paper's A-based efficiency bound.
//
// Parallel execution: one engine (ParallelFactorize2D) runs any of those
// task graphs for real — unit blocks (BlockExecTasks), columns, or 2D
// tile segments — one worker goroutine per simulated processor,
// synchronizing only on the graph's dependencies. Every element replays
// the serial update order, so the factor is bit-for-bit the sequential
// one: the dependency graph of core.Partition is sufficient for correct
// parallel execution, for the Cholesky and LDLᵀ kernels alike.
package exec

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/symbolic"
)

// Task is a schedulable piece of work for the makespan simulation.
type Task struct {
	ID    int
	Proc  int32
	Work  int64
	Preds []int32
}

// SimResult summarizes a makespan simulation.
type SimResult struct {
	P         int
	Makespan  int64
	TotalWork int64
	// Idle is the summed processor idle time, P*Makespan - TotalWork.
	Idle int64
	// Efficiency is TotalWork / (P * Makespan).
	Efficiency float64
	// Comm is the summed communication time charged to tasks; zero for the
	// compute-only simulators, and included in TotalWork (as busy time)
	// for the comm-aware ones.
	Comm int64
}

// SimulateMakespan runs the static-order list simulation. Tasks must be
// topologically ordered by ID (predecessor IDs smaller than successor
// IDs); both the unit-block and the column task graphs satisfy this by
// construction.
func SimulateMakespan(tasks []Task, p int) SimResult {
	return simulateStatic(tasks, p, nil, nil)
}

// SimulateMakespanProbe is SimulateMakespan with a tracing probe attached:
// one TaskEvent per task, emitted in scan (ID) order. A nil probe is
// allowed and reproduces SimulateMakespan bit for bit.
func SimulateMakespanProbe(tasks []Task, p int, probe Probe) SimResult {
	return simulateStatic(tasks, p, nil, probe)
}

// simulateStatic is the static-order list simulation shared by the
// compute-only and comm-aware entry points. comm, when non-nil, holds the
// communication share of each task's Work (already included in it) so
// events can split the duration; it never changes the simulated times.
func simulateStatic(tasks []Task, p int, comm []int64, probe Probe) SimResult {
	mustProcs(p)
	procFree := make([]int64, p)
	finish := make([]int64, len(tasks))
	var total int64
	for i := range tasks {
		t := &tasks[i]
		if t.ID != i {
			panic(fmt.Sprintf("exec: task %d out of order", t.ID))
		}
		free := procFree[t.Proc]
		start := free
		cause := int32(-1)
		for _, pr := range t.Preds {
			if int(pr) >= i {
				panic(fmt.Sprintf("exec: task %d depends on later task %d", i, pr))
			}
			if finish[pr] > start {
				start = finish[pr]
				cause = pr
			}
		}
		finish[i] = start + t.Work
		procFree[t.Proc] = finish[i]
		total += t.Work
		if probe != nil {
			var c int64
			if comm != nil {
				c = comm[i]
			}
			probe.OnTask(TaskEvent{
				Task: int32(i), Proc: t.Proc,
				Start: start, Finish: finish[i],
				Work: t.Work - c, Comm: c,
				Stall: start - free, Cause: cause,
			})
		}
	}
	var span int64
	for _, f := range procFree {
		if f > span {
			span = f
		}
	}
	return finalize(p, span, total)
}

// BlockTasks converts a partitioned, scheduled factorization into makespan
// tasks (one per unit block).
func BlockTasks(part *core.Partition, s *sched.Schedule) []Task {
	tasks := make([]Task, len(part.Units))
	for i := range part.Units {
		u := &part.Units[i]
		tasks[i] = Task{ID: i, Proc: s.UnitProc[i], Work: u.Work, Preds: u.Preds}
	}
	return tasks
}

// BlockExecTasks is the execution graph of a block-granular schedule for
// ParallelFactorize2D over the factor structure f, which is part.F or, for
// a relaxed partition, the analysis factor part.F pads. The tasks are
// BlockTasks plus the scale dependencies: every unit also waits on the
// unit holding the diagonal of each column it touches. elemTask[q] is the
// unit owning f's position q, looked up at the matching position of the
// (superset) partition structure.
func BlockExecTasks(part *core.Partition, s *sched.Schedule, f *symbolic.Factor) ([]Task, []int32) {
	pf := part.F
	tasks := BlockTasks(part, s)
	for ui := range tasks {
		u := &part.Units[ui]
		ep := append([]int32(nil), u.Preds...)
		for j := u.ColLo; j <= u.ColHi && j < pf.N; j++ {
			if du := part.ElemUnit[pf.ColPtr[j]]; int(du) != ui {
				ep = append(ep, du)
			}
		}
		sort.Slice(ep, func(a, b int) bool { return ep[a] < ep[b] })
		out := ep[:0]
		for k, v := range ep {
			if k == 0 || v != ep[k-1] {
				out = append(out, v)
			}
		}
		tasks[ui].Preds = out
	}
	if pf == f {
		return tasks, part.ElemUnit
	}
	elemTask := make([]int32, f.NNZ())
	for j := 0; j < f.N; j++ {
		qp := pf.ColPtr[j]
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			for pf.RowInd[qp] < f.RowInd[q] {
				qp++
			}
			elemTask[q] = part.ElemUnit[qp]
		}
	}
	return tasks, elemTask
}

// ColumnTasks builds the task graph of the wrap-mapped column algorithm:
// one task per column, depending on every column of its row structure.
func ColumnTasks(f *symbolic.Factor, ops *model.Ops, elemWork []int64, p int) []Task {
	mustProcs(p)
	owner := make([]int32, f.N)
	for j := range owner {
		owner[j] = int32(j % p)
	}
	return ColumnTasksMapped(f, ops, elemWork, owner)
}

// ColumnTasksMapped is ColumnTasks for an arbitrary column-to-processor
// assignment (owner[j] is the processor of column j), the task graph of
// any column-granular mapping strategy.
func ColumnTasksMapped(f *symbolic.Factor, ops *model.Ops, elemWork []int64, owner []int32) []Task {
	colWork := model.ColumnWork(f, elemWork)
	tasks := make([]Task, f.N)
	for j := 0; j < f.N; j++ {
		tasks[j] = Task{
			ID:    j,
			Proc:  owner[j],
			Work:  colWork[j],
			Preds: ops.RowCols(j),
		}
	}
	return tasks
}

// CriticalPath returns the longest work-weighted path through the task
// graph, the P-independent lower bound on the makespan.
func CriticalPath(tasks []Task) int64 {
	longest := make([]int64, len(tasks))
	var best int64
	for i := range tasks {
		var in int64
		for _, pr := range tasks[i].Preds {
			if longest[pr] > in {
				in = longest[pr]
			}
		}
		longest[i] = in + tasks[i].Work
		if longest[i] > best {
			best = longest[i]
		}
	}
	return best
}

// NumericFactor is the numeric output of the parallel execution; Val
// aligns with the row indices of the symbolic structure F.
type NumericFactor struct {
	F   *symbolic.Factor
	Val []float64
}
