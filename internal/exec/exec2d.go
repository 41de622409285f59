package exec

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/numeric"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// ParallelFactorize2D executes the numeric Cholesky factorization with one
// worker goroutine per processor over an arbitrary task graph — the merged
// tile-segment graph of a 2D tile schedule (part2d.Tasks), the column
// graph of a column-granular 1D schedule, or the unit-block graph of a
// block-granular one (BlockExecTasks). Each task owns a set of factor
// elements, possibly spanning several columns; its worker waits on the
// task's predecessors (per-task done channels, closed on completion) and
// then processes the task's columns in ascending order, applying each
// column's updates to the task's elements of it and scaling them.
//
// The result is bit-for-bit equal to numeric.Factorize: updates are
// applied in the serial left-looking chain order (numeric.Chains) with the
// identical association, so every element sees exactly the serial sequence
// of floating-point operations regardless of how the tasks interleave.
// That makes the run deterministic and the comm-aware makespan simulators
// falsifiable — the same task graph they predict is what actually runs.
//
// tasks must be topologically ordered by ID with processors in [0, p), and
// elemTask must assign every factor position to a task; malformed inputs
// are reported as errors (the validator is shared with ParallelSolve),
// never as panics or races.
func ParallelFactorize2D(m *sparse.Matrix, f *symbolic.Factor, p int, tasks []Task, elemTask []int32) (*NumericFactor, error) {
	nf, _, err := runFactorize2D(m, f, p, tasks, elemTask, false, false)
	return nf, err
}

// ParallelFactorize2DLDL is ParallelFactorize2D with the square-root-free
// LDLᵀ kernel; its result is bit-for-bit equal to numeric.FactorizeLDL.
func ParallelFactorize2DLDL(m *sparse.Matrix, f *symbolic.Factor, p int, tasks []Task, elemTask []int32) (*NumericFactor, error) {
	nf, _, err := runFactorize2D(m, f, p, tasks, elemTask, true, false)
	return nf, err
}

// engine2D is the shared state of one parallel 2D factorization run.
type engine2D struct {
	f         *symbolic.Factor
	val       []float64
	colOf     []int32
	head, pos []int32 // the serial update schedule (numeric.Chains)
	ldl       bool
}

// runFactorize2D validates the inputs, builds the run state and executes
// the task graph. With record set it timestamps every task execution
// (nanoseconds since the workers started) and returns the events sorted by
// task ID.
func runFactorize2D(m *sparse.Matrix, f *symbolic.Factor, p int, tasks []Task, elemTask []int32, ldl, record bool) (*NumericFactor, []TaskEvent, error) {
	if m.Val == nil {
		return nil, nil, fmt.Errorf("exec: matrix has no values")
	}
	if m.N != f.N {
		return nil, nil, fmt.Errorf("exec: dimension mismatch %d vs %d", m.N, f.N)
	}
	if err := checkProcCount(p); err != nil {
		return nil, nil, err
	}
	if err := checkTasks(tasks, p); err != nil {
		return nil, nil, err
	}
	if len(elemTask) != f.NNZ() {
		return nil, nil, fmt.Errorf("exec: element-task map covers %d positions, factor has %d", len(elemTask), f.NNZ())
	}
	// Group every task's elements: ascending positions, so a task spanning
	// several columns holds them as one run per column, in column order.
	taskElems := make([][]int32, len(tasks))
	for q, t := range elemTask {
		if t < 0 || int(t) >= len(tasks) {
			return nil, nil, fmt.Errorf("exec: position %d mapped to out-of-range task %d", q, t)
		}
		taskElems[t] = append(taskElems[t], int32(q))
	}
	head, pos := numeric.Chains(f)
	e := &engine2D{
		f:     f,
		val:   numeric.ScatterA(m, f),
		colOf: f.ColIndex(),
		head:  head,
		pos:   pos,
		ldl:   ldl,
	}
	perProc := make([][]int32, p)
	for i := range tasks {
		perProc[tasks[i].Proc] = append(perProc[tasks[i].Proc], int32(i))
	}
	done := make([]chan struct{}, len(tasks))
	for i := range done {
		done[i] = make(chan struct{})
	}
	abort := make(chan struct{})
	var failOnce sync.Once
	var firstErr error
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			close(abort)
		})
	}

	var events [][]TaskEvent
	var t0 time.Time
	if record {
		events = make([][]TaskEvent, p)
		//repro:allow nondeterminism -- t0 anchors measurement-only trace timestamps; factor values never see it (TestMeasureRealEvents checks the trace, TestParallelFactorizeBitIdentity pins the numerics)
		t0 = time.Now()
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		//repro:allow nondeterminism -- one worker per processor over the task DAG (tile segments, columns or unit blocks); every element replays the serial chain order, pinned bitwise by TestParallelFactorizeBitIdentity and TestFactorizeParallelEveryPlanBitIdentical under -race
		go func(proc int) {
			defer wg.Done()
			mine := perProc[proc]
			if len(mine) == 0 {
				return
			}
			// Per-worker scatter of the task's rows; stamp keys validity.
			tpos := make([]int32, f.N)
			stamp := make([]int32, f.N)
			round := int32(0)
			var prevFinish int64
			for _, ti := range mine {
				cause := int32(-1)
				for _, pr := range tasks[ti].Preds {
					select {
					case <-done[pr]:
					default:
						// This predecessor actually blocks us: record it
						// as the stall cause, like the simulators do.
						select {
						case <-done[pr]:
							cause = pr
						case <-abort:
							return
						}
					}
				}
				var start int64
				if record {
					start = time.Since(t0).Nanoseconds()
				}
				if err := e.computeTask(taskElems[ti], tpos, stamp, &round); err != nil {
					fail(err)
					return
				}
				close(done[ti])
				if record {
					finish := time.Since(t0).Nanoseconds()
					events[proc] = append(events[proc], TaskEvent{
						Task: ti, Proc: int32(proc),
						Start: start, Finish: finish,
						Work:  finish - start,
						Stall: start - prevFinish, Cause: cause,
					})
					prevFinish = finish
				}
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	var evs []TaskEvent
	if record {
		for _, pe := range events {
			evs = append(evs, pe...)
		}
		sort.Slice(evs, func(a, b int) bool { return evs[a].Task < evs[b].Task })
	}
	return &NumericFactor{F: f, Val: e.val}, evs, nil
}

// computeTask runs one task: its elements (ascending positions) split
// into one run per column, processed in ascending column order. Each run
// takes a fresh stamp round of the worker-local scatter arrays, applies
// its column's updates in the serial chain order, then scales. A run may
// read elements of the task's earlier runs, which are final by then.
func (e *engine2D) computeTask(elems []int32, tpos, stamp []int32, round *int32) error {
	for len(elems) > 0 {
		j := int(e.colOf[elems[0]])
		end := int32(e.f.ColPtr[j+1])
		n := len(elems)
		if elems[n-1] >= end {
			n = 1
			for elems[n] < end {
				n++
			}
		}
		*round++
		if err := e.computeColumn(j, elems[:n], tpos, stamp, *round); err != nil {
			return err
		}
		elems = elems[n:]
	}
	return nil
}

// computeColumn applies column j's updates to elems, ascending positions
// of column j, in the serial chain order, then scales them.
func (e *engine2D) computeColumn(j int, elems []int32, tpos, stamp []int32, round int32) error {
	f := e.f
	val := e.val
	diag := int32(f.ColPtr[j])
	for _, q := range elems {
		i := f.RowInd[q]
		tpos[i] = q
		stamp[i] = round
	}
	for ci := e.head[j]; ci < e.head[j+1]; ci++ {
		p := e.pos[ci]
		k := int(e.colOf[p])
		end := int32(f.ColPtr[k+1])
		// ljk (and D[k] for LDL) are loaded lazily, on the first row this
		// run owns: the update (i, j) <- (i, k), (j, k) then guarantees
		// both sources are in this task's predecessors or in an earlier
		// run of this task, so the reads are synchronized. A chain entry
		// touching none of the run's rows must not read column k at all —
		// its tasks may still be in flight.
		loaded := false
		var ljk, dk float64
		for q := p; q < end; q++ {
			i := f.RowInd[q]
			if stamp[i] != round {
				continue
			}
			if !loaded {
				ljk = val[p]
				if e.ldl {
					dk = val[f.ColPtr[k]]
				}
				loaded = true
			}
			if e.ldl {
				val[tpos[i]] -= val[q] * dk * ljk
			} else {
				val[tpos[i]] -= val[q] * ljk
			}
		}
	}
	if elems[0] == diag {
		// This task owns the diagonal: compute the pivot (identical checks
		// to the serial kernels, rejecting non-finite pivots) and scale its
		// own off-diagonal elements.
		pivot := val[diag]
		var d float64
		if e.ldl {
			if pivot == 0 || math.IsNaN(pivot) || math.IsInf(pivot, 0) {
				return fmt.Errorf("exec: unusable pivot %g at column %d (want finite nonzero)", pivot, j)
			}
			d = pivot
		} else {
			if pivot <= 0 || math.IsNaN(pivot) || math.IsInf(pivot, 0) {
				return fmt.Errorf("exec: unusable pivot %g at column %d (want finite positive)", pivot, j)
			}
			d = math.Sqrt(pivot)
			val[diag] = d
		}
		for _, q := range elems[1:] {
			val[q] /= d
		}
	} else {
		// The diagonal belongs to another task; the scale dependency
		// (ForEachScale in the task graph) guarantees it is final.
		d := val[diag]
		for _, q := range elems {
			val[q] /= d
		}
	}
	return nil
}
