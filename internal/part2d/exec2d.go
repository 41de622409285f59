package part2d

import (
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/sparse"
)

// Measure times the serial factorization against the parallel execution of
// s's task graph (repeat-and-min, bit-identity verified on every run) and
// returns the wall-clock Measurement with per-task real TaskEvents.
func Measure(m *sparse.Matrix, ops *model.Ops, elemWork []int64, s *Schedule2D, opts exec.MeasureOptions) (*exec.Measurement, error) {
	tasks, elemTask := Tasks(ops, elemWork, s)
	return exec.MeasureFactorize(m, ops.F, s.P, tasks, elemTask, opts)
}
