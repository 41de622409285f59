// Package symbolic implements the symbolic factorization phase of sparse
// Cholesky: the elimination tree, the nonzero structure of the factor L,
// and the detection of fundamental supernodes.
//
// The paper's partitioner (Section 3) "starts with the zero-nonzero
// structure of the filled sparse matrix obtained after the symbolic
// factorization phase has been completed"; this package produces that
// structure. Supernodes are the "clusters" of Section 3.1: strips of
// consecutive columns with a dense triangular block at the top and dense
// rectangular blocks below.
package symbolic

import (
	"fmt"

	"repro/internal/sparse"
)

// Factor holds the nonzero structure of the Cholesky factor L of a
// symmetric matrix, in compressed sparse column form over the lower
// triangle. The first entry of every column is its diagonal; row indices
// are strictly increasing within a column.
type Factor struct {
	N      int
	ColPtr []int
	RowInd []int
	// Parent is the elimination tree: Parent[j] is the parent of column j,
	// or -1 for a root.
	Parent []int
}

// NNZ returns the number of structural nonzeros of L (lower, incl. diag).
func (f *Factor) NNZ() int { return len(f.RowInd) }

// Col returns the sorted row indices of column j, including the diagonal.
// The slice aliases internal storage.
func (f *Factor) Col(j int) []int { return f.RowInd[f.ColPtr[j]:f.ColPtr[j+1]] }

// ColLen returns the number of nonzeros in column j including the diagonal.
func (f *Factor) ColLen(j int) int { return f.ColPtr[j+1] - f.ColPtr[j] }

// ColIndex maps every factor nonzero position to its column.
func (f *Factor) ColIndex() []int32 {
	colOf := make([]int32, f.NNZ())
	for j := 0; j < f.N; j++ {
		for q := f.ColPtr[j]; q < f.ColPtr[j+1]; q++ {
			colOf[q] = int32(j)
		}
	}
	return colOf
}

// Has reports whether position (i, j), i >= j, is in the factor structure.
func (f *Factor) Has(i, j int) bool {
	col := f.Col(j)
	lo, hi := 0, len(col)
	for lo < hi {
		mid := (lo + hi) / 2
		if col[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(col) && col[lo] == i
}

// Pattern converts the factor structure to a sparse.Matrix pattern
// (no values), e.g. for spy plots.
func (f *Factor) Pattern() *sparse.Matrix {
	return &sparse.Matrix{
		N:      f.N,
		ColPtr: append([]int(nil), f.ColPtr...),
		RowInd: append([]int(nil), f.RowInd...),
	}
}

// EliminationTree computes the elimination tree of the symmetric matrix m
// using Liu's algorithm with path compression. parent[j] = -1 marks roots.
//
// Entries must be processed grouped by row in increasing row order (the
// ancestor pointers are only monotone under that schedule), so the lower
// triangle is first bucketed into row lists.
func EliminationTree(m *sparse.Matrix) []int {
	n := m.N
	// rows[i] = columns j < i with A[i][j] != 0.
	counts := make([]int, n)
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			counts[i]++
		}
	}
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, 0, counts[i])
	}
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j)[1:] {
			rows[i] = append(rows[i], j)
		}
	}
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		ancestor[i] = -1
		for _, j := range rows[i] {
			// Walk from j to the root of its subtree, compressing the path
			// onto i and grafting the root under i.
			for j != -1 && j < i {
				next := ancestor[j]
				ancestor[j] = i
				if next == -1 {
					parent[j] = i
				}
				j = next
			}
		}
	}
	return parent
}

// PostOrder returns a postordering of the forest given by parent:
// every node appears after all of its children. Children are visited in
// increasing order, making the result deterministic.
func PostOrder(parent []int) []int {
	n := len(parent)
	head := make([]int, n) // first child
	next := make([]int, n) // next sibling
	for i := range head {
		head[i] = -1
		next[i] = -1
	}
	var roots []int
	// Build child lists in decreasing order so traversal sees increasing.
	for j := n - 1; j >= 0; j-- {
		p := parent[j]
		if p == -1 {
			roots = append(roots, j)
			continue
		}
		next[j] = head[p]
		head[p] = j
	}
	// roots currently in decreasing order; reverse for determinism.
	for i, k := 0, len(roots)-1; i < k; i, k = i+1, k-1 {
		roots[i], roots[k] = roots[k], roots[i]
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, 64)
	var childBuf []int
	for _, r := range roots {
		stack = append(stack, r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if head[v] != -1 {
				// Push children in reverse so they pop in increasing order.
				childBuf = childBuf[:0]
				for c := head[v]; c != -1; c = next[c] {
					childBuf = append(childBuf, c)
				}
				head[v] = -1 // children pushed once
				for k := len(childBuf) - 1; k >= 0; k-- {
					stack = append(stack, childBuf[k])
				}
				continue
			}
			stack = stack[:len(stack)-1]
			post = append(post, v)
		}
	}
	if len(post) != n {
		panic(fmt.Sprintf("symbolic: postorder produced %d of %d", len(post), n))
	}
	return post
}

// Analyze computes the full symbolic factorization of m: the elimination
// tree and the complete nonzero structure of L. It runs in time
// proportional to the size of the output structure.
func Analyze(m *sparse.Matrix) *Factor {
	n := m.N
	parent := EliminationTree(m)
	// Children lists.
	childHead := make([]int, n)
	childNext := make([]int, n)
	for i := range childHead {
		childHead[i] = -1
		childNext[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		if p := parent[j]; p != -1 {
			childNext[j] = childHead[p]
			childHead[p] = j
		}
	}
	// Column merge: struct(j) = Acol(j) U union over children c of
	// (struct(c) minus {c}), all restricted to rows >= j.
	cols := make([][]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		var buf []int
		mark[j] = j
		buf = append(buf, j)
		for _, i := range m.Col(j)[1:] {
			if mark[i] != j {
				mark[i] = j
				buf = append(buf, i)
			}
		}
		for c := childHead[j]; c != -1; c = childNext[c] {
			for _, i := range cols[c][1:] { // skip child's diagonal
				if i == j {
					continue
				}
				if mark[i] != j {
					mark[i] = j
					buf = append(buf, i)
				}
			}
		}
		sortInts(buf)
		cols[j] = buf
	}
	f := &Factor{N: n, ColPtr: make([]int, n+1), Parent: parent}
	nnz := 0
	for j := 0; j < n; j++ {
		nnz += len(cols[j])
	}
	f.RowInd = make([]int, 0, nnz)
	for j := 0; j < n; j++ {
		f.ColPtr[j] = len(f.RowInd)
		f.RowInd = append(f.RowInd, cols[j]...)
	}
	f.ColPtr[n] = len(f.RowInd)
	return f
}

// sortInts is an insertion/quick hybrid for the small per-column buffers.
func sortInts(a []int) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			for k := i; k > 0 && a[k] < a[k-1]; k-- {
				a[k], a[k-1] = a[k-1], a[k]
			}
		}
		return
	}
	quickSortInts(a)
}

func quickSortInts(a []int) {
	for len(a) > 24 {
		p := partitionInts(a)
		if p < len(a)-p {
			quickSortInts(a[:p])
			a = a[p+1:]
		} else {
			quickSortInts(a[p+1:])
			a = a[:p]
		}
	}
	for i := 1; i < len(a); i++ {
		for k := i; k > 0 && a[k] < a[k-1]; k-- {
			a[k], a[k-1] = a[k-1], a[k]
		}
	}
}

func partitionInts(a []int) int {
	mid := len(a) / 2
	if a[mid] < a[0] {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[len(a)-1] < a[mid] {
		a[len(a)-1], a[mid] = a[mid], a[len(a)-1]
		if a[mid] < a[0] {
			a[mid], a[0] = a[0], a[mid]
		}
	}
	pivot := a[mid]
	a[mid], a[len(a)-2] = a[len(a)-2], a[mid]
	i := 0
	for k := 1; k < len(a)-2; k++ {
		if a[k] < pivot {
			i++
			if i != k {
				a[i], a[k] = a[k], a[i]
			}
		}
	}
	a[i+1], a[len(a)-2] = a[len(a)-2], a[i+1]
	return i + 1
}

// FillIn returns the number of structural nonzeros added by factorization.
func FillIn(m *sparse.Matrix, f *Factor) int { return f.NNZ() - m.NNZ() }

// Supernodes returns the fundamental supernode partition of the factor:
// starts[k] is the first column of supernode k, and starts has one extra
// final entry equal to N. Columns j-1 and j share a supernode iff
// Parent[j-1] == j and ColLen(j-1) == ColLen(j)+1, the classical
// fundamental-supernode condition (structure containment along the etree
// makes the count test exact).
func (f *Factor) Supernodes() []int {
	starts := []int{}
	for j := 0; j < f.N; j++ {
		if j == 0 {
			starts = append(starts, 0)
			continue
		}
		if f.Parent[j-1] == j && f.ColLen(j-1) == f.ColLen(j)+1 {
			continue
		}
		starts = append(starts, j)
	}
	starts = append(starts, f.N)
	return starts
}
