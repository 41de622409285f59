package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// The host a run lands on changes speed while it runs: on the shared
// two-core reference box one fixed request takes up to 1.7 times as long
// in a slow stretch as in a fast one, and the stretches last from seconds
// to minutes, so the medians of whole runs differ by a quarter or more
// from run to run with no change in the code. A run therefore times a
// fixed probe between its operations and reports every latency scaled to
// the probe's reference speed: a sample taken while the probe runs at
// 1.3 times its reference time counts as the sample divided by 1.3.
//
// The probe is the benchmark's own code, not the program's, so a change
// to the program moves the scaled figures exactly as it moves the wall
// clock. It is a miniature of the solver's kinds of work — a sparse
// left-looking Cholesky and its triangular solves (indexed floating-point
// loads), a minimum-degree elimination (branchy integer work), a sort and
// value hashing — because the slow stretches slow these by different
// amounts (the hashing hardly at all, an indexed floating-point loop by
// more than the solver), and a mix of them tracks the solver best. It
// allocates nothing once built, so the program's heap does not reach it.

const (
	// probeEvery is the least wall time between two probes.
	probeEvery = 25 * time.Millisecond
	// probeWindow widens a sample's interval on both sides; the probes
	// inside it give the sample's speed index.
	probeWindow = 500 * time.Millisecond
	// probeGrid is the side of the probe's grids.
	probeGrid = 12
)

// probeNominalUs are the probe kernels' times in microseconds at the
// reference speed: their medians in a fast stretch of the two-core
// reference box. They only fix the scale; the index is their ratio to the
// times measured.
var probeNominalUs = [numKernels]float64{34, 13, 93, 48, 15}

const (
	kernelCholesky = iota
	kernelSolve
	kernelElim
	kernelSort
	kernelHash
	numKernels
)

// speedProbe holds the probe's fixed inputs and every buffer it uses.
type speedProbe struct {
	// n and bw size the banded 9-point grid matrix A; colPtr, rowInd and
	// aVal are its lower triangle, lPtr and lRow the pattern of its
	// Cholesky factor (the full band), lVal the factor's values. rowPtr
	// and rowCol list, for each row, the earlier columns of L holding it,
	// and rowPos where in lVal that entry is.
	n, bw             int
	colPtr, rowInd    []int32
	aVal              []float64
	lPtr, lRow        []int32
	lVal, w, x, b     []float64
	rowPtr, rowCol    []int32
	rowPos            []int32
	adj               [][]int32 // elimination graph, fixed capacity
	adjLen            []int32
	done              []bool
	mark              []int32
	keys, sorted      []int32
	vals              []float64
	hashBuf           []byte
	sink              float64
	times             [numKernels]time.Duration
	kernels           [numKernels]func()
	elimSide, elimCap int
	elimNbr           []int32
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{n: probeGrid * probeGrid, bw: probeGrid + 1}
	k := probeGrid
	p.colPtr = make([]int32, p.n+1)
	for j := 0; j < p.n; j++ {
		r, c := j/k, j%k
		p.rowInd = append(p.rowInd, int32(j))
		p.aVal = append(p.aVal, 8.5)
		for _, d := range [][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}} {
			rr, cc := r+d[0], c+d[1]
			if rr < k && cc >= 0 && cc < k {
				p.rowInd = append(p.rowInd, int32(rr*k+cc))
				p.aVal = append(p.aVal, -1)
			}
		}
		p.colPtr[j+1] = int32(len(p.rowInd))
	}
	p.lPtr = make([]int32, p.n+1)
	for j := 0; j < p.n; j++ {
		for i := j; i < p.n && i <= j+p.bw; i++ {
			p.lRow = append(p.lRow, int32(i))
		}
		p.lPtr[j+1] = int32(len(p.lRow))
	}
	p.lVal = make([]float64, len(p.lRow))
	p.rowPtr = make([]int32, p.n+1)
	for j := 0; j < p.n; j++ {
		for q := p.lPtr[j] + 1; q < p.lPtr[j+1]; q++ {
			p.rowPtr[p.lRow[q]+1]++
		}
	}
	for i := 0; i < p.n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	p.rowCol = make([]int32, p.rowPtr[p.n])
	p.rowPos = make([]int32, p.rowPtr[p.n])
	next := append([]int32(nil), p.rowPtr[:p.n]...)
	for j := 0; j < p.n; j++ {
		for q := p.lPtr[j] + 1; q < p.lPtr[j+1]; q++ {
			i := p.lRow[q]
			p.rowCol[next[i]], p.rowPos[next[i]] = int32(j), q
			next[i]++
		}
	}
	p.w = make([]float64, p.n)
	p.x = make([]float64, p.n)
	p.b = make([]float64, p.n)
	rng := rand.New(rand.NewSource(1))
	for i := range p.b {
		p.b[i] = 2*rng.Float64() - 1
	}

	// The elimination graph is a 5-point grid of side elimSide; each
	// vertex keeps at most elimCap neighbours.
	p.elimSide, p.elimCap = 12, 24
	m := p.elimSide * p.elimSide
	p.adj = make([][]int32, m)
	for v := range p.adj {
		p.adj[v] = make([]int32, p.elimCap)
	}
	p.adjLen = make([]int32, m)
	p.done = make([]bool, m)
	p.mark = make([]int32, m)
	p.elimNbr = make([]int32, 0, p.elimCap)

	p.keys = make([]int32, 1024)
	for i, v := range rng.Perm(len(p.keys)) {
		p.keys[i] = int32(v)
	}
	p.sorted = make([]int32, len(p.keys))
	p.vals = make([]float64, 2048)
	for i := range p.vals {
		p.vals[i] = rng.NormFloat64()
	}
	p.hashBuf = make([]byte, 8*len(p.vals))
	p.kernels = [numKernels]func(){p.cholesky, p.solve, p.eliminate, p.sort, p.hash}
	return p
}

// cholesky factors the banded grid matrix left-looking: scatter column j
// of A, subtract every earlier column that holds row j, gather.
func (p *speedProbe) cholesky() {
	for j := 0; j < p.n; j++ {
		for q := p.lPtr[j]; q < p.lPtr[j+1]; q++ {
			p.w[p.lRow[q]] = 0
		}
		for q := p.colPtr[j]; q < p.colPtr[j+1]; q++ {
			p.w[p.rowInd[q]] = p.aVal[q]
		}
		for r := p.rowPtr[j]; r < p.rowPtr[j+1]; r++ {
			k, ljk := p.rowCol[r], p.lVal[p.rowPos[r]]
			for q := p.rowPos[r]; q < p.lPtr[k+1]; q++ {
				p.w[p.lRow[q]] -= p.lVal[q] * ljk
			}
		}
		d := math.Sqrt(p.w[j])
		p.lVal[p.lPtr[j]] = d
		for q := p.lPtr[j] + 1; q < p.lPtr[j+1]; q++ {
			p.lVal[q] = p.w[p.lRow[q]] / d
		}
	}
}

// solve runs the forward and backward sweeps with the factor twice.
func (p *speedProbe) solve() {
	for rep := 0; rep < 2; rep++ {
		copy(p.x, p.b)
		for j := 0; j < p.n; j++ {
			p.x[j] /= p.lVal[p.lPtr[j]]
			xj := p.x[j]
			for q := p.lPtr[j] + 1; q < p.lPtr[j+1]; q++ {
				p.x[p.lRow[q]] -= p.lVal[q] * xj
			}
		}
		for j := p.n - 1; j >= 0; j-- {
			s := p.x[j]
			for q := p.lPtr[j] + 1; q < p.lPtr[j+1]; q++ {
				s -= p.lVal[q] * p.x[p.lRow[q]]
			}
			p.x[j] = s / p.lVal[p.lPtr[j]]
		}
		p.sink += p.x[0]
	}
}

// eliminate orders the 5-point grid graph by minimum degree: it takes the
// vertex of least degree, makes its neighbours a clique (up to each
// vertex's capacity) and drops it from the graph.
func (p *speedProbe) eliminate() {
	s := p.elimSide
	for v := range p.adj {
		p.adjLen[v] = 0
		p.done[v] = false
		p.mark[v] = -1
	}
	link := func(u, v int32) {
		if p.adjLen[u] < int32(p.elimCap) {
			p.adj[u][p.adjLen[u]] = v
			p.adjLen[u]++
		}
	}
	for v := 0; v < s*s; v++ {
		if v%s+1 < s {
			link(int32(v), int32(v+1))
			link(int32(v+1), int32(v))
		}
		if v+s < s*s {
			link(int32(v), int32(v+s))
			link(int32(v+s), int32(v))
		}
	}
	for step := int32(0); step < int32(s*s); step++ {
		best, deg := int32(-1), int32(math.MaxInt32)
		for v := range p.adj {
			if !p.done[v] && p.adjLen[v] < deg {
				best, deg = int32(v), p.adjLen[v]
			}
		}
		p.done[best] = true
		nbr := p.elimNbr[:0]
		for _, u := range p.adj[best][:p.adjLen[best]] {
			if !p.done[u] {
				nbr = append(nbr, u)
			}
		}
		for _, u := range nbr {
			// Drop best from u's list and mark u's remaining neighbours.
			l := p.adj[u][:p.adjLen[u]]
			k := 0
			for _, x := range l {
				if x != best {
					l[k] = x
					k++
					p.mark[x] = step*int32(s*s) + u
				}
			}
			p.adjLen[u] = int32(k)
			for _, x := range nbr {
				if x != u && p.mark[x] != step*int32(s*s)+u {
					link(u, x)
				}
			}
		}
		p.adjLen[best] = 0
	}
}

func (p *speedProbe) sort() {
	copy(p.sorted, p.keys)
	slices.Sort(p.sorted)
}

// hash digests the probe's values by bit pattern, as the artifact store
// digests matrix values.
func (p *speedProbe) hash() {
	for i, v := range p.vals {
		binary.LittleEndian.PutUint64(p.hashBuf[8*i:], math.Float64bits(v))
	}
	h := sha256.Sum256(p.hashBuf)
	p.sink += float64(h[0])
}

// measure returns the speed index: the geometric mean of the kernels'
// times over their reference times, so 1 at the reference speed and above
// 1 when the host is slower. Each kernel runs once untimed first, so its
// data are in cache whatever the operation before the probe left there.
func (p *speedProbe) measure() float64 {
	var logSum float64
	for k, f := range p.kernels {
		f()
		start := time.Now()
		f()
		p.times[k] = time.Since(start)
		logSum += math.Log(float64(p.times[k].Nanoseconds()) / 1e3 / probeNominalUs[k])
	}
	return math.Exp(logSum / numKernels)
}

// speedTrack is a run's clock and the speed indexes probed along it.
type speedTrack struct {
	probe *speedProbe
	t0    time.Time
	last  time.Time
	at    []time.Duration // probe times since t0, ascending
	index []float64
}

func newSpeedTrack() *speedTrack {
	return &speedTrack{probe: newSpeedProbe(), t0: time.Now()}
}

// now is the time since the run's clock started.
func (s *speedTrack) now() time.Duration { return time.Since(s.t0) }

// measure probes the host now.
func (s *speedTrack) measure() {
	t := s.now()
	s.index = append(s.index, s.probe.measure())
	s.at = append(s.at, t)
	s.last = time.Now()
}

// maybe probes the host when probeEvery has passed since the last probe.
func (s *speedTrack) maybe() {
	if time.Since(s.last) >= probeEvery {
		s.measure()
	}
}

// scaled are the values of xs, each divided by the speed index of its
// interval: the times they would have taken at the probe's reference
// speed.
func (s *speedTrack) scaled(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.v / s.over(x.from, x.to)
	}
	return out
}

// over is the speed index of the interval [from, to]: the median index of
// the probes within probeWindow of it, or of the nearest probe when none
// is.
func (s *speedTrack) over(from, to time.Duration) float64 {
	if len(s.at) == 0 {
		return 1
	}
	lo := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= from-probeWindow })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i] > to+probeWindow })
	if lo < hi {
		return median(s.index[lo:hi])
	}
	if lo == len(s.at) || lo > 0 && from-s.at[lo-1] < s.at[lo]-to {
		lo--
	}
	return s.index[lo]
}
