package traffic

import "fmt"

// FetchDedup tracks distinct (element, processor) first fetches — the
// deduplication rule of the paper's caching model ("once a data element
// is fetched, that element is stored locally"), shared by every traffic
// simulator in this package and by the 2D tile simulator
// (part2d.Traffic). Processor counts of at most 64 use a per-element
// bitmask; wider counts fall back to a map keyed elem<<32|proc. The same
// split serves any other distinct-pair set over a small index space, such
// as the (task, source processor) message set of the fetch attribution.
type FetchDedup struct {
	mask []uint64
	wide map[int64]struct{}
}

// NewFetchDedup sizes the tracker for a factor with nnz elements
// scheduled on p processors.
func NewFetchDedup(p, nnz int) *FetchDedup {
	if p < 1 {
		panic(fmt.Sprintf("traffic: invalid processor count %d", p))
	}
	if p > 64 {
		return &FetchDedup{wide: make(map[int64]struct{})}
	}
	return &FetchDedup{mask: make([]uint64, nnz)}
}

// FirstFetch reports whether processor proc fetches elem for the first
// time, marking the pair seen. The bitmask path is small enough to inline
// into the fetch passes' inner loops.
func (d *FetchDedup) FirstFetch(elem, proc int32) bool {
	if d.mask == nil {
		return d.firstWide(elem, proc)
	}
	bit := uint64(1) << uint(proc)
	m := d.mask[elem]
	d.mask[elem] = m | bit
	return m&bit == 0
}

func (d *FetchDedup) firstWide(elem, proc int32) bool {
	key := int64(elem)<<32 | int64(proc)
	if _, ok := d.wide[key]; ok {
		return false
	}
	d.wide[key] = struct{}{}
	return true
}
