package traffic

import "testing"

// TestFetchDedupWideKeysDistinct: above 64 processors the dedup set keys
// (element, processor) pairs in a map; processor ids of 65536 and more must
// not spill into the element bits, or a second element's first fetch is
// dropped from the traffic.
func TestFetchDedupWideKeysDistinct(t *testing.T) {
	d := NewFetchDedup(70000, 2)
	if !d.FirstFetch(0, 65536) {
		t.Fatal("first fetch of (elem 0, proc 65536) reported as a repeat")
	}
	if !d.FirstFetch(1, 0) {
		t.Fatal("first fetch of (elem 1, proc 0) collided with (elem 0, proc 65536)")
	}
	if d.FirstFetch(0, 65536) || d.FirstFetch(1, 0) {
		t.Fatal("repeated fetches not deduplicated")
	}
}
