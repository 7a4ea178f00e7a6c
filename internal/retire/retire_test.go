package retire

import "testing"

// TestSetDropsOldest: the set keeps the Cap most recently retired keys,
// ignores a repeated key and drops the oldest once full.
func TestSetDropsOldest(t *testing.T) {
	var s Set[int]
	if s.Has(0) || s.Len() != 0 || s.SizeBytes() != 0 {
		t.Fatalf("zero set not empty: len %d", s.Len())
	}
	for k := range Cap {
		s.Add(k)
		s.Add(k)
	}
	if s.Len() != Cap {
		t.Fatalf("len %d after %d distinct keys, want %d", s.Len(), Cap, Cap)
	}
	for k := Cap; k < 3*Cap+7; k++ {
		s.Add(k)
		if s.Len() != Cap {
			t.Fatalf("len %d after adding %d, want %d", s.Len(), k, Cap)
		}
		if s.Has(k-Cap) || !s.Has(k-Cap+1) || !s.Has(k) {
			t.Fatalf("after adding %d: want exactly %d..%d held", k, k-Cap+1, k)
		}
	}
	if got, want := s.SizeBytes(), int64(Cap*EntryBytes); got != want {
		t.Errorf("SizeBytes %d, want %d", got, want)
	}
}

// TestSetHasZeroAlloc: a lookup allocates nothing, on an empty set or a
// full one, so a cache can consult it on every admission.
func TestSetHasZeroAlloc(t *testing.T) {
	var s Set[*int]
	p := new(int)
	if a := testing.AllocsPerRun(100, func() { s.Has(p) }); a != 0 {
		t.Errorf("Has on an empty set: %v allocs", a)
	}
	for range Cap + 1 {
		s.Add(new(int))
	}
	if a := testing.AllocsPerRun(100, func() { s.Has(p) }); a != 0 {
		t.Errorf("Has on a full set: %v allocs", a)
	}
}
