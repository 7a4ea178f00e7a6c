// Package retire is the bounded retired-key set the analysis caches share.
// After an invalidation a cache marks the replaced keys (programs in a
// Session, LTPs in a summary.BlockSet) retired, so a check that was
// already in flight may still present them but nothing it derives is
// admitted again: no later caller holds those keys, so admitted entries
// would leak for the cache's lifetime.
//
// A Set holds its keys strongly and keeps only the most recently retired
// ones. Dropping the oldest is safe: a straggler that presents a key older
// than the cap only has its derived state memoized again, which costs
// memory but never changes a verdict.
package retire

// Cap is the number of most recently retired keys a Set holds.
const Cap = 128

// EntryBytes is the SizeBytes cost of one key: its map entry and its ring
// slot.
const EntryBytes = 24

// Set is a set of at most Cap keys that drops the oldest first. The zero
// Set is empty and ready to use. A Set is not safe for concurrent use; the
// cache that owns it guards it with its own lock.
type Set[K comparable] struct {
	member map[K]struct{}
	// ring holds the keys in retirement order; once it holds Cap, next is
	// the slot of the oldest, which the next Add overwrites.
	ring []K
	next int
}

// Add retires the key, dropping the oldest key when the set is full.
func (s *Set[K]) Add(k K) {
	if _, ok := s.member[k]; ok {
		return
	}
	if s.member == nil {
		s.member = make(map[K]struct{})
	}
	if len(s.ring) < Cap {
		s.ring = append(s.ring, k)
	} else {
		delete(s.member, s.ring[s.next])
		s.ring[s.next] = k
		s.next = (s.next + 1) % Cap
	}
	s.member[k] = struct{}{}
}

// Has reports whether the key is retired. It never allocates.
func (s *Set[K]) Has(k K) bool {
	_, ok := s.member[k]
	return ok
}

// Len returns the number of keys held.
func (s *Set[K]) Len() int { return len(s.ring) }

// SizeBytes estimates the set's resident memory.
func (s *Set[K]) SizeBytes() int64 { return int64(len(s.ring)) * EntryBytes }
