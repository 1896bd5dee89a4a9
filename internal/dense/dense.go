// Package dense holds the one helper behind the scale tier's
// dense-index convention (DESIGN.md §12): grow-on-demand flat slices
// keyed by node or query ID — the byte counters of internal/metrics and
// the basestation's one table by wire query ID (its query records,
// gossiped packets and retry mappings) — shared so the idiom cannot
// drift between packages. Bitsets grow otherwise: core.Bitmap in its
// network's blocks, to the word asked for.
package dense

// Grow returns s extended with zero values so index i is valid.
// Growth over-allocates ~1.5× so repeated one-past-the-end growth is
// amortised O(1).
func Grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	if cap(s) <= i {
		ns := make([]T, len(s), i+1+i/2)
		copy(ns, s)
		s = ns
	}
	var zero T
	for len(s) <= i {
		s = append(s, zero)
	}
	return s
}
