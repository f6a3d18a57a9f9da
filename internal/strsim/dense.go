package strsim

// Dense-ID similarity kernels. A Corpus interns literal tokens to dense
// uint32 IDs once and calls these kernels per literal comparison; they
// are the inner loop of the similarity vectors at scale, so they follow
// the //remp:hotpath contract — no allocation, no maps, sorted
// slices and integer compares only. Equivalence with the string-set
// measures is exact: interning is a bijection on the token strings, so
// set sizes and intersection sizes — the only inputs to the coefficients
// — are identical, and the float math is byte-for-byte the same.

// IntersectionSizeIDs returns |a ∩ b| for ascending []uint32 token sets.
//
//remp:hotpath
func IntersectionSizeIDs(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// JaccardIDs returns |a∩b| / |a∪b| for ascending dense token-ID sets,
// byte-identical to Jaccard over the equivalent sorted string sets.
//
//remp:hotpath
func JaccardIDs(a, b []uint32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := IntersectionSizeIDs(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
