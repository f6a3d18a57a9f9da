package strsim

// Dense-ID similarity kernels. The indexed pre-pipeline interns tokens to
// dense uint32 IDs once per KB load and calls these kernels per candidate
// pair; they are the per-pair inner loop of blocking at scale, so they
// follow the //remp:hotpath contract — no allocation, no maps, sorted
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

// JaccardUpperBound returns the largest Jaccard similarity any pair of
// sets with the given sizes can reach: min/max (attained when the smaller
// set is contained in the larger). Blocking uses it as a length-bucket
// prefilter: when the bound is already below the threshold the
// intersection is never computed. Because IEEE division is correctly
// rounded (hence monotone in the exact numerator and denominator), the
// returned float is ≥ the float JaccardIDs would compute for any
// realizable intersection, so filtering on it can never drop a pair the
// exact comparison would keep.
//
//remp:hotpath
func JaccardUpperBound(la, lb int) float64 {
	if la == 0 || lb == 0 {
		return 0
	}
	if la > lb {
		la, lb = lb, la
	}
	return float64(la) / float64(lb)
}
