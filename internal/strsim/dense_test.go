package strsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestJaccardIDsMatchesStrings: interning token sets to dense IDs leaves
// the Jaccard float byte-identical.
func TestJaccardIDsMatchesStrings(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		na, nb := r.Intn(8), r.Intn(8)
		la := make([]string, 0, na)
		lb := make([]string, 0, nb)
		for j := 0; j < na; j++ {
			la = append(la, fmt.Sprintf("t%d", r.Intn(10)))
		}
		for j := 0; j < nb; j++ {
			lb = append(lb, fmt.Sprintf("t%d", r.Intn(10)))
		}
		sa, sb := TokenSet(joinSpace(la)), TokenSet(joinSpace(lb))
		dict := map[string]uint32{}
		intern := func(set []string) []uint32 {
			if len(set) == 0 {
				return nil
			}
			ids := make([]uint32, len(set))
			for i, s := range set {
				id, ok := dict[s]
				if !ok {
					id = uint32(len(dict))
					dict[s] = id
				}
				ids[i] = id
			}
			slices.Sort(ids)
			return ids
		}
		ia, ib := intern(sa), intern(sb)
		if got, want := JaccardIDs(ia, ib), Jaccard(sa, sb); got != want {
			t.Fatalf("JaccardIDs %v != Jaccard %v for %v vs %v", got, want, sa, sb)
		}
	}
}

func joinSpace(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}
