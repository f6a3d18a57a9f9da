// Package datasets generates seeded synthetic stand-ins for the four
// benchmark datasets of the paper's evaluation (Table II): IIMB, DBLP–ACM
// (D-A), IMDB–YAGO (I-Y) and DBpedia–YAGO (D-Y). The real dumps are up to
// 15.1M entities; these generators reproduce each dataset's *structural
// profile* at laptop scale — schema heterogeneity, relationship density,
// label noise, unlabeled entities, isolated-pair fractions — so the
// relative behavior of all methods is preserved without shipping the dumps.
package datasets

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kb"
	"repro/internal/pair"
)

// AttrRef is a reference attribute match (by name), the gold standard of
// the attribute-matching experiment (Table IV).
type AttrRef struct {
	A1, A2 string
}

// Dataset bundles two KBs with their gold standard.
type Dataset struct {
	Name string
	K1   *kb.KB
	K2   *kb.KB
	Gold *pair.Gold
	// AttrGold lists the reference attribute matches (only populated for
	// I-Y and D-Y, as in the paper).
	AttrGold []AttrRef
}

// newDataset freezes both KBs, so a generator's caller never pays the
// freeze, and assembles the Dataset.
func newDataset(name string, k1, k2 *kb.KB, gold []pair.Pair) *Dataset {
	k1.Freeze()
	k2.Freeze()
	return &Dataset{Name: name, K1: k1, K2: k2, Gold: pair.NewGold(gold)}
}

// Names lists the fixed generator names accepted by ByName, in paper
// order plus the small "books" load-test dataset. ByName additionally
// accepts the parameterized "scale-<n>" form (e.g. "scale-1000000") for
// the Scale stress generator; it is not listed here because every listed
// name must build as-is.
func Names() []string { return []string{"iimb", "d-a", "i-y", "d-y", "books"} }

// ByName builds the named dataset with the given seed.
func ByName(name string, seed int64) (*Dataset, error) {
	switch name {
	case "books":
		return Books(seed), nil
	case "iimb", "IIMB":
		return IIMB(seed), nil
	case "d-a", "D-A", "dblp-acm":
		return DBLPACM(seed), nil
	case "i-y", "I-Y", "imdb-yago":
		return IMDBYAGO(seed), nil
	case "d-y", "D-Y", "dbpedia-yago":
		return DBpediaYAGO(seed), nil
	}
	if n, ok := strings.CutPrefix(name, "scale-"); ok {
		sz, err := strconv.Atoi(n)
		if err != nil || sz <= 0 {
			return nil, fmt.Errorf("datasets: bad scale size in %q (want scale-<n>, n > 0)", name)
		}
		return Scale(seed, sz), nil
	}
	return nil, fmt.Errorf("datasets: unknown dataset %q", name)
}

// All builds the four datasets in paper order.
func All(seed int64) []*Dataset {
	return []*Dataset{IIMB(seed), DBLPACM(seed), IMDBYAGO(seed), DBpediaYAGO(seed)}
}
