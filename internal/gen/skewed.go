package gen

import (
	"fmt"
	"math/rand"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// SkewedConfig parameterizes the "seasonal" skewed-synthetic generator
// (paper §6.1, data set 3): 50% of the items have a higher probability of
// appearing in the first half of the collection and the other 50% in the
// second half — a supermarket whose transactions run from summer to
// winter.
//
// The generator reuses the Quest machinery but assigns every potentially
// large itemset to a season: patterns built from low-numbered items belong
// to season 0 (first half of the collection), the rest to season 1. When
// generating the h-th half, in-season patterns are Boost times more likely
// to be picked.
type SkewedConfig struct {
	Quest QuestConfig
	Boost float64 // in-season weight multiplier; Boost=1 degenerates to Quest
}

// DefaultSkewed mirrors DefaultQuest with a strong seasonal boost.
func DefaultSkewed(numTx int, seed int64) SkewedConfig {
	return SkewedConfig{Quest: DefaultQuest(numTx, seed), Boost: 8}
}

// Skewed generates a seasonal dataset.
func Skewed(c SkewedConfig) (*dataset.Dataset, error) {
	if err := c.Quest.validate(); err != nil {
		return nil, err
	}
	if c.Boost < 1 {
		return nil, fmt.Errorf("gen: Boost must be ≥ 1, got %g", c.Boost)
	}
	r := rand.New(rand.NewSource(c.Quest.Seed))
	pats, weights := genPatterns(r, c.Quest)

	// Season of a pattern: majority vote of its items' halves.
	half := dataset.Item(c.Quest.NumItems / 2)
	season := make([]int, len(pats))
	for i, p := range pats {
		low := 0
		for _, it := range p.items {
			if it < half {
				low++
			}
		}
		if low*2 >= len(p.items) {
			season[i] = 0
		} else {
			season[i] = 1
		}
	}

	// Two cumulative tables, one per half of the collection.
	cums := make([][]float64, 2)
	for h := 0; h < 2; h++ {
		w := make([]float64, len(weights))
		for i := range weights {
			w[i] = weights[i]
			if season[i] == h {
				w[i] *= c.Boost
			}
		}
		cums[h] = cumulative(w)
	}

	b := dataset.NewBuilder(c.Quest.NumItems)
	tx := make([]dataset.Item, 0, int(c.Quest.AvgTxLen)*2)
	inTx := make(map[dataset.Item]bool)
	var carry []dataset.Item
	for t := 0; t < c.Quest.NumTx; t++ {
		h := 0
		if t*2 >= c.Quest.NumTx {
			h = 1
		}
		cum := cums[h]
		size := poisson(r, c.Quest.AvgTxLen)
		if size < 1 {
			size = 1
		}
		tx = tx[:0]
		for k := range inTx {
			delete(inTx, k)
		}
		if carry != nil {
			for _, it := range carry {
				if !inTx[it] {
					inTx[it] = true
					tx = append(tx, it)
				}
			}
			carry = nil
		}
		for len(tx) < size {
			p := pats[weightedPick(r, cum)]
			kept := make([]dataset.Item, 0, len(p.items))
			kept = append(kept, p.items...)
			for len(kept) > 0 && r.Float64() < p.corrupt {
				di := r.Intn(len(kept))
				kept[di] = kept[len(kept)-1]
				kept = kept[:len(kept)-1]
			}
			if len(kept) == 0 {
				continue
			}
			if len(tx)+len(kept) > size && len(tx) > 0 {
				if r.Intn(2) == 0 {
					carry = kept
					break
				}
			}
			for _, it := range kept {
				if !inTx[it] {
					inTx[it] = true
					tx = append(tx, it)
				}
			}
		}
		if err := b.Append(tx); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
