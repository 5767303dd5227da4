package core

import (
	"sort"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Configuration describes the rank order of singleton supports within a
// segment (Section 4.1): the descriptor (x_{i1} ≥ x_{i2} ≥ … ≥ x_{ik})
// as a permutation of the items, most-supported first. Ties are broken by
// the canonical item enumeration (smaller item id first), exactly as
// footnote 4 of the paper prescribes.
type Configuration []dataset.Item

// ConfigurationOf computes the configuration of a segment from its
// singleton support row.
func ConfigurationOf(counts []uint32) Configuration {
	cfg := make(Configuration, len(counts))
	for i := range cfg {
		cfg[i] = dataset.Item(i)
	}
	sort.SliceStable(cfg, func(a, b int) bool {
		ca, cb := counts[cfg[a]], counts[cfg[b]]
		if ca != cb {
			return ca > cb
		}
		return cfg[a] < cfg[b]
	})
	return cfg
}

// Key returns a canonical byte-string key for map lookups. It is
// injective on configurations over domains of up to 2^32 items.
func (c Configuration) Key() string {
	b := make([]byte, 0, 4*len(c))
	for _, it := range c {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

// MinSegments returns n_min for the given initial segments (pages): the
// number of distinct configurations among them. By Theorem 1 (and
// Corollary 1 for the page version), an OSSM with one segment per
// distinct configuration — obtained by rearranging and merging
// same-configuration units — has ubsup(X) equal to the bound of the
// un-merged map for every itemset X, and no smaller segment count does.
func MinSegments(rows [][]uint32) int {
	seen := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		seen[ConfigurationOf(row).Key()] = struct{}{}
	}
	return len(seen)
}

// TheoreticalMinSegments returns the general-case bound as stated by
// Theorem 1 of the paper: min(m, 2^k − k), the worst-case number of
// segments required for a lossless OSSM over k items and m initial units.
//
// Caveat (documented in DESIGN.md): distinct strict configurations are
// permutations and can number up to k!, which exceeds 2^k − k for k ≥ 3;
// MinSegments therefore reports values above this formula on adversarial
// inputs. We expose the formula exactly as published.
//
// For k > 62 the second term overflows int64 and the result is simply m
// (the first term always wins at that scale).
func TheoreticalMinSegments(k, m int) int {
	if k > 62 {
		return m
	}
	configs := int64(1)<<uint(k) - int64(k)
	if int64(m) < configs {
		return m
	}
	return int(configs)
}
