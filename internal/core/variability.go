package core

import (
	"math"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// Variability metrics. The paper's conclusion notes that beyond pruning,
// the OSSM "provides direct information about the variability of
// frequencies in different segments of the transactions" — these methods
// surface that information.

// ItemVariability returns the coefficient of variation of item x's
// per-segment supports (population standard deviation divided by mean).
// It is 0 when the item is spread evenly across segments — or never
// occurs — and grows as the item concentrates in a few segments.
func (m *Map) ItemVariability(x dataset.Item) float64 {
	n := m.NumSegments()
	if n < 2 || m.totals[x] == 0 {
		return 0
	}
	mean := float64(m.totals[x]) / float64(n)
	var ss float64
	for _, c := range m.Column(x) {
		d := float64(c) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(n)) / mean
}

// Heterogeneity returns the occurrence-weighted mean of ItemVariability
// across items — one number summarizing how far the collection departs
// from a uniform distribution over its segments. 0 means every item is
// spread evenly (the OSSM cannot prune beyond the naive bound); larger
// values signal skew the bound can exploit.
func (m *Map) Heterogeneity() float64 {
	var weighted, total float64
	for it := 0; it < m.numItems; it++ {
		w := float64(m.totals[it])
		if w == 0 {
			continue
		}
		weighted += w * m.ItemVariability(dataset.Item(it))
		total += w
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

// SkewSignal compares the map's measured heterogeneity against the level
// pure sampling noise would produce if every item were spread uniformly
// across segments (for an item with total support T over n segments the
// multinomial coefficient of variation is √((n−1)/T)). A ratio near 1
// means the data looks uniform at this segmentation; ratios well above 1
// mean genuine skew the OSSM can exploit. The recipe of Figure 7 asks
// "is the data skewed?" — SkewSignal answers it from the OSSM itself.
func (m *Map) SkewSignal() float64 {
	n := m.NumSegments()
	if n < 2 {
		return 1
	}
	var weighted, noise, total float64
	for it := 0; it < m.numItems; it++ {
		w := float64(m.totals[it])
		if w == 0 {
			continue
		}
		weighted += w * m.ItemVariability(dataset.Item(it))
		noise += w * math.Sqrt(float64(n-1)/w)
		total += w
	}
	if total == 0 || noise == 0 {
		return 1
	}
	return weighted / noise
}
