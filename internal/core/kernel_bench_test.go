package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// benchSegCounts spans one block (16), a typical serving index (256) and
// a deep segmentation (4096); each op processes one whole generation of
// benchCands candidates, so ns/op is directly comparable across kernels.
var benchSegCounts = []int{16, 256, 4096}

const (
	benchItems = 512
	benchCands = 1024
)

// benchFixture builds a skewed random map plus one generation of random
// 3-item candidates, with a discriminative threshold (the median exact
// bound) so roughly half the candidates admit and half reject. Item
// supports follow a power-ish law (item i is drawn from [0, 200≫(i mod
// 8))), the shape frequency counting actually sees — candidate bounds
// then disperse widely around the threshold.
func benchFixture(segs int) (*Map, []dataset.Itemset, int64) {
	r := rand.New(rand.NewSource(int64(segs)))
	rows := make([][]uint32, segs)
	for s := range rows {
		rows[s] = make([]uint32, benchItems)
		for i := range rows[s] {
			rows[s][i] = uint32(r.Intn(1 + 200>>(i%8)))
		}
	}
	m, err := NewMap(rows)
	if err != nil {
		panic(err)
	}
	cands := make([]dataset.Itemset, benchCands)
	for i := range cands {
		for {
			cands[i] = dataset.NewItemset(
				dataset.Item(r.Intn(benchItems)),
				dataset.Item(r.Intn(benchItems)),
				dataset.Item(r.Intn(benchItems)),
			)
			if len(cands[i]) == 3 {
				break
			}
		}
	}
	bounds := m.UpperBoundBatch(cands, nil)
	sorted := append([]int64{}, bounds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return m, cands, sorted[len(sorted)/2]
}

// BenchmarkUpperBoundScalar is the pre-kernel baseline: one full
// UpperBound walk per candidate, compared against the threshold.
func BenchmarkUpperBoundScalar(b *testing.B) {
	for _, segs := range benchSegCounts {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			m, cands, minsup := benchFixture(segs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range cands {
					if m.UpperBound(x) >= minsup {
						_ = x
					}
				}
			}
		})
	}
}

// BenchmarkUpperBoundBatch is the decision path the level-wise miners
// take: one whole generation decided per op through AdmitBatch on a
// Pruner.
func BenchmarkUpperBoundBatch(b *testing.B) {
	for _, segs := range benchSegCounts {
		b.Run(fmt.Sprintf("segs=%d", segs), func(b *testing.B) {
			m, cands, minsup := benchFixture(segs)
			p := &Pruner{Map: m, MinCount: minsup}
			dec := make([]bool, len(cands))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec = AdmitBatch(p, cands, dec)
			}
		})
	}
}
