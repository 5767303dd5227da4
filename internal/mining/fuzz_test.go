package mining

import (
	"slices"
	"testing"

	"github.com/ossm-mining/ossm/internal/core"
	"github.com/ossm-mining/ossm/internal/dataset"
)

// FuzzHashTreeCount: for any distinct candidate set of one size and any
// sorted transactions, every counting entry point must match the
// brute-force SubsetOf scan, and each callback must fire once per
// contained candidate per transaction.
//
// Input layout: byte 0 is the mode, byte 1 picks the size (1–5), byte 2
// the transaction count (0–7); then each transaction is a length byte
// (0–15) followed by that many items. Items are byte values, so hashes
// collide at every fanout. In the explicit mode (even mode byte) the
// remaining bytes are candidates, size items each, where malformed or
// repeated candidates are skipped. In the pairs mode (odd mode byte)
// the candidates are pairs, far more than an explicit input holds: two
// bytes fix an item range of 192–255 items, and the rest is a mask that
// drops odd-numbered pairs, so more than 8192 pairs remain and the
// fanout grows past defaultFanout.
func FuzzHashTreeCount(f *testing.F) {
	// Seeds hold more than defaultMaxLeaf candidates, so the root splits
	// and items 32 apart share hash paths.
	f.Add(encodeCountInput(2,
		[][]byte{{0, 1, 32, 33, 64, 65}, {1, 33, 65}, {0, 32}, {7}},
		[][]byte{{0, 33}, {32, 33}, {0, 64}, {32, 64}, {1, 33}, {33, 65}, {1, 65}, {0, 1}, {64, 65}, {2, 34}}))
	f.Add(encodeCountInput(3,
		[][]byte{{0, 1, 2, 32, 33, 34}, {1, 33, 65, 97}, {0, 32}},
		[][]byte{{0, 1, 2}, {0, 33, 34}, {32, 33, 34}, {0, 1, 34}, {1, 33, 65}, {33, 65, 97}, {1, 65, 97}, {0, 32, 33}, {2, 33, 34}, {32, 34, 66}}))
	f.Add(encodeCountInput(1,
		[][]byte{{0, 32, 64}, {1, 33, 96}, {}},
		[][]byte{{0}, {32}, {64}, {96}, {1}, {33}, {65}, {2}, {34}, {128}}))
	f.Add(encodePairsInput(
		[][]byte{{0, 1, 34, 35, 68, 69, 200, 234}, {3, 37, 71, 105, 139, 173, 207, 241, 255}, {10, 44}},
		0, 0, nil))
	f.Add(encodePairsInput(
		[][]byte{{20, 54, 88, 122, 156, 190, 224, 250}, {21, 22, 55, 56, 89, 90}},
		63, 1, []byte{0xa5, 0x0f, 0xff}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		pairs := in[0]%2 == 1
		size := 1 + int(in[1])%5
		ntx := int(in[2]) % 8
		in = in[3:]
		txs := make([]dataset.Itemset, 0, ntx)
		for len(txs) < ntx && len(in) > 0 {
			n := min(int(in[0])%16, len(in)-1)
			raw := make([]dataset.Item, n)
			for i := range raw {
				raw[i] = dataset.Item(in[1+i])
			}
			txs = append(txs, dataset.NewItemset(raw...))
			in = in[1+n:]
		}
		var items []dataset.Itemset
		if pairs {
			size = 2
			items = maskedPairs(in)
			if fanoutFor(len(items), size) <= defaultFanout {
				t.Fatalf("%d pairs keep the default fanout", len(items))
			}
		} else {
			items = explicitCandidates(in, size)
		}
		if len(items) == 0 {
			return
		}
		checkCountingEntryPoints(t, items, size, txs, 2)
	})
}

// explicitCandidates reads distinct candidates of the given size, size
// bytes each, skipping malformed and repeated ones.
func explicitCandidates(in []byte, size int) []dataset.Itemset {
	seen := make(map[string]bool)
	var items []dataset.Itemset
	for ; len(in) >= size; in = in[size:] {
		raw := make([]dataset.Item, size)
		for i := range raw {
			raw[i] = dataset.Item(in[i])
		}
		c := dataset.NewItemset(raw...)
		if len(c) != size || seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		items = append(items, c)
	}
	return items
}

// maskedPairs expands a pairs-mode tail into candidates: every pair over
// span 192–255 items starting at base, both within 0–255, less the
// odd-numbered pairs whose mask bit is set. At least half of the
// 18336+ pairs remain.
func maskedPairs(in []byte) []dataset.Itemset {
	var span, base int
	if len(in) >= 2 {
		span, base = int(in[0]), int(in[1])
		in = in[2:]
	}
	r := 192 + span%64
	base %= 257 - r
	var items []dataset.Itemset
	p := 0
	for x := base; x < base+r; x++ {
		for y := x + 1; y < base+r; y++ {
			bit := p / 2
			drop := p%2 == 1 && len(in) > 0 && in[bit/8%len(in)]&(1<<(bit%8)) != 0
			if !drop {
				items = append(items, dataset.Itemset{dataset.Item(x), dataset.Item(y)})
			}
			p++
		}
	}
	return items
}

// countHeader lays out the mode, size and transactions of a
// FuzzHashTreeCount input.
func countHeader(mode byte, size int, txs [][]byte) []byte {
	out := []byte{mode, byte(size - 1), byte(len(txs))}
	for _, tx := range txs {
		out = append(out, byte(len(tx)))
		out = append(out, tx...)
	}
	return out
}

// encodeCountInput lays out an explicit-mode FuzzHashTreeCount input.
func encodeCountInput(size int, txs, cands [][]byte) []byte {
	out := countHeader(0, size, txs)
	for _, c := range cands {
		out = append(out, c...)
	}
	return out
}

// encodePairsInput lays out a pairs-mode FuzzHashTreeCount input.
func encodePairsInput(txs [][]byte, span, base byte, mask []byte) []byte {
	out := countHeader(1, 2, txs)
	out = append(out, span, base)
	return append(out, mask...)
}

// FuzzPairCount: CountPairs must match the brute-force SubsetOf scan for
// every pair of items, at any pool size, whichever items the transactions
// hold beyond them.
//
// Input layout: byte 0 picks the pool size (1–4), bytes 1–8 are a mask
// over items 0–63 choosing the counted items, byte 9 the transaction
// count (0–8); then each transaction is a length byte (0–15) followed by
// that many items, each taken mod 64.
func FuzzPairCount(f *testing.F) {
	f.Add(encodePairCountInput(1, ^uint64(0),
		[][]byte{{0, 1, 2, 63}, {1, 2, 63}, {0, 63}, {5}, {}}))
	f.Add(encodePairCountInput(3, 0x8000_0000_0000_f0f1,
		[][]byte{{0, 4, 5, 6, 7, 12, 63}, {0, 1, 4, 63}, {2, 3, 5, 12, 13}, {4, 5}, {0, 12, 15, 63}, {6, 7, 14, 15}, {0}}))
	f.Add(encodePairCountInput(2, 0b1011_0110,
		[][]byte{{1, 2, 4, 5, 7}, {1, 3, 7, 40}, {2, 5, 7}, {0, 6, 7}}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 10 {
			return
		}
		workers := 1 + int(in[0])%4
		var items []dataset.Item
		for it := 0; it < 64; it++ {
			if in[1+it/8]&(1<<(it%8)) != 0 {
				items = append(items, dataset.Item(it))
			}
		}
		ntx := int(in[9]) % 9
		in = in[10:]
		txs := make([]dataset.Itemset, 0, ntx)
		for len(txs) < ntx && len(in) > 0 {
			n := min(int(in[0])%16, len(in)-1)
			raw := make([]dataset.Item, n)
			for i := range raw {
				raw[i] = dataset.Item(in[1+i] % 64)
			}
			txs = append(txs, dataset.NewItemset(raw...))
			in = in[1+n:]
		}
		n := len(items)
		want := make([]uint32, max(0, n*(n-1)/2))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pair := dataset.Itemset{items[i], items[j]}
				for _, tx := range txs {
					if pair.SubsetOf(tx) {
						want[core.PairIndex(i, j, n)]++
					}
				}
			}
		}
		for name, got := range map[string][]uint32{
			"CountPairs":        CountPairs(txs, items, workers, nil),
			"countPairsSharded": countPairsSharded(txs, items, workers, nil),
		} {
			if !slices.Equal(got, want) {
				t.Fatalf("%s over items %v, %d workers, txs %v:\n got %v\nwant %v", name, items, workers, txs, got, want)
			}
		}
	})
}

// encodePairCountInput lays out a FuzzPairCount input.
func encodePairCountInput(workers byte, mask uint64, txs [][]byte) []byte {
	out := []byte{workers - 1}
	for b := 0; b < 8; b++ {
		out = append(out, byte(mask>>(8*b)))
	}
	out = append(out, byte(len(txs)))
	for _, tx := range txs {
		out = append(out, byte(len(tx)))
		out = append(out, tx...)
	}
	return out
}
