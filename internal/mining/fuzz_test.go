package mining

import (
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// FuzzHashTreeCount: for any distinct candidate set of one size and any
// sorted transactions, every counting entry point must match the
// brute-force SubsetOf scan, and each callback must fire once per
// contained candidate per transaction.
//
// Input layout: byte 0 picks the size (1–5), byte 1 the transaction
// count (0–7); then each transaction is a length byte (0–15) followed by
// that many items; the remaining bytes are candidates, size items each,
// where malformed or repeated candidates are skipped. Items are byte
// values, so hashes collide at every fanout.
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
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		size := 1 + int(in[0])%5
		ntx := int(in[1]) % 8
		in = in[2:]
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
		if len(items) == 0 {
			return
		}
		checkCountingEntryPoints(t, items, size, txs, 2)
	})
}

// encodeCountInput lays out a FuzzHashTreeCount input.
func encodeCountInput(size int, txs, cands [][]byte) []byte {
	out := []byte{byte(size - 1), byte(len(txs))}
	for _, tx := range txs {
		out = append(out, byte(len(tx)))
		out = append(out, tx...)
	}
	for _, c := range cands {
		out = append(out, c...)
	}
	return out
}
