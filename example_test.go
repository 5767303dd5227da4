package ossm_test

import (
	"fmt"

	ossm "github.com/ossm-mining/ossm"
)

// ExampleNewMap reproduces Example 1 of the paper: a 4-segment OSSM over
// items a=0, b=1, c=2 bounds sup({a,b}) by 80 and sup({a,b,c}) by 60,
// where the naive single-segment bounds are 110 and 100.
func ExampleNewMap() {
	m, err := ossm.NewMap([][]uint32{
		{20, 40, 40}, // segment T1: sup(a), sup(b), sup(c)
		{10, 40, 20}, // T2
		{40, 40, 20}, // T3
		{40, 10, 20}, // T4
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("ubsup({a,b})   =", m.UpperBound(ossm.NewItemset(0, 1)))
	fmt.Println("ubsup({a,b,c}) =", m.UpperBound(ossm.NewItemset(0, 1, 2)))
	fmt.Println("naive({a,b})   =", min(m.ItemSupport(0), m.ItemSupport(1)))
	// Output:
	// ubsup({a,b})   = 80
	// ubsup({a,b,c}) = 60
	// naive({a,b})   = 110
}

// ExampleBuild indexes a small dataset and mines it, showing that the
// OSSM never changes the result — it only removes counting work.
func ExampleBuild() {
	d, err := ossm.FromTransactions(4, [][]ossm.Item{
		{0, 1}, {0, 1}, {0, 1, 2}, {2, 3}, {2, 3}, {0, 1},
	})
	if err != nil {
		panic(err)
	}
	ix, err := ossm.Build(d, ossm.BuildOptions{Pages: 3, Segments: 2, Algorithm: ossm.Greedy})
	if err != nil {
		panic(err)
	}
	plain, _ := ossm.MineApriori(d, 0.3, nil)
	pruned, _ := ossm.MineApriori(d, 0.3, ix)
	fmt.Println("segments:", ix.NumSegments())
	fmt.Println("identical results:", plain.Equal(pruned))
	fmt.Println("frequent itemsets:", plain.NumFrequent())
	// Output:
	// segments: 2
	// identical results: true
	// frequent itemsets: 6
}

// ExampleRecommend walks the recipe of the paper's Figure 7.
func ExampleRecommend() {
	rec := ossm.Recommend(ossm.Scenario{LargeSegmentBudget: true, SkewedData: true})
	fmt.Println(rec.Algorithm, rec.UseBubble)
	rec = ossm.Recommend(ossm.Scenario{SegmentationCostCritical: true, VeryManyPages: true})
	fmt.Println(rec.Algorithm, rec.UseBubble)
	// Output:
	// Random false
	// Random-RC true
}

// ExampleGenerateRules derives association rules from mined itemsets.
func ExampleGenerateRules() {
	d, err := ossm.FromTransactions(3, [][]ossm.Item{
		{0, 1}, {0, 1}, {0, 1, 2}, {0}, {2},
	})
	if err != nil {
		panic(err)
	}
	res, _ := ossm.MineApriori(d, 0.4, nil)
	rules, _ := ossm.GenerateRules(res, d.NumTx(), 0.9)
	for _, r := range rules {
		fmt.Println(r)
	}
	// Output:
	// {1} => {0} (sup=3 conf=1.000 lift=1.25)
}

// ExampleMinSegments computes n_min for a tiny two-item collection: two
// distinct configurations ⇒ two segments suffice for exact bounds
// (Theorem 1).
func ExampleMinSegments() {
	d, err := ossm.FromTransactions(2, [][]ossm.Item{
		{0}, {0}, {1}, {1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(ossm.MinSegments(d, 4))
	// Output:
	// 2
}

// ExampleAppender streams transactions into an online OSSM and snapshots
// it mid-stream — the structure never needs a rebuild scan.
func ExampleAppender() {
	app, err := ossm.NewAppender(3, ossm.AppenderOptions{PageSize: 2, MaxSegments: 2})
	if err != nil {
		panic(err)
	}
	for _, tx := range []ossm.Itemset{
		{0, 1}, {0, 1}, {2}, {2}, {0, 2},
	} {
		if err := app.Add(tx); err != nil {
			panic(err)
		}
	}
	m, err := app.Snapshot()
	if err != nil {
		panic(err)
	}
	fmt.Println("transactions seen:", app.NumTx())
	fmt.Println("sup(0) =", m.ItemSupport(0))
	fmt.Println("ubsup({0,1}) =", m.UpperBound(ossm.NewItemset(0, 1)))
	// Output:
	// transactions seen: 5
	// sup(0) = 3
	// ubsup({0,1}) = 2
}

// ExampleMineMinimalEpisodes runs MINEPI on a tiny alternating log and
// derives a prediction rule.
func ExampleMineMinimalEpisodes() {
	seq, err := ossm.SequenceFromTypes(2, []ossm.Item{0, 1, 0, 1, 0, 1})
	if err != nil {
		panic(err)
	}
	res, err := ossm.MineMinimalEpisodes(seq, ossm.MinimalOptions{MaxWidth: 2, MinCount: 2})
	if err != nil {
		panic(err)
	}
	rules, err := res.Rules(0.9)
	if err != nil {
		panic(err)
	}
	for _, r := range rules {
		fmt.Println(r)
	}
	// Output:
	// 0 ⇒ 0 → 1 (sup=3 conf=1.000)
}
