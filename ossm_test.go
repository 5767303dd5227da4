package ossm

import (
	"path/filepath"
	"testing"
)

func TestBuildAndMineEndToEnd(t *testing.T) {
	d, err := GenerateSkewed(DefaultSkewed(2000, 1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, BuildOptions{Pages: 40, Segments: 10, Algorithm: RandomGreedy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumSegments() != 10 {
		t.Errorf("NumSegments = %d, want 10", ix.NumSegments())
	}
	// Flat store: one cell matrix + totals, 4·k·n + 8·k bytes for k
	// items, n segments.
	if ix.SizeBytes() != 4*1000*10+8*1000 {
		t.Errorf("SizeBytes = %d, want 48000", ix.SizeBytes())
	}
	if ix.SegmentationTime() <= 0 {
		t.Error("SegmentationTime not recorded")
	}

	plain, err := MineApriori(d, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	withIx, err := MineApriori(d, 0.01, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(withIx) {
		t.Error("index changed Apriori's result")
	}

	fp, err := MineFPGrowth(d, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(fp) {
		t.Error("FP-growth disagrees with Apriori")
	}
	dh, err := MineDHP(d, 0.01, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(dh) {
		t.Error("DHP disagrees with Apriori")
	}
	pt, err := MinePartition(d, 0.01, 4, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(pt) {
		t.Error("Partition disagrees with Apriori")
	}
	dp, err := MineDepthProject(d, 0.01, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(dp) {
		t.Error("DepthProject disagrees with Apriori")
	}
	ec, err := MineEclat(d, 0.01, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(ec) {
		t.Error("dEclat disagrees with Apriori")
	}
}

func TestBuildDefaults(t *testing.T) {
	d, err := GenerateQuest(DefaultQuest(500, 2))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 500 tx at ~100 tx/page = 5 pages; segments clamp to 5.
	if got := ix.NumSegments(); got != 5 {
		t.Errorf("NumSegments = %d, want 5 (clamped)", got)
	}
}

func TestBuildEmptyDataset(t *testing.T) {
	d, err := FromTransactions(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(d, BuildOptions{}); err == nil {
		t.Error("Build over empty dataset accepted")
	}
}

func TestIndexUpperBoundDominatesSupport(t *testing.T) {
	d, err := GenerateQuest(QuestConfig{
		NumTx: 400, NumItems: 30, AvgTxLen: 6, AvgPatLen: 3,
		NumPatterns: 10, Correlation: 0.5, CorruptMean: 0.4, CorruptSD: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, BuildOptions{Pages: 20, Segments: 6, Algorithm: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	for a := Item(0); a < 30; a += 3 {
		for b := a + 1; b < 30; b += 4 {
			x := NewItemset(a, b)
			if ub := ix.UpperBound(x); ub < int64(d.Support(x)) {
				t.Fatalf("bound %d < support %d for %v", ub, d.Support(x), x)
			}
		}
	}
}

func TestBuildWithBubble(t *testing.T) {
	d, err := GenerateQuest(DefaultQuest(1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, BuildOptions{
		Pages: 20, Segments: 5, Algorithm: RandomGreedy,
		BubbleSize: 50, BubbleMinSupport: 0.0025,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MineApriori(d, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	withIx, err := MineApriori(d, 0.01, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Equal(withIx) {
		t.Error("bubble-built index changed the result")
	}
}

func TestRecipeFacade(t *testing.T) {
	rec := Recommend(Scenario{LargeSegmentBudget: true, SkewedData: true})
	if rec.Algorithm != Random {
		t.Errorf("recipe = %+v, want Random", rec)
	}
}

func TestRulesFacade(t *testing.T) {
	d, err := FromTransactions(3, [][]Item{
		{0, 1}, {0, 1}, {0, 1, 2}, {0}, {2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineApriori(d, 0.4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := GenerateRules(res, d.NumTx(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Error("no rules generated")
	}
}

func TestEpisodesFacade(t *testing.T) {
	s, err := SequenceFromTypes(3, []Item{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineEpisodes(s, EpisodeOptions{Width: 2, MinFrequency: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequent() == 0 {
		t.Error("no episodes found")
	}
}

func TestDatasetFileFacade(t *testing.T) {
	d, err := FromTransactions(4, [][]Item{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.bin")
	if err := SaveDataset(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTx() != 2 || got.NumItems() != 4 {
		t.Errorf("round trip: NumTx=%d NumItems=%d", got.NumTx(), got.NumItems())
	}
}

func TestMinSegmentsFacade(t *testing.T) {
	d, err := FromTransactions(2, [][]Item{
		{0}, {0}, {1}, {1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 pages of 1 tx: configurations (a≥b) ×2 and (b≥a) ×2 → n_min = 2.
	if got := MinSegments(d, 4); got != 2 {
		t.Errorf("MinSegments = %d, want 2", got)
	}
}

func TestPaginateFacade(t *testing.T) {
	d, err := FromTransactions(2, [][]Item{{0}, {1}, {0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Paginate(d, 2)); got != 2 {
		t.Errorf("Paginate pages = %d, want 2", got)
	}
	if got := len(PaginateN(d, 3)); got != 3 {
		t.Errorf("PaginateN pages = %d, want 3", got)
	}
}
