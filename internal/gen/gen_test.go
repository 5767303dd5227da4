package gen

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ossm-mining/ossm/internal/dataset"
)

func TestPoissonMean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 20000
	for _, mean := range []float64{0.5, 2, 10} {
		sum := 0
		for i := 0; i < n; i++ {
			sum += poisson(r, mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.15*mean+0.05 {
			t.Errorf("poisson(%g): sample mean %g too far off", mean, got)
		}
	}
	if poisson(r, 0) != 0 || poisson(r, -1) != 0 {
		t.Error("poisson with non-positive mean should be 0")
	}
}

func TestClamped01(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		v := clamped01(r, 0.5, 0.5)
		if v < 0 || v > 1 {
			t.Fatalf("clamped01 out of range: %g", v)
		}
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cum := cumulative([]float64{1, 3, 6}) // probs 0.1, 0.3, 0.6
	counts := [3]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[weightedPick(r, cum)]++
	}
	wants := [3]float64{0.1, 0.3, 0.6}
	for i, w := range wants {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.02 {
			t.Errorf("weightedPick index %d frequency %g, want ≈%g", i, got, w)
		}
	}
}

func TestQuestDeterministicAndValid(t *testing.T) {
	c := DefaultQuest(500, 42)
	d1 := mustQuest(c)
	d2 := mustQuest(c)
	if d1.NumTx() != 500 || d2.NumTx() != 500 {
		t.Fatalf("NumTx = %d/%d, want 500", d1.NumTx(), d2.NumTx())
	}
	for i := 0; i < d1.NumTx(); i++ {
		if !d1.Tx(i).Equal(d2.Tx(i)) {
			t.Fatalf("same seed produced different transaction %d", i)
		}
		if !d1.Tx(i).Valid() {
			t.Fatalf("transaction %d is not a valid itemset", i)
		}
	}
	d3 := mustQuest(DefaultQuest(500, 43))
	same := true
	for i := 0; i < d1.NumTx(); i++ {
		if !d1.Tx(i).Equal(d3.Tx(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestQuestAvgTxLen(t *testing.T) {
	c := DefaultQuest(3000, 7)
	d := mustQuest(c)
	got := d.AvgTxLen()
	// Corruption and dedup shrink transactions below the nominal Poisson
	// mean; accept a broad but meaningful band.
	if got < 0.4*c.AvgTxLen || got > 1.6*c.AvgTxLen {
		t.Errorf("AvgTxLen = %g, want within [%g, %g]", got, 0.4*c.AvgTxLen, 1.6*c.AvgTxLen)
	}
}

func TestQuestHasFrequentPairs(t *testing.T) {
	// The whole point of pattern-based generation: some 2-itemsets must be
	// much more frequent than independence would allow.
	d := mustQuest(QuestConfig{
		NumTx: 2000, NumItems: 100, AvgTxLen: 8, AvgPatLen: 4,
		NumPatterns: 20, Correlation: 0.5, CorruptMean: 0.3, CorruptSD: 0.1,
		Seed: 11,
	})
	counts := make(map[[2]dataset.Item]int)
	for i := 0; i < d.NumTx(); i++ {
		tx := d.Tx(i)
		for a := 0; a < len(tx); a++ {
			for b := a + 1; b < len(tx); b++ {
				counts[[2]dataset.Item{tx[a], tx[b]}]++
			}
		}
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if best < d.NumTx()/20 {
		t.Errorf("most frequent pair appears %d times out of %d tx; expected strong co-occurrence", best, d.NumTx())
	}
}

func TestQuestConfigValidation(t *testing.T) {
	bad := []QuestConfig{
		{NumTx: 0, NumItems: 10, AvgTxLen: 5, AvgPatLen: 2, NumPatterns: 5},
		{NumTx: 10, NumItems: 0, AvgTxLen: 5, AvgPatLen: 2, NumPatterns: 5},
		{NumTx: 10, NumItems: 10, AvgTxLen: 0, AvgPatLen: 2, NumPatterns: 5},
		{NumTx: 10, NumItems: 10, AvgTxLen: 5, AvgPatLen: 0, NumPatterns: 5},
		{NumTx: 10, NumItems: 10, AvgTxLen: 5, AvgPatLen: 2, NumPatterns: 0},
		{NumTx: 10, NumItems: 10, AvgTxLen: 5, AvgPatLen: 2, NumPatterns: 5, Correlation: 1.5},
	}
	for i, c := range bad {
		if _, err := Quest(c); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestSkewedSeasonality(t *testing.T) {
	c := DefaultSkewed(4000, 99)
	c.Quest.NumItems = 200
	c.Quest.NumPatterns = 100
	d := mustSkewed(c)

	half := d.NumTx() / 2
	first := d.ItemCounts(0, half)
	second := d.ItemCounts(half, d.NumTx())
	lowFirst, lowSecond := 0, 0
	highFirst, highSecond := 0, 0
	for it := 0; it < d.NumItems(); it++ {
		if it < d.NumItems()/2 {
			lowFirst += int(first[it])
			lowSecond += int(second[it])
		} else {
			highFirst += int(first[it])
			highSecond += int(second[it])
		}
	}
	// Low-numbered items dominate the first half and vice versa.
	if lowFirst <= lowSecond {
		t.Errorf("low items: first half %d ≤ second half %d; expected seasonal skew", lowFirst, lowSecond)
	}
	if highSecond <= highFirst {
		t.Errorf("high items: second half %d ≤ first half %d; expected seasonal skew", highSecond, highFirst)
	}
}

func TestSkewedBoostOneMatchesShape(t *testing.T) {
	// Boost=1 should degenerate into an unskewed dataset (statistically):
	// no strong half-vs-half imbalance for the two item groups.
	c := SkewedConfig{Quest: DefaultQuest(4000, 5), Boost: 1}
	c.Quest.NumItems = 200
	c.Quest.NumPatterns = 100
	d := mustSkewed(c)
	half := d.NumTx() / 2
	first := d.ItemCounts(0, half)
	second := d.ItemCounts(half, d.NumTx())
	lowFirst, lowSecond := 0, 0
	for it := 0; it < d.NumItems()/2; it++ {
		lowFirst += int(first[it])
		lowSecond += int(second[it])
	}
	ratio := float64(lowFirst) / float64(lowSecond+1)
	if ratio > 1.3 || ratio < 0.7 {
		t.Errorf("Boost=1 but low-item first/second ratio = %g; expected ≈1", ratio)
	}
}

func TestSkewedValidation(t *testing.T) {
	c := DefaultSkewed(10, 1)
	c.Boost = 0.5
	if _, err := Skewed(c); err == nil {
		t.Error("Boost < 1 accepted, want error")
	}
	c = DefaultSkewed(0, 1)
	if _, err := Skewed(c); err == nil {
		t.Error("NumTx = 0 accepted, want error")
	}
}

func TestAlarmShape(t *testing.T) {
	d := mustAlarm(DefaultAlarm(123))
	if d.NumTx() != 5000 {
		t.Fatalf("NumTx = %d, want 5000", d.NumTx())
	}
	if d.NumItems() != 200 {
		t.Fatalf("NumItems = %d, want 200", d.NumItems())
	}
	if d.AvgTxLen() < 2 {
		t.Errorf("AvgTxLen = %g; alarm windows should carry several alarms", d.AvgTxLen())
	}
	// Long tail: the most frequent type should dwarf the median type.
	counts := d.ItemCounts(0, d.NumTx())
	maxC, nonZero := uint32(0), 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
		if c > 0 {
			nonZero++
		}
	}
	if nonZero < 50 {
		t.Errorf("only %d alarm types ever fire; expected a broad tail", nonZero)
	}
	if maxC < 200 {
		t.Errorf("hottest alarm type fires %d times; expected a heavy head", maxC)
	}
}

func TestAlarmDrift(t *testing.T) {
	// Drift is the property that makes segmentation worthwhile: type
	// frequencies must differ across epochs. Compare first and last tenth.
	d := mustAlarm(DefaultAlarm(7))
	n := d.NumTx()
	a := d.ItemCounts(0, n/10)
	b := d.ItemCounts(n-n/10, n)
	diff := 0.0
	total := 0.0
	for it := range a {
		diff += math.Abs(float64(a[it]) - float64(b[it]))
		total += float64(a[it]) + float64(b[it])
	}
	if total == 0 {
		t.Fatal("no alarms at all")
	}
	if diff/total < 0.2 {
		t.Errorf("normalized first/last epoch difference = %g; expected visible drift", diff/total)
	}
}

func TestAlarmValidation(t *testing.T) {
	bad := []AlarmConfig{
		{NumTx: 0, NumTypes: 10, NumCascades: 2, Epochs: 1, ZipfS: 1.2},
		{NumTx: 10, NumTypes: 1, NumCascades: 2, Epochs: 1, ZipfS: 1.2},
		{NumTx: 10, NumTypes: 10, NumCascades: 0, Epochs: 1, ZipfS: 1.2},
		{NumTx: 10, NumTypes: 10, NumCascades: 2, Epochs: 0, ZipfS: 1.2},
		{NumTx: 10, NumTypes: 10, NumCascades: 2, Epochs: 1, ZipfS: 1.0},
	}
	for i, c := range bad {
		if _, err := Alarm(c); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestAlarmDeterministic(t *testing.T) {
	c := DefaultAlarm(55)
	c.NumTx = 300
	d1 := mustAlarm(c)
	d2 := mustAlarm(c)
	for i := 0; i < d1.NumTx(); i++ {
		if !d1.Tx(i).Equal(d2.Tx(i)) {
			t.Fatalf("same seed produced different transaction %d", i)
		}
	}
}

func TestQuestDriftDeterministicAndStable(t *testing.T) {
	c := DefaultQuest(2000, 21)
	c.WeightDrift = 0.6
	c.DriftEvery = 100
	d1 := mustQuest(c)
	d2 := mustQuest(c)
	for i := 0; i < d1.NumTx(); i++ {
		if !d1.Tx(i).Equal(d2.Tx(i)) {
			t.Fatalf("same seed with drift produced different transaction %d", i)
		}
	}
	// Mean-reversion keeps the overall shape sane: average transaction
	// length within the usual band despite drifting weights.
	if got := d1.AvgTxLen(); got < 0.4*c.AvgTxLen || got > 1.6*c.AvgTxLen {
		t.Errorf("drifting AvgTxLen = %g out of band", got)
	}
	// And drift actually changes the output relative to no drift.
	c0 := DefaultQuest(2000, 21)
	d0 := mustQuest(c0)
	same := true
	for i := 0; i < d0.NumTx(); i++ {
		if !d0.Tx(i).Equal(d1.Tx(i)) {
			same = false
			break
		}
	}
	if same {
		t.Error("drift had no effect on the generated data")
	}
}

func TestQuestDriftValidation(t *testing.T) {
	c := DefaultQuest(10, 1)
	c.WeightDrift = -0.5
	if _, err := Quest(c); err == nil {
		t.Error("negative WeightDrift accepted")
	}
	c = DefaultQuest(10, 1)
	c.DriftEvery = -3
	if _, err := Quest(c); err == nil {
		t.Error("negative DriftEvery accepted")
	}
}

// mustQuest is Quest that panics on configuration errors.
func mustQuest(c QuestConfig) *dataset.Dataset {
	d, err := Quest(c)
	if err != nil {
		panic(err)
	}
	return d
}

// mustSkewed is Skewed that panics on configuration errors.
func mustSkewed(c SkewedConfig) *dataset.Dataset {
	d, err := Skewed(c)
	if err != nil {
		panic(err)
	}
	return d
}

// mustAlarm is Alarm that panics on configuration errors.
func mustAlarm(c AlarmConfig) *dataset.Dataset {
	d, err := Alarm(c)
	if err != nil {
		panic(err)
	}
	return d
}
