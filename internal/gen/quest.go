package gen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// QuestConfig parameterizes the IBM Quest-style generator in the
// T-I-D notation of Agrawal & Srikant (VLDB 1994): |D| transactions of
// average size |T| drawn from |L| potentially large itemsets of average
// size |I| over N items. The defaults reproduce the family the paper's
// "regular-synthetic" data set comes from (N = 1000 items).
type QuestConfig struct {
	NumTx       int     // |D|: number of transactions
	NumItems    int     // N: domain size
	AvgTxLen    float64 // |T|: mean transaction size (Poisson)
	AvgPatLen   float64 // |I|: mean size of potentially large itemsets (Poisson)
	NumPatterns int     // |L|: number of potentially large itemsets
	Correlation float64 // fraction of a pattern's items inherited from its predecessor
	CorruptMean float64 // mean of the per-pattern corruption level
	CorruptSD   float64 // std-dev of the per-pattern corruption level
	// WeightDrift, when positive, makes pattern popularity drift over the
	// file as a mean-reverting (Ornstein-Uhlenbeck-style) log-multiplier:
	// every DriftEvery transactions, each pattern's log-multiplier decays
	// toward 0 and receives a WeightDrift·N(0,1) shock. Popularity thus
	// varies strongly between stretches of the file while long-run
	// marginals stay stable. The published Quest generator is stationary
	// (WeightDrift = 0), but the paper's premise — "real life data sets
	// are not random … frequencies of patterns will be different in
	// different parts of the data set" — and the pruning magnitudes of
	// its Figure 4 presuppose exactly this kind of temporal locality; see
	// DESIGN.md §5.
	WeightDrift float64
	DriftEvery  int   // drift step in transactions (0 ⇒ 100)
	Seed        int64 // RNG seed; same seed ⇒ identical dataset
}

// DefaultQuest returns the canonical T10.I4 configuration over 1000 items,
// matching the paper's regular-synthetic setting (k = 1000).
func DefaultQuest(numTx int, seed int64) QuestConfig {
	return QuestConfig{
		NumTx:       numTx,
		NumItems:    1000,
		AvgTxLen:    10,
		AvgPatLen:   4,
		NumPatterns: 2000,
		Correlation: 0.5,
		CorruptMean: 0.5,
		CorruptSD:   0.1,
		Seed:        seed,
	}
}

func (c QuestConfig) validate() error {
	switch {
	case c.NumTx <= 0:
		return fmt.Errorf("gen: NumTx must be positive, got %d", c.NumTx)
	case c.NumItems <= 0:
		return fmt.Errorf("gen: NumItems must be positive, got %d", c.NumItems)
	case c.AvgTxLen <= 0:
		return fmt.Errorf("gen: AvgTxLen must be positive, got %g", c.AvgTxLen)
	case c.AvgPatLen <= 0:
		return fmt.Errorf("gen: AvgPatLen must be positive, got %g", c.AvgPatLen)
	case c.NumPatterns <= 0:
		return fmt.Errorf("gen: NumPatterns must be positive, got %d", c.NumPatterns)
	case c.Correlation < 0 || c.Correlation > 1:
		return fmt.Errorf("gen: Correlation must be in [0,1], got %g", c.Correlation)
	case c.WeightDrift < 0:
		return fmt.Errorf("gen: WeightDrift must be ≥ 0, got %g", c.WeightDrift)
	case c.DriftEvery < 0:
		return fmt.Errorf("gen: DriftEvery must be ≥ 0, got %d", c.DriftEvery)
	}
	return nil
}

// pattern is a potentially large itemset with its selection weight and
// corruption level.
type pattern struct {
	items   []dataset.Item
	corrupt float64
}

// genPatterns builds the table of potentially large itemsets. Following
// the published algorithm: sizes are Poisson(|I|) (at least 1); a fraction
// of each pattern's items — exponentially distributed with mean
// Correlation — is drawn from the previous pattern, the rest uniformly;
// weights are Exponential(1); corruption levels Normal(CorruptMean,
// CorruptSD) clamped to [0,1].
func genPatterns(r *rand.Rand, c QuestConfig) ([]pattern, []float64) {
	pats := make([]pattern, c.NumPatterns)
	weights := make([]float64, c.NumPatterns)
	var prev []dataset.Item
	seen := make(map[dataset.Item]bool, 16)
	for i := range pats {
		size := poisson(r, c.AvgPatLen)
		if size < 1 {
			size = 1
		}
		if size > c.NumItems {
			size = c.NumItems
		}
		fromPrev := 0
		if len(prev) > 0 {
			frac := r.ExpFloat64() * c.Correlation
			if frac > 1 {
				frac = 1
			}
			fromPrev = int(frac * float64(size))
			if fromPrev > len(prev) {
				fromPrev = len(prev)
			}
		}
		for k := range seen {
			delete(seen, k)
		}
		items := make([]dataset.Item, 0, size)
		// Inherit a random subset of the previous pattern.
		perm := r.Perm(len(prev))
		for _, pi := range perm[:fromPrev] {
			if !seen[prev[pi]] {
				seen[prev[pi]] = true
				items = append(items, prev[pi])
			}
		}
		// Fill the remainder uniformly.
		for len(items) < size {
			it := dataset.Item(r.Intn(c.NumItems))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		pats[i] = pattern{items: items, corrupt: clamped01(r, c.CorruptMean, c.CorruptSD)}
		weights[i] = r.ExpFloat64()
		prev = items
	}
	return pats, weights
}

// Quest generates a regular-synthetic dataset.
func Quest(c QuestConfig) (*dataset.Dataset, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(c.Seed))
	pats, weights := genPatterns(r, c)
	cum := cumulative(weights)
	driftEvery := c.DriftEvery
	if driftEvery == 0 {
		driftEvery = 100
	}
	var logMult []float64
	if c.WeightDrift > 0 {
		logMult = make([]float64, len(weights))
	}
	const reversion = 0.8 // pull of the log-multiplier back toward 0 per step

	b := dataset.NewBuilder(c.NumItems)
	tx := make([]dataset.Item, 0, int(c.AvgTxLen)*2)
	inTx := make(map[dataset.Item]bool, int(c.AvgTxLen)*2)
	var carry []dataset.Item // pattern postponed to the next transaction
	for t := 0; t < c.NumTx; t++ {
		if c.WeightDrift > 0 && t > 0 && t%driftEvery == 0 {
			drifted := make([]float64, len(weights))
			for i := range weights {
				logMult[i] = reversion*logMult[i] + c.WeightDrift*r.NormFloat64()
				drifted[i] = weights[i] * math.Exp(logMult[i])
			}
			cum = cumulative(drifted)
		}
		size := poisson(r, c.AvgTxLen)
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
			// Corrupt: drop items while a coin keeps coming up below the
			// pattern's corruption level.
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
			// If the pattern overflows the transaction, half the time it
			// goes in anyway, half the time it is saved for the next
			// transaction (as in the published generator).
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
