package gen

import (
	"fmt"
	"math/rand"

	"github.com/ossm-mining/ossm/internal/dataset"
)

// AlarmConfig parameterizes the surrogate for the proprietary Nokia
// telecommunication-alarm data set (paper §6.1, data set 1: ~5000
// transactions over ~200 alarm types). The paper cannot describe the data
// further, so this generator reproduces the qualitative structure of
// network alarm logs that makes the OSSM effective on them:
//
//   - Cascades: a fault in one network element triggers a burst of
//     correlated secondary alarms, so alarm types co-occur in clusters.
//   - Long tail: a few alarm types are very frequent, most are rare
//     (approximately Zipfian type frequencies).
//   - Drift: which cascades are active changes slowly over time (an
//     outage dominates a stretch of the log), so segment-local supports
//     differ strongly from global ones.
type AlarmConfig struct {
	NumTx       int     // transactions (alarm windows)
	NumTypes    int     // distinct alarm types
	NumCascades int     // distinct fault cascades
	CascadeLen  float64 // mean number of secondary alarms per cascade (Poisson)
	NoiseRate   float64 // mean number of background alarms per transaction
	Epochs      int     // number of drift epochs across the log
	ZipfS       float64 // Zipf exponent for background alarm types (>1)
	Seed        int64
}

// DefaultAlarm matches the paper's stated scale: about 5000 transactions
// of about 200 alarm types.
func DefaultAlarm(seed int64) AlarmConfig {
	return AlarmConfig{
		NumTx:       5000,
		NumTypes:    200,
		NumCascades: 40,
		CascadeLen:  4,
		NoiseRate:   3,
		Epochs:      10,
		ZipfS:       1.3,
		Seed:        seed,
	}
}

// Alarm generates the surrogate alarm dataset.
func Alarm(c AlarmConfig) (*dataset.Dataset, error) {
	switch {
	case c.NumTx <= 0:
		return nil, fmt.Errorf("gen: NumTx must be positive, got %d", c.NumTx)
	case c.NumTypes <= 1:
		return nil, fmt.Errorf("gen: NumTypes must exceed 1, got %d", c.NumTypes)
	case c.NumCascades <= 0:
		return nil, fmt.Errorf("gen: NumCascades must be positive, got %d", c.NumCascades)
	case c.Epochs <= 0:
		return nil, fmt.Errorf("gen: Epochs must be positive, got %d", c.Epochs)
	case c.ZipfS <= 1:
		return nil, fmt.Errorf("gen: ZipfS must exceed 1, got %g", c.ZipfS)
	}
	r := rand.New(rand.NewSource(c.Seed))
	zipf := rand.NewZipf(r, c.ZipfS, 1, uint64(c.NumTypes-1))

	// Build cascades: a root type plus a fixed set of possible secondary
	// types, each firing with its own probability.
	type cascade struct {
		root      dataset.Item
		secondary []dataset.Item
		fireProb  []float64
	}
	cascades := make([]cascade, c.NumCascades)
	for i := range cascades {
		n := poisson(r, c.CascadeLen) + 1
		sec := make([]dataset.Item, n)
		probs := make([]float64, n)
		for j := range sec {
			sec[j] = dataset.Item(r.Intn(c.NumTypes))
			probs[j] = 0.25 + 0.45*r.Float64() // correlated but not lock-step
		}
		cascades[i] = cascade{
			root:      dataset.Item(r.Intn(c.NumTypes)),
			secondary: sec,
			fireProb:  probs,
		}
	}

	// Per-epoch active cascade subset: drift means different stretches of
	// the log see different cascades.
	perEpoch := c.NumCascades/2 + 1
	active := make([][]int, c.Epochs)
	for e := range active {
		perm := r.Perm(c.NumCascades)
		active[e] = perm[:perEpoch]
	}

	b := dataset.NewBuilder(c.NumTypes)
	tx := make([]dataset.Item, 0, 16)
	for t := 0; t < c.NumTx; t++ {
		epoch := t * c.Epochs / c.NumTx
		tx = tx[:0]
		// One or occasionally two cascades fire in a window.
		nc := 1
		if r.Float64() < 0.2 {
			nc = 2
		}
		for f := 0; f < nc; f++ {
			ca := cascades[active[epoch][r.Intn(len(active[epoch]))]]
			tx = append(tx, ca.root)
			for j, s := range ca.secondary {
				if r.Float64() < ca.fireProb[j] {
					tx = append(tx, s)
				}
			}
		}
		// Background noise from the Zipfian tail.
		for n := poisson(r, c.NoiseRate); n > 0; n-- {
			tx = append(tx, dataset.Item(zipf.Uint64()))
		}
		if err := b.Append(tx); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
