package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps harness tests fast while still exercising every code
// path (real generator, real segmentation, real mining).
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.NumTx = 1500
	cfg.NumItems = 120
	cfg.Pages = 50
	cfg.BubbleSize = 40
	cfg.Support = 0.02
	cfg.BubbleSupport = 0.005
	cfg.Reps = 1
	return cfg
}

func TestRunFig4(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunFig4(cfg, []int{5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 { // 3 algorithms × 3 segment counts
		t.Fatalf("got %d points, want 9", len(r.Points))
	}
	frac := map[string]float64{}
	for _, p := range r.Points {
		if p.Speedup <= 0 {
			t.Errorf("%v n=%d: non-positive speedup", p.Algorithm, p.Segments)
		}
		if p.C2Fraction < 0 || p.C2Fraction > 1 {
			t.Errorf("%v n=%d: C2 fraction %f out of range", p.Algorithm, p.Segments, p.C2Fraction)
		}
		frac[p.Algorithm.String()+string(rune(p.Segments))] = p.C2Fraction
	}
	// More segments never hurt the candidate fraction for a fixed
	// algorithm along a sweep (the Figure 4(b) monotonicity).
	for _, alg := range Fig4Algorithms {
		var prev float64 = -1
		for _, n := range []int{20, 10, 5} { // descending sweep order
			for _, p := range r.Points {
				if p.Algorithm == alg && p.Segments == n {
					if prev >= 0 && p.C2Fraction < prev-1e-9 {
						t.Errorf("%v: fraction improved when segments decreased (%f -> %f)", alg, prev, p.C2Fraction)
					}
					prev = p.C2Fraction
				}
			}
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 4") || !strings.Contains(buf.String(), "Greedy") {
		t.Error("Print output missing expected content")
	}
}

func TestRunFig5(t *testing.T) {
	cfg := tinyConfig()
	a, err := RunFig5a(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 3 {
		t.Fatalf("fig5a rows = %d, want 3", len(a.Rows))
	}
	// Segmentation-cost ordering: Random ≪ RC ≤ (comparable to) Greedy.
	if a.Rows[0].Strategy.String() != "Random" {
		t.Fatalf("row 0 = %v, want Random", a.Rows[0].Strategy)
	}
	if a.Rows[0].SegTime >= a.Rows[1].SegTime || a.Rows[0].SegTime >= a.Rows[2].SegTime {
		t.Errorf("Random segmentation (%v) not cheapest (RC %v, Greedy %v)",
			a.Rows[0].SegTime, a.Rows[1].SegTime, a.Rows[2].SegTime)
	}
	b, err := RunFig5b(cfg, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 2 {
		t.Fatalf("fig5b rows = %d, want 2", len(b.Rows))
	}
	var buf bytes.Buffer
	a.Print(&buf)
	b.Print(&buf)
	if !strings.Contains(buf.String(), "hybrid") {
		t.Error("fig5b Print output missing title")
	}
}

func TestRunFig6(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunFig6(cfg, 8, 25, []int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 { // 2 strategies × 2 sizes
		t.Fatalf("points = %d, want 4", len(r.Points))
	}
	for _, p := range r.Points {
		if p.BubbleItems <= 0 {
			t.Errorf("%v %d%%: empty bubble", p.Strategy, p.BubblePct)
		}
		if p.SegTime <= 0 {
			t.Errorf("%v %d%%: no segmentation time", p.Strategy, p.BubblePct)
		}
	}
	// Larger bubbles cost more to segment with (the Figure 6(a) slope).
	// Segmentation at this scale takes well under a millisecond, where one
	// scheduling delay can exceed the difference, so compare the best of
	// three runs.
	best := map[string]time.Duration{}
	for rep := 0; rep < 3; rep++ {
		if rep > 0 {
			if r, err = RunFig6(cfg, 8, 25, []int{10, 50}); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range r.Points {
			key := fmt.Sprint(p.Strategy, p.BubblePct)
			if b, ok := best[key]; !ok || p.SegTime < b {
				best[key] = p.SegTime
			}
		}
	}
	for _, alg := range Fig6Strategies {
		small, large := best[fmt.Sprint(alg, 10)], best[fmt.Sprint(alg, 50)]
		if small >= large {
			t.Errorf("%v: 10%% bubble (%v) not cheaper than 50%% (%v)", alg, small, large)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "(c) Fraction") {
		t.Error("Print output missing panel (c)")
	}
}

func TestRunSec7(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunSec7(cfg, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.C2OSSM > r.C2Plain {
		t.Errorf("|C2| with OSSM (%d) exceeds without (%d)", r.C2OSSM, r.C2Plain)
	}
	for name, rows := range map[string][]PassRow{"plain": r.TrajectoryPlain, "ossm": r.TrajectoryOSSM} {
		if len(rows) == 0 {
			t.Fatalf("%s trajectory is empty", name)
		}
		for _, p := range rows {
			if p.K >= 2 && p.Bound > 0 && p.Generated > p.Bound {
				t.Errorf("%s pass %d: generated %d exceeds candidate bound %d", name, p.K, p.Generated, p.Bound)
			}
			if p.Counted > p.Generated {
				t.Errorf("%s pass %d: counted %d exceeds generated %d", name, p.K, p.Counted, p.Generated)
			}
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	for _, want := range []string{"DHP", "per-pass trajectory", "bound"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Print output missing %q", want)
		}
	}
}

func TestRunSkew(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunSkew(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.C2Fraction < 0 || row.C2Fraction > 1 {
			t.Errorf("%s: fraction %f out of range", row.Dataset, row.C2Fraction)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "skewed-synthetic") {
		t.Error("Print output missing dataset name")
	}
}

func TestRunHosts(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunHosts(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (Apriori, Partition, DepthProject, dEclat)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.WorkOSSM > row.WorkPlain {
			t.Errorf("%s: OSSM increased work (%d > %d)", row.Host, row.WorkOSSM, row.WorkPlain)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "DepthProject") {
		t.Error("Print output missing host")
	}
}

func TestRunEpisodes(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunEpisodes(cfg, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows <= 0 {
		t.Error("no windows examined")
	}
	if r.Pruned > r.Checked {
		t.Errorf("pruned %d > checked %d", r.Pruned, r.Checked)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "episode") {
		t.Error("Print output missing summary")
	}
}

func TestRunMemory(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunMemory(cfg, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	if r.Rows[0].CellBytes != 4*cfg.NumItems*r.Rows[0].Segments {
		t.Errorf("cell accounting wrong: %d", r.Rows[0].CellBytes)
	}
	if r.Rows[0].SizeBytes != 4*cfg.NumItems*r.Rows[0].Segments+8*cfg.NumItems {
		t.Errorf("size accounting wrong: %d", r.Rows[0].SizeBytes)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "MB") {
		t.Error("Print output missing size unit")
	}
}

func TestConfigDatasets(t *testing.T) {
	cfg := tinyConfig()
	reg, err := cfg.Regular()
	if err != nil {
		t.Fatal(err)
	}
	if reg.NumTx() != cfg.NumTx || reg.NumItems() != cfg.NumItems {
		t.Errorf("regular shape %d/%d", reg.NumTx(), reg.NumItems())
	}
	sk, err := cfg.Skewed()
	if err != nil {
		t.Fatal(err)
	}
	if sk.NumTx() != cfg.NumTx {
		t.Errorf("skewed NumTx %d", sk.NumTx())
	}
	al, err := cfg.Alarm()
	if err != nil {
		t.Fatal(err)
	}
	if al.NumItems() != 200 {
		t.Errorf("alarm NumItems %d, want 200", al.NumItems())
	}
}

func TestRunExtended(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunExtended(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.ExtBytes <= r.BaseBytes {
		t.Error("extended map claims no extra space")
	}
	if r.ExtC2Frac > r.BaseC2Frac+1e-9 {
		t.Errorf("extended bound pruned less (%f) than the base (%f)", r.ExtC2Frac, r.BaseC2Frac)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "footnote 3") {
		t.Error("Print output missing title")
	}
}

func TestRunMinSeg(t *testing.T) {
	cfg := tinyConfig()
	r, err := RunMinSeg(cfg, []int{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MinSegments < 1 || row.MinSegments > row.Pages {
			t.Errorf("m=%d: n_min = %d out of range", row.Pages, row.MinSegments)
		}
		if row.Theoretical != row.Pages { // k=120 ⇒ 2^k−k ≫ m
			t.Errorf("m=%d: theoretical = %d, want m", row.Pages, row.Theoretical)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Theorem 1") {
		t.Error("Print output missing title")
	}
}
