package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/oracle"
)

func TestGaugeVecRendering(t *testing.T) {
	r := obs.NewRegistry()
	gv := r.GaugeVec("test_breaker_state", "Breaker state by shard.", "shard")
	gv.With("0").Set(2)
	gv.With("1").Set(0)
	gv.With("0").Set(1) // same child: overwrite, not a new series
	gv.With("2").Add(3)
	gv.With("2").Add(-1)

	var b bytes.Buffer
	if err := r.WriteExposition(&b, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_breaker_state Breaker state by shard.\n# TYPE test_breaker_state gauge\n",
		`test_breaker_state{shard="0"} 1`,
		`test_breaker_state{shard="1"} 0`,
		`test_breaker_state{shard="2"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "test_breaker_state{"); n != 3 {
		t.Errorf("%d series, want 3 (resetting a child must not add one)", n)
	}
	if errs := oracle.Lint(strings.NewReader(out)); errs != nil {
		t.Errorf("lint: %v", errs)
	}
	if _, err := obs.ParseText(strings.NewReader(out)); err != nil {
		t.Errorf("parse back: %v", err)
	}
}
